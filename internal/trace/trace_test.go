package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spd3/internal/bench"
	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/espbags"
	"spd3/internal/fasttrack"
	"spd3/internal/mem"
	"spd3/internal/progen"
	"spd3/internal/sample"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// record runs p under the recorder and returns the trace bytes.
func record(t *testing.T, p *progen.Program, exec task.ExecKind, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, exec == task.Sequential)
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := progen.Run(rt, p, nil); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveVerdict runs p directly under a fresh detector.
func liveVerdict(t *testing.T, p *progen.Program, mk func(*detect.Sink) detect.Detector,
	exec task.ExecKind) bool {
	t.Helper()
	sink := detect.NewSink(false, 0)
	rt, err := task.New(task.Config{Executor: exec, Detector: mk(sink)})
	if err != nil {
		t.Fatal(err)
	}
	if err := progen.Run(rt, p, nil); err != nil {
		t.Fatal(err)
	}
	return !sink.Empty()
}

// replayVerdict replays the trace into a fresh detector.
func replayVerdict(t *testing.T, data []byte, mk func(*detect.Sink) detect.Detector) bool {
	t.Helper()
	sink := detect.NewSink(false, 0)
	if err := Replay(bytes.NewReader(data), mk(sink)); err != nil {
		t.Fatal(err)
	}
	return !sink.Empty()
}

func mkSPD3(s *detect.Sink) detect.Detector      { return core.New(s, nil) }
func mkFastTrack(s *detect.Sink) detect.Detector { return fasttrack.New(s, nil) }
func mkESPBags(s *detect.Sink) detect.Detector   { return espbags.New(s, nil) }

// TestReplayMatchesLiveVerdicts: recording a sequential execution and
// replaying it into each detector yields the same verdict as running the
// detector live.
func TestReplayMatchesLiveVerdicts(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := progen.Generate(seed, progen.Config{})
		data := record(t, p, task.Sequential, 1)
		for name, mk := range map[string]func(*detect.Sink) detect.Detector{
			"spd3":      mkSPD3,
			"fasttrack": mkFastTrack,
			"espbags":   mkESPBags,
		} {
			live := liveVerdict(t, p, mk, task.Sequential)
			rep := replayVerdict(t, data, mk)
			if live != rep {
				t.Fatalf("seed %d %s: live %v, replay %v\n%s", seed, name, live, rep, p)
			}
		}
	}
}

// TestReplayStatsMatchLive: replay is the second driver of the detect
// event contract, so replaying a depth-first trace into a fresh session
// must leave that session's recorder with the check-path counters of the
// live run it was recorded from — shadow protocol, DMHP, page cache and
// sampling gate alike, unsampled, behind a Bernoulli coin and in burst
// windows (which pins that both drivers advance a task's burst epoch at
// the same events). Both sides work through one detect.Local (a
// sequential run's, the replay's) in the same access order, so even the
// page cache's hit/miss split agrees; under any other executor only its
// sum would.
func TestReplayStatsMatchLive(t *testing.T) {
	sor, err := bench.ByName("SOR")
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]func(*task.Runtime) error{
		"SOR": func(rt *task.Runtime) error {
			_, err := sor.Run(rt, bench.Input{Scale: 0.2})
			return err
		},
	}
	for seed := int64(0); seed < 10; seed++ {
		p := progen.Generate(seed, progen.Config{})
		programs[fmt.Sprintf("progen-%d", seed)] = func(rt *task.Runtime) error { return progen.Run(rt, p, nil) }
	}
	for name, run := range programs {
		var buf bytes.Buffer
		rec := NewRecorder(&buf, true)
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := run(rt); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"off", "bernoulli:0.5", "burst:0.3"} {
			open := func() *detect.Session {
				cfg, err := sample.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				ses, err := detect.Open("spd3", detect.SessionOpts{Sampler: sample.New(cfg)})
				if err != nil {
					t.Fatal(err)
				}
				return ses
			}
			live := open()
			rt, err := task.New(task.Config{Executor: task.Sequential, Detector: live.Det, Stats: live.Rec})
			if err != nil {
				t.Fatal(err)
			}
			if err := run(rt); err != nil {
				t.Fatal(err)
			}
			replayed := open()
			if err := ReplayWithLimits(bytes.NewReader(buf.Bytes()), replayed.Det, replayed.Rec, DefaultLimits()); err != nil {
				t.Fatal(err)
			}
			want, got := live.Snapshot(0).Map(), replayed.Snapshot(0).Map()
			for key, w := range want {
				switch prefix, _, _ := strings.Cut(key, "."); prefix {
				case "cas", "dmhp", "shadow", "sample":
					if got[key] != w {
						t.Errorf("%s sampling=%s: replay reports %s = %d, the live run %d", name, spec, key, got[key], w)
					}
				}
			}
			if spec == "off" && want["shadow.page_cache_hit"]+want["shadow.page_cache_miss"] == 0 {
				t.Errorf("%s: the live run counted no page-cache lookups; the comparison is vacuous", name)
			}
			if spec != "off" && want["sample.checked"]+want["sample.skipped"] == 0 {
				t.Errorf("%s: the sampled live run counted no gate outcomes; the comparison is vacuous", name)
			}
		}
	}
}

// TestReplayIntoSiteCapturingSink: a replayed access has no container
// method on the stack, so a sink with site capture on records exactly the
// races — verdict, (kind, region, index) set and step strings, with no
// " at file:line" suffix — of a sink without it.
func TestReplayIntoSiteCapturingSink(t *testing.T) {
	racy := 0
	for seed := int64(0); seed < 150; seed++ {
		data := record(t, progen.Generate(seed, progen.Config{}), task.Sequential, 1)
		var got [2][]detect.Race
		for i, sites := range []bool{false, true} {
			sink := detect.NewSink(false, 0)
			sink.SetCaptureSites(sites)
			if err := Replay(bytes.NewReader(data), mkSPD3(sink)); err != nil {
				t.Fatal(err)
			}
			got[i] = sink.Races()
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("seed %d: plain sink %v, site-capturing sink %v", seed, got[0], got[1])
		}
		if len(got[0]) > 0 {
			racy++
		}
	}
	if racy == 0 {
		t.Fatal("no racy program in the corpus: the comparison is vacuous")
	}
}

// TestReplayParallelTrace: traces recorded under the pool replay into
// parallel-capable detectors with the same verdict.
func TestReplayParallelTrace(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := progen.Generate(seed, progen.Config{})
		data := record(t, p, task.Pool, 4)
		live := liveVerdict(t, p, mkSPD3, task.Sequential)
		rep := replayVerdict(t, data, mkSPD3)
		if live != rep {
			t.Fatalf("seed %d: live %v, replay %v\n%s", seed, live, rep, p)
		}
	}
}

// TestRecorderConcurrentRegionDecls: tasks that create containers in
// parallel (here through their *Ctx; Strassen's temporaries go through
// c.Runtime()) under the pool must still record a
// trace whose region ids arrive in order, each with its own name right
// behind it — the decoder rejects anything else as malformed.
func TestRecorderConcurrentRegionDecls(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, false)
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 4, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	const tasks, perTask = 64, 32
	err = rt.Run(func(c *task.Ctx) {
		c.FinishAsync(tasks, func(c *task.Ctx, i int) {
			for j := 0; j < perTask; j++ {
				a := mem.NewArray[int](c, fmt.Sprintf("a%d.%d", i, j), 2)
				a.Set(c, 1, a.Get(c, 0)+j)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if replayVerdict(t, buf.Bytes(), mkSPD3) {
		t.Fatal("task-private arrays replayed racy")
	}
}

// TestReplayRejectsSequentialDetectorOnParallelTrace pins the legality
// check: ESP-bags needs a depth-first trace.
func TestReplayRejectsSequentialDetectorOnParallelTrace(t *testing.T) {
	p := progen.Generate(1, progen.Config{})
	data := record(t, p, task.Pool, 4)
	sink := detect.NewSink(false, 0)
	err := Replay(bytes.NewReader(data), espbags.New(sink, nil))
	if err == nil || !strings.Contains(err.Error(), "depth-first") {
		t.Fatalf("err = %v, want depth-first rejection", err)
	}
}

// TestReplayWithLocks: lock events round-trip.
func TestReplayWithLocks(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := progen.Generate(seed, progen.Config{Locks: 2})
		data := record(t, p, task.Sequential, 1)
		live := liveVerdict(t, p, mkFastTrack, task.Sequential)
		rep := replayVerdict(t, data, mkFastTrack)
		if live != rep {
			t.Fatalf("seed %d: live %v, replay %v\n%s", seed, live, rep, p)
		}
	}
}

func TestReplayMalformed(t *testing.T) {
	sink := detect.NewSink(false, 0)
	if err := Replay(bytes.NewReader(nil), core.New(sink, nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	if err := Replay(strings.NewReader("NOTATRACE"), core.New(sink, nil)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Valid header, then garbage event kind.
	bad := append([]byte(magic), 1, 0xEE)
	if err := Replay(bytes.NewReader(bad), core.New(sink, nil)); err == nil {
		t.Fatal("garbage event accepted")
	}
	// Truncated mid-event.
	p := progen.Generate(3, progen.Config{})
	data := record(t, p, task.Sequential, 1)
	if err := Replay(bytes.NewReader(data[:len(data)-1]), core.New(sink, nil)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// TestTraceCompact sanity-checks the encoding density: a trace event
// should cost a handful of bytes, not a struct dump.
func TestTraceCompact(t *testing.T) {
	p := progen.Generate(7, progen.Config{MaxStmts: 200})
	data := record(t, p, task.Sequential, 1)
	_, _, accesses := p.Stats()
	if accesses == 0 {
		t.Skip("seed produced no accesses")
	}
	perEvent := float64(len(data)) / float64(accesses)
	if perEvent > 32 {
		t.Fatalf("trace too fat: %.1f bytes per access event", perEvent)
	}
}

// TestUpdateReplaysAsOneAction: the Recorder writes a read-modify-write
// as one evUpdate, and replay applies it through detect.Update — one
// memory action to SPD3, which fuses it, and a read and then a write to a
// detector that does not (FastTrack), each with the verdict of the two
// accesses.
func TestUpdateReplaysAsOneAction(t *testing.T) {
	const n = 8
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	mt := &detect.Task{ID: 0}
	f0, f1 := &detect.Finish{ID: 0}, &detect.Finish{ID: 1}
	mt.IEF = f0
	rec.MainTask(mt, f0)
	sh := rec.NewShadow(detect.Spec("r", n, 8))
	rec.FinishStart(mt, f1)
	kids := [2]*detect.Task{{ID: 1, IEF: f1}, {ID: 2, IEF: f1}}
	for _, k := range kids {
		rec.BeforeSpawn(mt, k)
		for i := 0; i < n; i++ {
			detect.Update(sh, k, i) // the second child's races with the first's
		}
		rec.TaskEnd(k)
	}
	rec.FinishEnd(mt, f1)
	rec.FinishEnd(mt, f0)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	updates := 0
	dec, err := newDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for ev := (event{}); dec.next(&ev) == nil; {
		switch ev.kind {
		case evUpdate:
			updates++
		case evRead, evWrite:
			t.Fatalf("the recording holds a kind %d event", ev.kind)
		}
	}
	if updates != 2*n {
		t.Fatalf("%d evUpdate events, want %d", updates, 2*n)
	}
	for _, c := range []struct {
		name    string
		actions int64 // cas.clean + cas.publish
	}{{"spd3", 2 * n}, {"fasttrack", 0}} {
		ses, err := detect.Open(c.name, detect.SessionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ReplayWithLimits(bytes.NewReader(buf.Bytes()), ses.Det, ses.Rec, DefaultLimits()); err != nil {
			t.Fatal(err)
		}
		snap := ses.Rec.Snapshot()
		if got := snap.Get(stats.CASClean) + snap.Get(stats.CASPublish); got != c.actions {
			t.Errorf("%s: cas.clean + cas.publish = %d, want %d", c.name, got, c.actions)
		}
		racy := map[int]bool{}
		for _, r := range ses.Sink.Races() {
			racy[r.Index] = true
		}
		if len(racy) != n {
			t.Errorf("%s: races on %d cells, want all %d", c.name, len(racy), n)
		}
	}
}

// TestMultiRunReplayMatchesLiveTree: replaying a recording of several
// runs on one sequential runtime builds SPD3 the tree the live runs
// built, id for id, so the race reports name the same steps. Each run
// ends with insertions past its last watermark move (an async under the
// implicit finish, racing with main), so the next run's node is drawn
// right after ids still in the insertion block: replay, which keeps one
// block for the whole trace, must hand them back before drawing it, as a
// live run's end does.
func TestMultiRunReplayMatchesLiveTree(t *testing.T) {
	runs := func(rt *task.Runtime) {
		for run := 0; run < 3; run++ {
			a := mem.NewArray[int](rt, fmt.Sprintf("run%d", run), 2)
			if err := rt.Run(func(c *task.Ctx) {
				c.Finish(func(c *task.Ctx) { c.Async(func(c *task.Ctx) { a.Set(c, 1, 1) }) })
				c.Async(func(c *task.Ctx) { a.Set(c, 0, 1) })
				a.Set(c, 0, 2)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	runs(rt)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	liveSink := detect.NewSink(false, 0)
	live := core.New(liveSink, nil)
	if rt, err = task.New(task.Config{Executor: task.Sequential, Detector: live}); err != nil {
		t.Fatal(err)
	}
	runs(rt)
	repSink := detect.NewSink(false, 0)
	rep := core.New(repSink, nil)
	if err := Replay(bytes.NewReader(buf.Bytes()), rep); err != nil {
		t.Fatal(err)
	}

	lt, rtr := live.Tree(), rep.Tree()
	if lt.Len() != rtr.Len() || lt.Bytes() != rtr.Bytes() {
		t.Fatalf("replay: Len %d, Bytes %d; live: Len %d, Bytes %d", rtr.Len(), rtr.Bytes(), lt.Len(), lt.Bytes())
	}
	if lt.Bytes() != lt.Len()*8 {
		t.Fatalf("live: Bytes %d for Len %d: ids are not dense", lt.Bytes(), lt.Len())
	}
	for id := uint32(1); int64(id) < lt.Len(); id++ {
		l, r := lt.Node(id), rtr.Node(id)
		if l.String() != r.String() || l.Parent().String() != r.Parent().String() {
			t.Fatalf("node %d: replay %v under %v, live %v under %v", id, r, r.Parent(), l, l.Parent())
		}
	}
	var lr, rr []string
	for _, r := range liveSink.Races() {
		lr = append(lr, r.String())
	}
	for _, r := range repSink.Races() {
		rr = append(rr, r.String())
	}
	if len(lr) != 3 || !reflect.DeepEqual(lr, rr) {
		t.Fatalf("replay reports %q, live reports %q, want one race a run", rr, lr)
	}
}
