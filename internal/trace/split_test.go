package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"

	"spd3/internal/bench"
	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/fasttrack"
	"spd3/internal/progen"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// chunkReader delivers at most n bytes per Read, forcing the decoder to
// exercise its incremental refill paths the way a network body does.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// analysis is one replay's complete observable outcome: verdict, race
// list, and the stats snapshot the server would report.
type analysis struct {
	racy  bool
	races []detect.Race
	snap  stats.Snapshot
	err   error
}

// analyzeReader replays rd into a fresh spd3 detector with stats wired
// the way the daemon wires them.
func analyzeReader(rd io.Reader) analysis {
	sink := detect.NewSink(false, 0)
	rec := stats.New()
	sink.SetStats(rec)
	det := core.New(sink, nil)
	err := Replay(rd, det)
	snap := rec.Snapshot()
	snap.Footprint = det.Footprint()
	return analysis{racy: !sink.Empty(), races: sink.Races(), snap: snap, err: err}
}

// TestStreamingMatchesBuffered is the differential property test: for
// 150 generated programs, replaying the trace incrementally off a
// 7-byte-chunk reader must produce the identical verdict, race list,
// and stats snapshot as replaying it from a fully buffered slice.
func TestStreamingMatchesBuffered(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := progen.Generate(seed, progen.Config{Locks: 1})
		data := record(t, p, task.Sequential, 1)

		buffered := analyzeReader(bytes.NewReader(data))
		streaming := analyzeReader(&chunkReader{r: bytes.NewReader(data), n: 7})
		if buffered.err != nil || streaming.err != nil {
			t.Fatalf("seed %d: buffered err %v, streaming err %v", seed, buffered.err, streaming.err)
		}
		if buffered.racy != streaming.racy {
			t.Fatalf("seed %d: buffered racy=%v, streaming racy=%v\n%s", seed, buffered.racy, streaming.racy, p)
		}
		if !reflect.DeepEqual(buffered.races, streaming.races) {
			t.Fatalf("seed %d: race lists diverge\nbuffered:  %v\nstreaming: %v", seed, buffered.races, streaming.races)
		}
		if !reflect.DeepEqual(buffered.snap, streaming.snap) {
			t.Fatalf("seed %d: stats snapshots diverge\nbuffered:  %v\nstreaming: %v", seed, buffered.snap, streaming.snap)
		}
	}
}

// chunking is one way a test delivers a trace's bytes.
type chunking struct {
	name string
	wrap func([]byte) io.Reader
}

// chunkings delivers a trace whole, a byte per Read, half of each Read,
// in 1- to 7-byte chunks, through a caller's bufio.Reader too small to
// hold an event's span, which the decoder must wrap rather than fail on
// with bufio.ErrBufferFull, and through one that holds exactly a maximal
// span, which the decoder uses as it stands: its window ends every few
// events, so replay and the splitter meet an event cut at a window's
// edge over and over.
func chunkings() []chunking {
	cs := []chunking{
		{"bytes", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
		{"bufio16", func(b []byte) io.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 16) }},
		{"bufioSpan", func(b []byte) io.Reader { return bufio.NewReaderSize(bytes.NewReader(b), maxSpan) }},
	}
	for n := 1; n <= 7; n++ {
		cs = append(cs, chunking{fmt.Sprintf("chunk%d", n), func(b []byte) io.Reader { return &chunkReader{r: bytes.NewReader(b), n: n} }})
	}
	return cs
}

// wideTrace records two top-level finishes, each spawning a task whose
// write the main task races with, with ids so large that a spawn's span
// (24 bytes) outgrows a 16-byte bufio.Reader.
func wideTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	mt, implicit := &detect.Task{ID: 1 << 40}, &detect.Finish{ID: 1 << 60}
	mt.IEF = implicit
	rec.MainTask(mt, implicit)
	sh := rec.NewShadow(detect.Spec("wide", 1<<20, 8))
	for k := int64(0); k < 2; k++ {
		f := &detect.Finish{ID: 1<<61 + k}
		rec.FinishStart(mt, f)
		child := &detect.Task{ID: 1<<50 + detect.TaskID(k), IEF: f}
		rec.BeforeSpawn(mt, child)
		sh.Write(child, 1<<19)
		sh.Read(mt, 1<<19) // races with the child's write
		rec.TaskEnd(child)
		rec.FinishEnd(mt, f)
	}
	rec.FinishEnd(mt, implicit)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultIndependentOfChunking: how a trace's bytes arrive changes
// neither a segment's bytes nor a verdict. The decoder parses events out
// of its buffered window and the splitter copies spans out of it, so a
// window that ends inside an event must read on, not misparse or cut.
// Every committed split trace under each of its pinned configurations,
// and progen recordings and wideTrace cut at every boundary, split and
// replay under every chunking exactly as they do from a bytes.Reader.
func TestResultIndependentOfChunking(t *testing.T) {
	type input struct {
		name         string
		data         []byte
		cfg          SplitConfig
		unsplitAfter int
	}
	var inputs []input
	for _, pin := range splitPins {
		data, err := os.ReadFile(filepath.Join("testdata", "split", pin.trace))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{pin.trace, data, pin.cfg, pin.unsplitAfter})
	}
	for seed := int64(0); seed < 20; seed++ {
		data := record(t, progen.Generate(seed, progen.Config{Locks: 1}), task.Sequential, 1)
		inputs = append(inputs, input{fmt.Sprintf("progen seed %d", seed), data, SplitConfig{MinSegmentBytes: 1}, -1})
	}
	inputs = append(inputs, input{"wide ids", wideTrace(t), SplitConfig{MinSegmentBytes: 1}, -1})
	for _, in := range inputs {
		wantSegs := splitDigest(t, bytes.NewReader(in.data), in.cfg, in.unsplitAfter)
		want := analyzeReader(bytes.NewReader(in.data))
		if want.err != nil {
			t.Fatalf("%s: %v", in.name, want.err)
		}
		for _, c := range chunkings() {
			if got := splitDigest(t, c.wrap(in.data), in.cfg, in.unsplitAfter); got != wantSegs {
				t.Errorf("%s, %s: segments differ\ngot:\n%s\nwant:\n%s", in.name, c.name, got, wantSegs)
			}
			if got := analyzeReader(c.wrap(in.data)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: replay differs\ngot:  %+v\nwant: %+v", in.name, c.name, got, want)
			}
		}
	}
}

// segKey identifies a race the way the server's shard merge does; step
// labels are segment-relative and excluded.
type segKey struct {
	kind   string
	region string
	index  int
}

func keySet(races []detect.Race) map[segKey]struct{} {
	m := make(map[segKey]struct{}, len(races))
	for _, r := range races {
		m[segKey{r.Kind.String(), r.Region, r.Index}] = struct{}{}
	}
	return m
}

// TestSplitterUnionMatchesWhole: splitting at every available finish
// boundary and unioning per-segment results must reproduce the
// whole-trace verdict and race set — the soundness property the sharded
// server path rests on — on progen recordings, and on kernel recordings
// whose read-modify-writes are evUpdate events.
func TestSplitterUnionMatchesWhole(t *testing.T) {
	// segments checks one recording and returns how many segments it
	// split into.
	segments := func(what string, data []byte) int {
		t.Helper()
		whole := analyzeReader(bytes.NewReader(data))
		if whole.err != nil {
			t.Fatal(whole.err)
		}
		sp, err := NewSplitter(bytes.NewReader(data), SplitConfig{MinSegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		racy := false
		union := map[segKey]struct{}{}
		segs := 0
		for {
			seg, err := sp.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: segment %d: %v", what, segs, err)
			}
			segs++
			a := analyzeReader(bytes.NewReader(seg))
			if a.err != nil {
				t.Fatalf("%s: segment %d replay: %v", what, segs, a.err)
			}
			racy = racy || a.racy
			for k := range keySet(a.races) {
				union[k] = struct{}{}
			}
		}
		if segs != sp.Segments() {
			t.Fatalf("%s: counted %d segments, splitter says %d", what, segs, sp.Segments())
		}
		if racy != whole.racy {
			t.Fatalf("%s: union racy=%v, whole racy=%v (%d segments)", what, racy, whole.racy, segs)
		}
		if !reflect.DeepEqual(union, keySet(whole.races)) {
			t.Fatalf("%s: race sets diverge\nunion: %v\nwhole: %v", what, union, keySet(whole.races))
		}
		return segs
	}
	multi := 0
	for seed := int64(0); seed < 150; seed++ {
		p := progen.Generate(seed, progen.Config{Locks: 1})
		if segments(fmt.Sprintf("seed %d\n%s", seed, p), record(t, p, task.Sequential, 1)) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no seed produced a multi-segment split; the test is vacuous")
	}
	for _, name := range []string{"SOR", "LUFact"} {
		kernel, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		data := recordRun(t, func(rt *task.Runtime) error {
			_, err := kernel.Run(rt, bench.Input{Scale: 0.05})
			return err
		})
		if !hasKind(t, data, evUpdate) {
			t.Fatalf("%s: the recording has no evUpdate", name)
		}
		if segments(name, data) < 2 {
			t.Fatalf("%s: the recording did not split", name)
		}
	}
}

// hasKind reports whether the trace data holds an event of kind.
func hasKind(t *testing.T, data []byte, kind byte) bool {
	t.Helper()
	dec, err := newDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var ev event
	for {
		switch err := dec.next(&ev); {
		case err == io.EOF:
			return false
		case err != nil:
			t.Fatal(err)
		case ev.kind == kind:
			return true
		}
	}
}

// TestSplitterAgreesWithReplay: hand-built traces, cut at every
// boundary, split into the segments each row counts, and their replays
// reach the whole trace's outcome. A spawn into the implicit finish pins
// the cuts of its run, the run after it cuts afresh, and a trace replay
// refuses for its joins is refused by one of its segments too.
func TestSplitterAgreesWithReplay(t *testing.T) {
	type e = []int64
	const (
		main   = int64(evMainTask)
		spawn  = int64(evSpawn)
		tend   = int64(evTaskEnd)
		fstart = int64(evFinishStart)
		fend   = int64(evFinishEnd)
		decl   = int64(evNewShadow) // region 0: "r", 8 elements of 8 bytes
		write  = int64(evWrite)
	)
	for _, tc := range []struct {
		name string
		evs  []e
		segs int
		want error // of the whole trace and of the first failing segment
	}{
		{"a spawn into the implicit finish pins the cuts",
			[]e{{main, 0, 0}, {spawn, 0, 1, 0}, {fstart, 0, 1}, {fend, 0, 1}, {tend, 1}, {fend, 0, 0}}, 1, nil},
		{"the run after it cuts afresh",
			[]e{{main, 0, 0}, {spawn, 0, 1, 0}, {tend, 1}, {fend, 0, 0},
				{main, 2, 2}, {fstart, 2, 3}, {fend, 2, 3}, {fstart, 2, 4}, {fend, 2, 4}, {fend, 2, 2}}, 3, nil},
		{"a finish ends before its task",
			[]e{{main, 0, 0}, {fstart, 0, 1}, {spawn, 0, 1, 1}, {fend, 0, 1}, {tend, 1}, {fend, 0, 0}}, 2, ErrMalformed},
		{"a run starts while a task of the run before is live",
			[]e{{main, 0, 0}, {spawn, 0, 1, 0}, {main, 2, 2}, {fend, 2, 2}}, 1, ErrMalformed},
		{"main acts after ending its implicit finish",
			[]e{{main, 0, 0}, {decl}, {fend, 0, 0}, {write, 0, 0, 0}}, 2, ErrMalformed},
	} {
		data := append([]byte(magic), 1)
		for _, ev := range tc.evs {
			if ev[0] == decl {
				data = appendDecl(data, 0, regionDecl{elems: 8, elemBytes: 8, name: "r"})
				continue
			}
			data = appendEvent(data, byte(ev[0]), ev[1:]...)
		}
		if err := Replay(bytes.NewReader(data), core.New(detect.NewSink(false, 0), nil)); !errors.Is(err, tc.want) {
			t.Errorf("%s: whole replay: err = %v, want %v", tc.name, err, tc.want)
		}
		sp, err := NewSplitter(bytes.NewReader(data), SplitConfig{MinSegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		var first error
		for {
			seg, err := sp.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := Replay(bytes.NewReader(seg), core.New(detect.NewSink(false, 0), nil)); first == nil {
				first = err
			}
		}
		if sp.Segments() != tc.segs || !errors.Is(first, tc.want) {
			t.Errorf("%s: %d segments, first replay error %v; want %d, %v", tc.name, sp.Segments(), first, tc.segs, tc.want)
		}
	}
}

// TestSplitterHoldsCutWhileMainHoldsLock pins the lock-boundary rule: a
// top-level FinishEnd reached while the main task holds a lock is not a
// cut point, because the segment after it would open with a Release it
// never Acquired.
func TestSplitterHoldsCutWhileMainHoldsLock(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	mt := &detect.Task{ID: 0}
	f0 := &detect.Finish{ID: 0}
	mt.IEF = f0
	rec.MainTask(mt, f0)
	sh := rec.NewShadow(detect.Spec("r", 8, 8))
	lk := &detect.Lock{ID: 1}

	rec.Acquire(mt, lk)
	f1 := &detect.Finish{ID: 1}
	rec.FinishStart(mt, f1)
	sh.Write(mt, 0)
	rec.FinishEnd(mt, f1) // top-level boundary shape, but the lock is held
	rec.Release(mt, lk)

	f2 := &detect.Finish{ID: 2}
	rec.FinishStart(mt, f2)
	sh.Write(mt, 1)
	rec.FinishEnd(mt, f2) // legal boundary

	sh.Read(mt, 2)
	rec.FinishEnd(mt, f0)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	sp, err := NewSplitter(bytes.NewReader(buf.Bytes()), SplitConfig{MinSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var segs [][]byte
	for {
		seg, err := sp.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
	// A cut after f1's end would yield three segments (and an unmatched
	// Release); suppression yields exactly two.
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2 (cut only after the lock released)", len(segs))
	}
	for i, seg := range segs {
		sink := detect.NewSink(false, 0)
		if err := Replay(bytes.NewReader(seg), fasttrack.New(sink, nil)); err != nil {
			t.Fatalf("segment %d not self-contained under fasttrack: %v", i, err)
		}
		if err := Replay(bytes.NewReader(seg), core.New(detect.NewSink(false, 0), nil)); err != nil {
			t.Fatalf("segment %d not self-contained under spd3: %v", i, err)
		}
	}
}

// TestSplitterMultiRunTrace: a trace holding two back-to-back runs from
// one recorder (two main-task events, region IDs continuing across the
// gap) splits at the run boundary and each piece replays cleanly.
func TestSplitterMultiRunTrace(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	mt1 := &detect.Task{ID: 0}
	f0 := &detect.Finish{ID: 0}
	mt1.IEF = f0
	rec.MainTask(mt1, f0)
	shA := rec.NewShadow(detect.Spec("a", 8, 8))
	for i := 0; i < 50; i++ {
		shA.Write(mt1, i%8)
	}
	rec.FinishEnd(mt1, f0)

	mt2 := &detect.Task{ID: 1}
	f1 := &detect.Finish{ID: 1}
	mt2.IEF = f1
	rec.MainTask(mt2, f1)
	shB := rec.NewShadow(detect.Spec("b", 8, 8)) // region 1: IDs continue across runs
	for i := 0; i < 50; i++ {
		shA.Read(mt2, i%8) // the new run touches the old run's region too
		shB.Write(mt2, i%8)
	}
	rec.FinishEnd(mt2, f1)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	whole := &countingDetector{trigger: -1}
	if err := Replay(bytes.NewReader(data), whole); err != nil {
		t.Fatal(err)
	}

	sp, err := NewSplitter(bytes.NewReader(data), SplitConfig{MinSegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	segs, total := 0, 0
	for {
		seg, err := sp.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		segs++
		det := &countingDetector{trigger: -1}
		if err := Replay(bytes.NewReader(seg), det); err != nil {
			t.Fatalf("segment %d: %v", segs, err)
		}
		total += det.events
	}
	// MinSegmentBytes is far above the trace size, so only the run gap
	// (which ignores coalescing) can cut: exactly two segments.
	if segs != 2 {
		t.Fatalf("got %d segments, want 2 (one per run)", segs)
	}
	if total != whole.events {
		t.Fatalf("segments saw %d accesses, whole trace saw %d", total, whole.events)
	}
}

// TestSplitterOversizeUnsplit: a trace with no interior boundary trips
// the segment cap, and Unsplit recovers the entire remaining trace for
// single-stream analysis — nothing already consumed is lost.
func TestSplitterOversizeUnsplit(t *testing.T) {
	const accesses = 50_000
	data := synthTrace(t, accesses)

	sp, err := NewSplitter(bytes.NewReader(data), SplitConfig{MinSegmentBytes: 1, MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Next(); !errors.Is(err, ErrSegmentOversize) {
		t.Fatalf("err = %v, want ErrSegmentOversize", err)
	}
	det := &countingDetector{trigger: -1}
	if err := Replay(sp.Unsplit(), det); err != nil {
		t.Fatalf("unsplit replay: %v", err)
	}
	if det.events != accesses {
		t.Fatalf("unsplit replay saw %d accesses, want %d", det.events, accesses)
	}
	if _, err := sp.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after Unsplit = %v, want io.EOF", err)
	}
}

// TestSplitterSingleSegment: without a cap, a boundary-free trace comes
// back as exactly one segment equal in effect to the original.
func TestSplitterSingleSegment(t *testing.T) {
	data := synthTrace(t, 1000)
	sp, err := NewSplitter(bytes.NewReader(data), SplitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Sequential() {
		t.Fatal("sequential flag lost")
	}
	seg, err := sp.Next()
	if err != nil {
		t.Fatal(err)
	}
	det := &countingDetector{trigger: -1}
	if err := Replay(bytes.NewReader(seg), det); err != nil {
		t.Fatal(err)
	}
	if det.events != 1000 {
		t.Fatalf("segment replay saw %d accesses, want 1000", det.events)
	}
	if _, err := sp.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("second Next = %v, want io.EOF", err)
	}
}

// TestSplitterAllocsPerSegment: a segment is assembled once, in the
// buffer its events were copied into verbatim, which was sized by the segment
// before it — so at the daemon's 256 KiB setting a further segment costs
// at most two allocations (the buffer, and one growth when it outruns
// its predecessor), where copying the events behind a separately built
// header cost the copy plus every doubling from nil. What a trace costs
// once (decoder, reader, the first buffer's growth) cancels out between
// a trace and one twice as long.
func TestSplitterAllocsPerSegment(t *testing.T) {
	measure := func(scopes int) (segs int, allocs float64) {
		data := scopedTrace(t, scopes)
		segs = drainSplitter(t, data, daemonSplit)
		return segs, testing.AllocsPerRun(5, func() { drainSplitter(t, data, daemonSplit) })
	}
	segs1, allocs1 := measure(100)
	segs2, allocs2 := measure(200)
	if segs2-segs1 < 8 {
		t.Fatalf("%d and %d segments; the traces are too short to say anything", segs1, segs2)
	}
	if perSeg := (allocs2 - allocs1) / float64(segs2-segs1); perSeg > 2 {
		t.Errorf("%.0f allocations for %d segments, %.0f for %d: %.2f per further segment, want <= 2",
			allocs1, segs1, allocs2, segs2, perSeg)
	}
}
