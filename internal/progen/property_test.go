package progen

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/dpst"
	"spd3/internal/espbags"
	"spd3/internal/fasttrack"
	"spd3/internal/graph"
	"spd3/internal/task"
	"spd3/internal/trace"
)

const (
	seqSeeds      = 400 // programs each oracle differential checks
	parallelSeeds = 80  // subset re-checked under parallel executors
)

// truth runs p under the oracle and returns whether any schedule races.
func truth(t *testing.T, p *Program) bool {
	t.Helper()
	o := graph.New()
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: o})
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(rt, p, nil); err != nil {
		t.Fatal(err)
	}
	return o.HasRace()
}

// verdict runs p on a runtime of cfg under det and returns whether it
// reported a race.
func verdict(t *testing.T, p *Program, det detect.Detector, sink *detect.Sink, cfg task.Config) bool {
	t.Helper()
	cfg.Detector = det
	rt, err := task.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(rt, p, nil); err != nil {
		t.Fatal(err)
	}
	return !sink.Empty()
}

// vsOracle runs seqSeeds programs generated under cfg on each executor in
// list, under the detector mk builds, wrapped for tracetest: each run's
// recording must pass Check, and the detector must report a race exactly
// when the oracle does. Without locks the oracle's verdict is every
// schedule's (truth); with them it is the observed run's, so the oracle
// replays that run's recording.
func vsOracle(t *testing.T, cfg Config, list []exec, mk func(*detect.Sink) detect.Detector) {
	for seed := int64(0); seed < seqSeeds; seed++ {
		p := Generate(seed, cfg)
		want := cfg.Locks == 0 && truth(t, p)
		for _, e := range list {
			sink := detect.NewSink(false, 0)
			rt, det := checked(t, e.cfg, mk(sink))
			if err := Run(rt, p, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := det.Check(); err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, e.name, err, p)
			}
			if cfg.Locks > 0 {
				o := graph.New()
				if err := trace.Replay(bytes.NewReader(det.Trace()), o); err != nil {
					t.Fatal(err)
				}
				want = o.HasRace()
			}
			if got := !sink.Empty(); got != want {
				t.Fatalf("seed %d %s: %s verdict %v, oracle %v\n%s", seed, e.name, det.Name(), got, want, p)
			}
		}
	}
}

// TestSPD3SoundAndPreciseVsOracle is the central property test for
// Theorems 2–4: over hundreds of random programs, SPD3's verdict under
// every executor equals the oracle's all-schedules ground truth — no
// false negatives, no false positives.
func TestSPD3SoundAndPreciseVsOracle(t *testing.T) {
	vsOracle(t, Config{}, execs, func(sink *detect.Sink) detect.Detector { return core.New(sink, nil) })
}

// TestSPD3ScheduleIndependence re-checks a subset of seeds under the
// work-stealing pool at four workers and at sixteen, more than the cores,
// so the Go scheduler preempts workers mid-task: by Theorems 2–3 the
// verdict must not depend on the schedule.
func TestSPD3ScheduleIndependence(t *testing.T) {
	for seed := int64(0); seed < parallelSeeds; seed++ {
		p := Generate(seed, Config{})
		want := truth(t, p)
		for _, e := range execs[2:] {
			for rep := 0; rep < 3; rep++ { // several schedules
				sink := detect.NewSink(false, 0)
				if got := verdict(t, p, core.New(sink, nil), sink, e.cfg); got != want {
					t.Fatalf("seed %d %s rep %d: spd3 verdict %v, oracle %v\n%s", seed, e.name, rep, got, want, p)
				}
			}
		}
	}
}

// TestESPBagsMatchesOracle validates the sequential baseline the same
// way, under the one executor it runs on.
func TestESPBagsMatchesOracle(t *testing.T) {
	vsOracle(t, Config{}, execs[:1], func(sink *detect.Sink) detect.Detector { return espbags.New(sink, nil) })
}

// TestFastTrackMatchesOracle: for pure async/finish programs the
// happens-before relation is schedule-independent, so FastTrack — precise
// for the observed trace — must also match the oracle.
func TestFastTrackMatchesOracle(t *testing.T) {
	vsOracle(t, Config{}, execs, func(sink *detect.Sink) detect.Detector { return fasttrack.New(sink, nil) })
}

// pathSig canonically names a DPST node by the child-sequence path from
// the root, e.g. "0f/2a/1s": stable across executions by the §3.2
// path-invariance property. rank holds each node's position among its
// siblings (the paper's seq_no), indexed by id.
func pathSig(tr *dpst.Tree, n uint32, rank []int32) string {
	var parts []string
	for ; ; n = tr.Parent(n) {
		var k byte
		switch tr.Kind(n) {
		case dpst.FinishNode:
			k = 'f'
		case dpst.AsyncNode:
			k = 'a'
		default:
			k = 's'
		}
		parts = append(parts, fmt.Sprintf("%d%c", rank[n], k))
		if n == 0 {
			break
		}
	}
	// reverse
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// siblingRanks numbers every node among its siblings, from 1, left to
// right (0 for the root), in one pass over the arena: a scope's children
// are created in program order, so counting them in id order recovers the
// rank whatever the schedule interleaved between them. An id a block
// handed out and no insertion placed (not dpst.Tree.Placed) has no rank.
func siblingRanks(tr *dpst.Tree) []int32 {
	rank := make([]int32, tr.Len())
	children := make([]int32, tr.Len())
	for id := uint32(1); int(id) < len(rank); id++ {
		if !tr.Placed(id) {
			continue
		}
		parent := tr.Parent(id)
		children[parent]++
		rank[id] = children[parent]
	}
	return rank
}

// signatures runs p under the given executor with SPD3 attached and
// returns site → DPST path of the step performing that access. The run
// records only the step nodes; the paths are derived afterwards, since
// ids, unlike ranks, depend on the schedule.
func signatures(t *testing.T, p *Program, cfg task.Config) map[int]string {
	t.Helper()
	d := core.New(detect.NewSink(false, 0), nil)
	cfg.Detector = d
	rt, err := task.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := make(map[int]uint32, p.Sites)
	var mu sync.Mutex
	hook := func(c *task.Ctx, site int, isWrite bool) {
		s := d.StepOf(c.Task())
		mu.Lock()
		steps[site] = s
		mu.Unlock()
	}
	if err := Run(rt, p, hook); err != nil {
		t.Fatal(err)
	}
	rank := siblingRanks(d.Tree())
	sigs := make(map[int]string, len(steps))
	for site, s := range steps {
		sigs[site] = pathSig(d.Tree(), s, rank)
	}
	return sigs
}

// TestDPSTDeterminism checks the §3.2 property: for a given input, every
// execution yields the same DPST — each access site lands on a step with
// an identical root path under sequential execution and the pool at four
// and at sixteen workers.
func TestDPSTDeterminism(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < parallelSeeds*2 && checked < parallelSeeds; seed++ {
		p := Generate(seed, Config{})
		ref := signatures(t, p, execs[0].cfg)
		for _, e := range execs[2:] {
			got := signatures(t, p, e.cfg)
			if len(got) != len(ref) {
				t.Fatalf("seed %d %s: %d sites, want %d", seed, e.name, len(got), len(ref))
			}
			for site, sig := range ref {
				if got[site] != sig {
					t.Fatalf("seed %d %s: site %d path %q, want %q\n%s", seed, e.name, site, got[site], sig, p)
				}
			}
		}
		checked++
	}
}

// TestFastTrackMatchesLockOracle: with locks in play, ground truth is the
// observed trace's happens-before (fork/join plus release→acquire edges
// in observed order); FastTrack is precise for exactly that relation, so
// on every executor the verdicts must coincide.
func TestFastTrackMatchesLockOracle(t *testing.T) {
	vsOracle(t, Config{Locks: 2}, execs, func(sink *detect.Sink) detect.Detector { return fasttrack.New(sink, nil) })
}

// TestLockCorpusHasLockSensitiveCases makes sure the lock corpus isn't
// vacuous: some programs must be race-free *because of* their locks
// (racy when lock edges are ignored).
func TestLockCorpusHasLockSensitiveCases(t *testing.T) {
	sensitive := 0
	for seed := int64(0); seed < seqSeeds && sensitive < 5; seed++ {
		p := Generate(seed, Config{Locks: 2})
		withLocks := graph.New()
		rt, _ := task.New(task.Config{Executor: task.Sequential, Detector: withLocks})
		if err := Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		if withLocks.HasRace() {
			continue
		}
		// Same program, locks invisible: SPD3 sees only fork/join.
		sink := detect.NewSink(false, 0)
		if verdict(t, p, core.New(sink, nil), sink, execs[0].cfg) {
			sensitive++
		}
	}
	if sensitive < 5 {
		t.Fatalf("only %d lock-sensitive programs in the corpus; widen the generator", sensitive)
	}
}

// TestProgramRendering: the pseudocode printer covers every node kind.
func TestProgramRendering(t *testing.T) {
	found := map[string]bool{}
	for seed := int64(0); seed < 50; seed++ {
		s := Generate(seed, Config{Locks: 1}).String()
		for _, kw := range []string{"async {", "finish {", "locked l", "v["} {
			if strings.Contains(s, kw) {
				found[kw] = true
			}
		}
	}
	for _, kw := range []string{"async {", "finish {", "locked l", "v["} {
		if !found[kw] {
			t.Errorf("no generated program rendered %q", kw)
		}
	}
}

// TestGeneratorDeterminism: same seed, same program.
func TestGeneratorDeterminism(t *testing.T) {
	a := Generate(42, Config{})
	b := Generate(42, Config{})
	if a.String() != b.String() {
		t.Fatal("generator is not deterministic")
	}
	if a.Sites == 0 {
		t.Fatal("seed 42 generated no accesses; widen the generator")
	}
}

// TestGeneratorShapes: the corpus must actually contain parallelism and
// both verdict classes, or the property tests above prove nothing.
func TestGeneratorShapes(t *testing.T) {
	var racy, quiet, withAsync int
	for seed := int64(0); seed < seqSeeds; seed++ {
		p := Generate(seed, Config{})
		a, _, acc := p.Stats()
		if a > 0 {
			withAsync++
		}
		if acc == 0 {
			continue
		}
		if truth(t, p) {
			racy++
		} else {
			quiet++
		}
	}
	t.Logf("corpus: %d racy, %d race-free, %d with asyncs", racy, quiet, withAsync)
	if racy < seqSeeds/10 || quiet < seqSeeds/10 {
		t.Fatalf("unbalanced corpus: %d racy vs %d race-free", racy, quiet)
	}
	if withAsync < seqSeeds*3/4 {
		t.Fatalf("only %d/%d programs spawn tasks", withAsync, seqSeeds)
	}
}
