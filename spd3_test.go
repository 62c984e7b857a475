package spd3_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"spd3"
	"spd3/internal/progen"
)

// racy returns the options for a test whose program under test races by
// design: o as written — on the pool — except under -race, where Go's
// own detector would fail the test for the very race the engine is
// asserted to report. There the program runs depth-first; a verdict that
// covers every schedule of the input does not depend on the one that
// ran, so the assertions stand.
func racy(o spd3.Options) spd3.Options {
	if raceEnabled {
		o.Executor = spd3.Sequential
	}
	return o
}

func TestQuickstartRaceDetected(t *testing.T) {
	eng, err := spd3.New(racy(spd3.Options{Workers: 4, Detector: spd3.SPD3}))
	if err != nil {
		t.Fatal(err)
	}
	acc := spd3.NewArray[int](eng, "acc", 1)
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(8, func(c *spd3.Ctx, i int) {
			acc.Set(c, 0, i)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RaceFree() {
		t.Fatal("parallel writes not reported")
	}
	if rep.Races[0].Region != "acc" || rep.Races[0].Kind != spd3.WriteWrite {
		t.Fatalf("unexpected race %v", rep.Races[0])
	}
	if !strings.Contains(rep.Races[0].String(), "write-write race on acc[0]") {
		t.Fatalf("race string = %q", rep.Races[0].String())
	}
}

func TestRaceFreeCertified(t *testing.T) {
	for _, det := range []spd3.Detector{spd3.SPD3, spd3.ESPBags, spd3.FastTrack} {
		eng, err := spd3.New(spd3.Options{Workers: 4, Detector: det})
		if err != nil {
			t.Fatal(err)
		}
		a := spd3.NewArray[float64](eng, "a", 64)
		rep, err := eng.Run(func(c *spd3.Ctx) {
			c.ParallelFor(0, 64, 1, func(c *spd3.Ctx, i int) {
				a.Set(c, i, float64(i))
			})
			sum := 0.0
			for i := 0; i < 64; i++ {
				sum += a.Get(c, i)
			}
			a.Set(c, 0, sum)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.RaceFree() {
			t.Fatalf("%s: false positives: %v", det, rep.Races)
		}
		if rep.Duration <= 0 {
			t.Errorf("%s: missing duration", det)
		}
	}
}

func TestMatrixAndVar(t *testing.T) {
	eng, err := spd3.New(spd3.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := spd3.NewMatrix[int](eng, "m", 4, 4)
	v := spd3.NewVar(eng, "v", 7)
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(4, func(c *spd3.Ctx, i int) {
			for j := 0; j < 4; j++ {
				m.Set(c, i, j, i*4+j)
			}
		})
		total := 0
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				total += m.Get(c, i, j)
			}
		}
		v.Set(c, total+v.Get(c))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RaceFree() {
		t.Fatalf("races: %v", rep.Races)
	}
}

func TestMutexSatisfiesFastTrack(t *testing.T) {
	eng, err := spd3.New(spd3.Options{Workers: 4, Detector: spd3.FastTrack})
	if err != nil {
		t.Fatal(err)
	}
	v := spd3.NewVar(eng, "v", 0)
	mu := spd3.NewMutex(eng)
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(8, func(c *spd3.Ctx, i int) {
			mu.Lock(c)
			v.Set(c, v.Get(c)+1)
			mu.Unlock(c)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RaceFree() {
		t.Fatalf("locked counter flagged: %v", rep.Races)
	}
}

func TestHaltOnFirstRace(t *testing.T) {
	eng, err := spd3.New(spd3.Options{Detector: spd3.SPD3, HaltOnFirstRace: true})
	if err != nil {
		t.Fatal(err)
	}
	a := spd3.NewArray[int](eng, "a", 16)
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.Finish(func(c *spd3.Ctx) {
			for i := 0; i < 16; i++ {
				i := i
				c.Async(func(c *spd3.Ctx) { a.Set(c, i, 1) })
				c.Async(func(c *spd3.Ctx) { a.Set(c, i, 2) })
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 1 {
		t.Fatalf("halt mode recorded %d races, want 1", len(rep.Races))
	}
}

func TestESPBagsExecutorResolution(t *testing.T) {
	// Explicitly pairing ESPBags with a parallel executor is an error —
	// the engine no longer silently overrides the caller's choice.
	_, err := spd3.New(spd3.Options{Workers: 8, Executor: spd3.Pool, Detector: spd3.ESPBags})
	if err == nil {
		t.Fatal("ESPBags with explicit Pool executor accepted")
	}
	if !errors.Is(err, spd3.ErrExecutorMismatch) {
		t.Fatalf("error is not ErrExecutorMismatch: %v", err)
	}
	if !strings.Contains(err.Error(), "sequential") {
		t.Fatalf("error does not explain the executor requirement: %v", err)
	}

	// Leaving the executor at the default (Auto) resolves to Sequential
	// and the detector works.
	eng, err := spd3.New(spd3.Options{Workers: 8, Detector: spd3.ESPBags})
	if err != nil {
		t.Fatal(err)
	}
	a := spd3.NewArray[int](eng, "a", 2)
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(2, func(c *spd3.Ctx, i int) { a.Set(c, 0, i) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RaceFree() {
		t.Fatal("ESP-bags missed the write-write race")
	}
}

func TestBarrierFacade(t *testing.T) {
	// FastTrack certifies barrier-phased sharing; SPD3 reports it (its
	// model is async/finish only) — the §6.3 behaviour through the
	// public API.
	verdict := func(det spd3.Detector) bool {
		eng, err := spd3.New(spd3.Options{Workers: 4, Detector: det})
		if err != nil {
			t.Fatal(err)
		}
		slots := spd3.NewArray[int](eng, "slots", 4)
		bar := spd3.NewBarrier(eng, 4)
		rep, err := eng.Run(func(c *spd3.Ctx) {
			c.FinishAsync(4, func(c *spd3.Ctx, id int) {
				for p := 0; p < 3; p++ {
					slots.Set(c, id, p)
					bar.Await(c)
					total := 0
					for o := 0; o < 4; o++ {
						total += slots.Get(c, o)
					}
					bar.Await(c)
					_ = total
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.RaceFree()
	}
	if !verdict(spd3.FastTrack) {
		t.Error("FastTrack did not credit barrier ordering")
	}
	if verdict(spd3.SPD3) {
		t.Error("SPD3 credited barrier ordering it cannot model")
	}
}

// TestCaptureSites: the site is captured where the race is reported, so
// every detector's reports carry it, not only SPD3's.
func TestCaptureSites(t *testing.T) {
	for _, det := range spd3.Detectors() {
		if det == spd3.None {
			continue
		}
		eng, err := spd3.New(spd3.Options{Detector: det, Executor: spd3.Sequential,
			CaptureSites: true})
		if err != nil {
			t.Fatal(err)
		}
		a := spd3.NewArray[int](eng, "a", 1)
		rep, err := eng.Run(func(c *spd3.Ctx) {
			c.FinishAsync(2, func(c *spd3.Ctx, i int) {
				a.Set(c, 0, i) // the race completes here
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RaceFree() {
			t.Fatalf("%s: race not reported", det)
		}
		if !strings.Contains(rep.Races[0].CurStep, " at spd3_test.go:") {
			t.Fatalf("%s: race lacks source site: %v", det, rep.Races[0])
		}
	}
}

// TestBadSamplingRejected: an unparsable spec is ErrBadSampling — and so
// are "page", a mode that was removed, and a NaN rate or budget, which
// no range comparison catches by accident.
func TestBadSamplingRejected(t *testing.T) {
	for _, spec := range []string{"page:0.05", "coin:0.5", "bernoulli:2", "burst", "bernoulli:NaN"} {
		_, err := spd3.New(spd3.Options{Sampling: spd3.SamplingOptions{Spec: spec}})
		if !errors.Is(err, spd3.ErrBadSampling) {
			t.Errorf("Sampling.Spec %q: err = %v, want ErrBadSampling", spec, err)
		}
	}
	for _, budget := range []float64{-0.1, 1.5, math.NaN()} {
		_, err := spd3.New(spd3.Options{Sampling: spd3.SamplingOptions{Spec: "bernoulli:0.5", OverheadBudget: budget}})
		if !errors.Is(err, spd3.ErrBadSampling) {
			t.Errorf("Sampling.OverheadBudget %v: err = %v, want ErrBadSampling", budget, err)
		}
	}
	_, err := spd3.New(spd3.Options{Sampling: spd3.SamplingOptions{Spec: "page:0.05"}})
	if err == nil || !strings.Contains(err.Error(), "unknown mode") || !strings.Contains(err.Error(), "have bernoulli, burst, off") {
		t.Errorf("page spec: err = %v, want the unknown-mode error listing bernoulli, burst, off", err)
	}
}

// TestSamplingRate reads Engine.SamplingRate through the session's
// sampler: 0 when off, the configured rate without a budget, and below
// the configured rate after one check-dense Run under a 1% budget.
func TestSamplingRate(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		budget float64
		check  func(rate float64) bool
		want   string
	}{
		{"off", 0, func(r float64) bool { return r == 0 }, "0"},
		{"bernoulli:0.5", 0, func(r float64) bool { return r == 0.5 }, "0.5"},
		{"bernoulli:1", 0.01, func(r float64) bool { return r < 1 }, "below 1"},
	} {
		eng, err := spd3.New(spd3.Options{Workers: 2, Sampling: spd3.SamplingOptions{Spec: tc.spec, OverheadBudget: tc.budget}})
		if err != nil {
			t.Fatal(err)
		}
		a := spd3.NewArray[int](eng, "a", 1<<12)
		if _, err := eng.Run(func(c *spd3.Ctx) {
			c.ParallelFor(0, a.Len(), 64, func(c *spd3.Ctx, i int) {
				for k := 0; k < 8; k++ {
					a.Set(c, i, a.Get(c, i)+k)
				}
			})
		}); err != nil {
			t.Fatal(err)
		}
		if got := eng.SamplingRate(); !tc.check(got) {
			t.Errorf("%s at budget %v: SamplingRate = %v after a Run, want %s", tc.spec, tc.budget, got, tc.want)
		}
	}
}

func TestUnknownDetectorRejected(t *testing.T) {
	_, err := spd3.New(spd3.Options{Detector: "quantum"})
	if err == nil {
		t.Fatal("unknown detector accepted")
	}
	if !errors.Is(err, spd3.ErrUnknownDetector) {
		t.Fatalf("error is not ErrUnknownDetector: %v", err)
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	_, err := spd3.New(spd3.Options{Workers: -1})
	if err == nil {
		t.Fatal("negative worker count accepted")
	}
	if !errors.Is(err, spd3.ErrBadWorkers) {
		t.Fatalf("error is not ErrBadWorkers: %v", err)
	}
}

func TestDetectorsList(t *testing.T) {
	ds := spd3.Detectors()
	if len(ds) != 5 {
		t.Fatalf("Detectors() = %v", ds)
	}
	for _, d := range ds {
		if d == spd3.ESPBags {
			return
		}
	}
	t.Fatal("ESPBags missing from Detectors()")
}

func TestFootprintReported(t *testing.T) {
	eng, err := spd3.New(spd3.Options{Detector: spd3.SPD3})
	if err != nil {
		t.Fatal(err)
	}
	a := spd3.NewArray[int](eng, "a", 1000)
	// Shadow memory is paged in lazily, so touch an element to
	// materialize a page.
	rep, err := eng.Run(func(c *spd3.Ctx) { a.Set(c, 0, 1) })
	if err != nil {
		t.Fatal(err)
	}
	fp := rep.Stats.Footprint
	if fp.ShadowBytes == 0 {
		t.Fatal("footprint not reported")
	}
	if fp.Total() < fp.ShadowBytes {
		t.Fatal("Total below ShadowBytes")
	}
}

func TestEngineReusable(t *testing.T) {
	eng, err := spd3.New(spd3.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := spd3.NewArray[int](eng, "a", 8)
	for round := 0; round < 3; round++ {
		rep, err := eng.Run(func(c *spd3.Ctx) {
			c.FinishAsync(8, func(c *spd3.Ctx, i int) { a.Update(c, i, func(v int) int { return v + 1 }) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.RaceFree() {
			t.Fatalf("round %d: %v", round, rep.Races)
		}
	}
	for i, v := range a.Unchecked() {
		if v != 3 {
			t.Fatalf("a[%d] = %d, want 3", i, v)
		}
	}
}

// TestEngineScopeInsideRunPanics: a constructor given the *Engine while
// its Run is in progress would drop the creation writes, so it panics
// and names the *Ctx form; unrecovered, the panic is Run's error. After
// Run returns, the engine allocates normally again and stays reusable.
func TestEngineScopeInsideRunPanics(t *testing.T) {
	eng, err := spd3.New(spd3.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const ctxForm = "spd3.NewArray[T](c, name, n)"
	ctors := map[string]func(){
		"NewArray":  func() { spd3.NewArray[int](eng, "a", 4) },
		"NewMatrix": func() { spd3.NewMatrix[int](eng, "m", 2, 2) },
		"NewVar":    func() { spd3.NewVar(eng, "v", 0) },
		"NewList":   func() { spd3.NewList[int](eng, "l") },
		"NewMap":    func() { spd3.NewMap[int, int](eng, "mp") },
		"NewMutex":  func() { spd3.NewMutex(eng) },
	}
	for name, ctor := range ctors {
		var msg string
		if _, err := eng.Run(func(c *spd3.Ctx) {
			defer func() { msg = fmt.Sprint(recover()) }()
			ctor()
		}); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(msg, ctxForm) {
			t.Errorf("%s(eng) inside Run: panic %q, want one naming %s", name, msg, ctxForm)
		}
	}
	_, err = eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(2, func(c *spd3.Ctx, i int) { spd3.NewVar(eng, "v", i) })
	})
	if err == nil || !strings.Contains(err.Error(), ctxForm) {
		t.Fatalf("Run error = %v, want the panic naming %s", err, ctxForm)
	}

	a := spd3.NewArray[int](eng, "after", 4)
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(4, func(c *spd3.Ctx, i int) { a.Set(c, i, i) })
	})
	if err != nil || !rep.RaceFree() {
		t.Fatalf("Run after the failed ones: err %v, races %v", err, rep.Races)
	}
}

func TestSequentialExecutorOption(t *testing.T) {
	eng, err := spd3.New(spd3.Options{Executor: spd3.Sequential, Detector: spd3.SPD3})
	if err != nil {
		t.Fatal(err)
	}
	order := spd3.NewArray[int](eng, "order", 4)
	// pos is deliberately uninstrumented plain state: safe only because
	// the sequential executor runs asyncs inline, which is exactly what
	// this test asserts.
	pos := 0
	if _, err := eng.Run(func(c *spd3.Ctx) {
		c.Finish(func(c *spd3.Ctx) {
			for i := 0; i < 4; i++ {
				i := i
				c.Async(func(c *spd3.Ctx) {
					order.Set(c, pos, i)
					pos++
				})
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order.Unchecked() {
		if v != i {
			t.Fatalf("sequential executor ran out of order: %v", order.Unchecked())
		}
	}
}

// TestSequentialEngineMatchesPool: an engine on the sequential executor
// opens its SPD3 owned by Run's goroutine, publishing shadow words with
// plain stores. Over the progen corpus it reports what a pool engine
// does: per program the same racy locations, and over the corpus the same
// digest of them. (Which access of a racing pair comes second, and with
// it a race's kind, is the schedule's; where races are is not.)
func TestSequentialEngineMatchesPool(t *testing.T) {
	digest := func(exec spd3.Executor) (string, [][]string) {
		h := sha256.New()
		var all [][]string
		for seed := int64(0); seed < 150; seed++ {
			var (
				mu   sync.Mutex // the pool's workers report concurrently
				locs []string
			)
			eng, err := spd3.New(spd3.Options{Executor: exec, Workers: 4, OnRace: func(r spd3.Race) bool {
				mu.Lock()
				defer mu.Unlock()
				locs = append(locs, fmt.Sprintf("%s[%d]", r.Region, r.Index))
				return false
			}})
			if err != nil {
				t.Fatal(err)
			}
			rt, _ := eng.Scope()
			if err := progen.Run(rt, progen.Generate(seed, progen.Config{Locks: 1}), nil); err != nil {
				t.Fatal(err)
			}
			sort.Strings(locs)
			locs = slices.Compact(locs)
			fmt.Fprintf(h, "seed %d: %v\n", seed, locs)
			all = append(all, locs)
		}
		return hex.EncodeToString(h.Sum(nil)), all
	}
	seq, seqLocs := digest(spd3.Sequential)
	pool, poolLocs := digest(spd3.Pool)
	for seed := range seqLocs {
		if !slices.Equal(seqLocs[seed], poolLocs[seed]) {
			t.Errorf("seed %d: sequential engine reports races at %v, pool engine at %v", seed, seqLocs[seed], poolLocs[seed])
		}
	}
	if seq != pool {
		t.Errorf("race digest: sequential %s, pool %s", seq, pool)
	}
}

func TestListGrowsAndDetects(t *testing.T) {
	// Sequential appends then parallel reads are race-free; the list's
	// shadow region grows with it (no declared length).
	eng, err := spd3.New(spd3.Options{Workers: 4, Detector: spd3.SPD3})
	if err != nil {
		t.Fatal(err)
	}
	l := spd3.NewList[int](eng, "list")
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.Finish(func(c *spd3.Ctx) {
			for i := 0; i < 10000; i++ {
				l.Append(c, i*i)
			}
		})
		c.ParallelFor(0, 10000, 1, func(c *spd3.Ctx, i int) {
			if got := l.Get(c, i); got != i*i {
				t.Errorf("l[%d] = %d", i, got)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RaceFree() {
		t.Fatalf("ordered append/read flagged: %v", rep.Races)
	}
	if l.UncheckedAt(9999) == nil || *l.UncheckedAt(9999) != 9999*9999 {
		t.Fatal("UncheckedAt broken")
	}

	// Unsynchronized parallel appends race on the list's length cell.
	eng2, err := spd3.New(racy(spd3.Options{Workers: 4, Detector: spd3.SPD3}))
	if err != nil {
		t.Fatal(err)
	}
	l2 := spd3.NewList[int](eng2, "list2")
	rep2, err := eng2.Run(func(c *spd3.Ctx) {
		c.FinishAsync(4, func(c *spd3.Ctx, i int) { l2.Append(c, i) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RaceFree() {
		t.Fatal("parallel appends not reported as a race")
	}
}
