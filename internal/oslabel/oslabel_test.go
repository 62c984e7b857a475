package oslabel

import (
	"testing"

	"spd3/internal/detect"
	"spd3/internal/graph"
	"spd3/internal/progen"
	"spd3/internal/task"
)

func run(t *testing.T, exec task.ExecKind, workers int,
	body func(c *task.Ctx, sh detect.Shadow)) []detect.Race {
	t.Helper()
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", 8, 8))
	if err := rt.Run(func(c *task.Ctx) { body(c, sh) }); err != nil {
		t.Fatal(err)
	}
	return sink.Races()
}

func TestOrderedPredicate(t *testing.T) {
	base := Label{1}
	c1 := Label{1, 1}
	c2 := Label{1, 2}
	post := Label{1 + span}
	if !ordered(base, c1) || !ordered(base, c2) {
		t.Error("prefix must be ordered")
	}
	if ordered(c1, c2) {
		t.Error("siblings must be parallel")
	}
	if !ordered(c1, post) || !ordered(c2, post) {
		t.Error("joined children must be ordered before the continuation")
	}
	if !ordered(post, Label{1 + 2*span}) {
		t.Error("successive joins must stay ordered")
	}
	if ordered(Label{1, 1, 1}, Label{1, 2}) {
		t.Error("descendants of siblings must be parallel")
	}
}

func TestStrictForkJoinVerdicts(t *testing.T) {
	// Parallel writes inside one fork: race.
	races := run(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
	})
	if len(races) != 1 || races[0].Kind != detect.WriteWrite {
		t.Fatalf("races = %v, want one write-write", races)
	}

	// Sequential forks: second fork ordered after the first.
	races = run(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
		sh.Write(c.Task(), 0)
	})
	if len(races) != 0 {
		t.Fatalf("sequential forks raced: %v", races)
	}

	// Read-shared fork then ordered write.
	races = run(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		sh.Write(c.Task(), 0)
		c.Finish(func(c *task.Ctx) {
			for i := 0; i < 6; i++ {
				c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
			}
		})
		sh.Write(c.Task(), 0)
	})
	if len(races) != 0 {
		t.Fatalf("read-shared fork raced: %v", races)
	}

	// Parallel readers then a parallel writer in the same fork.
	races = run(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			for i := 0; i < 6; i++ {
				c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
			}
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
	})
	if len(races) == 0 {
		t.Fatal("reader/writer fork produced no race")
	}
}

// TestStrictMatchesOracle cross-checks OS labeling against the precise
// oracle on strict random programs — the class it supports.
func TestStrictMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		p := progen.Generate(seed, progen.Config{Strict: true})
		o := graph.New()
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: o})
		if err != nil {
			t.Fatal(err)
		}
		if err := progen.Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		want := o.HasRace()

		sink := detect.NewSink(false, 0)
		d := New(sink, nil)
		rt, err = task.New(task.Config{Executor: task.Sequential, Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		if err := progen.Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		if got := !sink.Empty(); got != want {
			t.Fatalf("seed %d: oslabel verdict %v, oracle %v\n%s", seed, got, want, p)
		}
	}
}

// TestStrictParallelExecutorAgrees re-checks a subset under the pool.
func TestStrictParallelExecutorAgrees(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := progen.Generate(seed, progen.Config{Strict: true})
		o := graph.New()
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: o})
		if err != nil {
			t.Fatal(err)
		}
		if err := progen.Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		want := o.HasRace()

		sink := detect.NewSink(false, 0)
		rt, err = task.New(task.Config{Executor: task.Pool, Workers: 4, Detector: New(sink, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if err := progen.Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		if got := !sink.Empty(); got != want {
			t.Fatalf("seed %d: oslabel verdict %v, oracle %v\n%s", seed, got, want, p)
		}
	}
}

// TestFootprintGrowsWithLabels: labels cost words proportional to fork
// depth; the shadow stays constant per location.
func TestFootprintGrowsWithLabels(t *testing.T) {
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	sh := d.NewShadow(detect.Spec("a", 100, 8))
	// Paged shadow: nothing allocated until a location is touched.
	if f := d.Footprint().ShadowBytes; f != 0 {
		t.Fatalf("untouched shadow bytes = %d, want 0", f)
	}
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	var f detect.Footprint
	if err := rt.Run(func(c *task.Ctx) {
		sh.Write(c.Task(), 0)
		f = d.Footprint()
		c.FinishAsync(50, func(c *task.Ctx, i int) {})
	}); err != nil {
		t.Fatal(err)
	}
	after := d.Footprint()
	if after.ShadowBytes != f.ShadowBytes {
		t.Fatalf("shadow bytes moved with labels: %d then %d", f.ShadowBytes, after.ShadowBytes)
	}
	if after.TreeBytes <= f.TreeBytes {
		t.Fatalf("label bytes did not grow: %d", after.TreeBytes)
	}
}

// TestOrderedQuick: ordered() is symmetric-in-verdict for the MHP use
// (mhp(a,b) == mhp(b,a)) and reflexive labels are ordered.
func TestOrderedQuick(t *testing.T) {
	mk := func(raw []uint16, joins uint8) Label {
		if len(raw) == 0 {
			return Label{1}
		}
		l := make(Label, 0, len(raw))
		for _, v := range raw {
			l = append(l, uint64(v%8)+1)
		}
		l[len(l)-1] += uint64(joins%4) * span
		return l
	}
	for seed := 0; seed < 200; seed++ {
		a := mk([]uint16{uint16(seed), uint16(seed * 7)}, uint8(seed))
		b := mk([]uint16{uint16(seed * 3)}, uint8(seed/2))
		if mhp(a, b) != mhp(b, a) {
			t.Fatalf("mhp not symmetric for %v vs %v", a, b)
		}
		if mhp(a, a) {
			t.Fatalf("label parallel with itself: %v", a)
		}
	}
}

// TestPrefixLen covers the LCA-depth analogue.
func TestPrefixLen(t *testing.T) {
	if got := prefixLen(Label{1, 2, 3}, Label{1, 2, 4}); got != 2 {
		t.Fatalf("prefixLen = %d", got)
	}
	if got := prefixLen(Label{1}, Label{1, 2}); got != 1 {
		t.Fatalf("prefixLen = %d", got)
	}
	if got := prefixLen(Label{5}, Label{1}); got != 0 {
		t.Fatalf("prefixLen = %d", got)
	}
}

// TestEscapingAsyncLimitation pins the §7 claim: on general async/finish
// programs — here a task that outlives an inner finish — OS labeling
// loses precision, reporting a race on a race-free program (it treats
// the inner finish's join as ordering the escaped task too, and the
// later conflicting access as ordered, so the miss shows up inverted:
// it fails to keep verdicts consistent with the oracle). SPD3 handles
// the same program exactly.
func TestEscapingAsyncLimitation(t *testing.T) {
	// finish F1 {
	//   async A { write x }        // IEF = F1: escapes F2
	//   finish F2 { async { } }
	//   write x                    // races with A
	// }
	prog := func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
			c.Finish(func(c *task.Ctx) {
				c.Async(func(c *task.Ctx) {})
			})
			sh.Write(c.Task(), 0)
		})
	}
	races := run(t, task.Sequential, 1, prog)
	if len(races) != 0 {
		// If a future change makes OS labeling catch this, the §7
		// claim needs re-examination — fail loudly either way.
		t.Fatalf("oslabel unexpectedly reported %v; update the §7 limitation note", races)
	}
	// The program does race (the oracle and SPD3 agree); OS labeling
	// missed it because F2's join bumped the owner's offset into a
	// residue class that also "orders" the escaped async A.
}
