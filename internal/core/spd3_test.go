package core

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"spd3/internal/detect"
	"spd3/internal/dpst"
	"spd3/internal/graph"
	"spd3/internal/progen"
	"spd3/internal/stats"
	"spd3/internal/task"
	"spd3/internal/trace"
)

// newRT builds a runtime with a fresh SPD3 detector.
func newRT(t *testing.T, exec task.ExecKind, workers int, halt bool) (*task.Runtime, *Detector, *detect.Sink) {
	t.Helper()
	sink := detect.NewSink(halt, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	return rt, d, sink
}

// TestDPSTConstructionFigure1 runs the Figure 1 program on the runtime and
// checks that the detector builds exactly the paper's tree (plus the
// continuation steps the figure elides because nothing follows them).
func TestDPSTConstructionFigure1(t *testing.T) {
	rt, d, _ := newRT(t, task.Sequential, 1, false)
	var step1, step2, step3, step4, step5, step6 uint32
	err := rt.Run(func(c *task.Ctx) {
		step1 = d.StepOf(c.Task())  // S1; S2
		c.Async(func(c *task.Ctx) { // A1
			step2 = d.StepOf(c.Task())  // S3; S4; S5
			c.Async(func(c *task.Ctx) { // A2
				step3 = d.StepOf(c.Task()) // S6
			})
			step4 = d.StepOf(c.Task()) // S7; S8
		})
		step5 = d.StepOf(c.Task())  // S9; S10; S11
		c.Async(func(c *task.Ctx) { // A3
			step6 = d.StepOf(c.Task()) // S12; S13
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	tr := d.Tree()
	// The run's implicit finish (the paper's F1) is a finish node
	// directly under the tree root.
	root := tr.Parent(step1)
	if tr.Kind(root) != dpst.FinishNode || tr.Depth(root) != 1 {
		t.Fatalf("run finish = %s (depth %d), want finish under root", tr.Name(root), tr.Depth(root))
	}
	// Parent structure: step1 under F1; step2 under A1 under F1;
	// step3 under A2 under A1; step4 under A1; step5 under F1;
	// step6 under A3 under F1.
	a1 := tr.Parent(step2)
	a2 := tr.Parent(step3)
	a3 := tr.Parent(step6)
	if tr.Parent(step1) != root || tr.Parent(step5) != root {
		t.Error("step1/step5 must hang off the root finish")
	}
	if tr.Kind(a1) != dpst.AsyncNode || tr.Parent(a1) != root {
		t.Errorf("A1 = %s (parent %d), want async under root", tr.Name(a1), tr.Parent(a1))
	}
	if tr.Kind(a2) != dpst.AsyncNode || tr.Parent(a2) != a1 {
		t.Errorf("A2 = %s (parent %d), want async under A1", tr.Name(a2), tr.Parent(a2))
	}
	if tr.Parent(step4) != a1 {
		t.Errorf("step4 parent = %d, want A1", tr.Parent(step4))
	}
	if tr.Kind(a3) != dpst.AsyncNode || tr.Parent(a3) != root {
		t.Errorf("A3 = %s (parent %d), want async under root", tr.Name(a3), tr.Parent(a3))
	}
	// Sibling order under the root: step1 < A1 < step5 < A3.
	if !(step1 < a1 && a1 < step5 && step5 < a3) {
		t.Errorf("root sibling order: step1=%d A1=%d step5=%d A3=%d",
			step1, a1, step5, a3)
	}
	// DMHP (Theorem 1) on the §3.2 worked examples and more pairs
	// implied by the program.
	for _, c := range []struct {
		a, b uint32
		want bool
		why  string
	}{
		{step2, step5, true, "A1 is async"},
		{step6, step5, false, "step5 precedes A3"},
		{step3, step4, true, "A2 vs A1 continuation"},
		{step1, step2, false, "spawn order"},
		{step3, step6, true, "A2 subtree vs A3"},
	} {
		if got, _ := tr.DMHP(c.a, c.b); got != c.want {
			t.Errorf("DMHP(%s, %s) = %v, want %v (%s)", tr.Name(c.a), tr.Name(c.b), got, c.want, c.why)
		}
	}
}

// TestDPSTNodeCount checks the §5.3 size formula 3*(a+f)-1 on a program
// where every async and finish has a following continuation, which is how
// the runtime always builds the tree.
func TestDPSTNodeCount(t *testing.T) {
	rt, d, _ := newRT(t, task.Sequential, 1, false)
	const asyncs = 7
	err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			for i := 0; i < asyncs; i++ {
				c.Async(func(c *task.Ctx) {})
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// a = 7 asyncs, f = 2 finishes (implicit + explicit); the implicit
	// finish has no trailing continuation, hence the formula's -1.
	// Our tree adds one extra node: the super-root that orders
	// consecutive runs of a reused detector.
	want := int64(3*(asyncs+2)-1) + 1
	if got := d.Tree().Len(); got != want {
		t.Errorf("DPST has %d nodes, want %d", got, want)
	}
}

// shadowProgram runs body with a 8-element shadow region and returns the
// recorded races. Racy test programs drive the shadow directly (no real
// data is touched) so that `go test -race` stays quiet.
func shadowProgram(t *testing.T, exec task.ExecKind, workers int,
	body func(c *task.Ctx, sh detect.Shadow)) []detect.Race {
	t.Helper()
	rt, d, sink := newRT(t, exec, workers, false)
	sh := d.NewShadow(detect.Spec("x", 8, 8))
	if err := rt.Run(func(c *task.Ctx) { body(c, sh) }); err != nil {
		t.Fatal(err)
	}
	return sink.Races()
}

func TestWriteWriteRace(t *testing.T) {
	races := shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
	})
	if len(races) != 1 || races[0].Kind != detect.WriteWrite {
		t.Errorf("races = %v, want one write-write", races)
	}
}

func TestWriteReadRace(t *testing.T) {
	races := shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 3) })
			sh.Read(c.Task(), 3) // continuation reads in parallel with the async write
		})
	})
	if len(races) != 1 || races[0].Kind != detect.WriteRead || races[0].Index != 3 {
		t.Errorf("races = %v, want one write-read at index 3", races)
	}
}

func TestReadWriteRace(t *testing.T) {
	races := shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
	})
	if len(races) != 1 || races[0].Kind != detect.ReadWrite {
		t.Errorf("races = %v, want one read-write", races)
	}
}

func TestNoRaceOrderedBySpawn(t *testing.T) {
	races := shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		sh.Write(c.Task(), 0) // before the spawn: ordered with the async
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				sh.Read(c.Task(), 0)
				sh.Write(c.Task(), 0)
			})
		})
		sh.Read(c.Task(), 0) // after the finish: ordered
		sh.Write(c.Task(), 0)
	})
	if len(races) != 0 {
		t.Errorf("races = %v, want none", races)
	}
}

func TestNoRaceSameStep(t *testing.T) {
	races := shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		sh.Read(c.Task(), 0)
		sh.Write(c.Task(), 0)
		sh.Read(c.Task(), 0)
		sh.Write(c.Task(), 0)
	})
	if len(races) != 0 {
		t.Errorf("races = %v, want none", races)
	}
}

// TestParallelReadsNoRace is the read-shared pattern that motivates the
// two-reader design: many parallel readers, then an ordered write.
func TestParallelReadsNoRace(t *testing.T) {
	races := shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			for i := 0; i < 10; i++ {
				c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
			}
		})
		sh.Write(c.Task(), 0) // ordered after all reads by the finish
	})
	if len(races) != 0 {
		t.Errorf("races = %v, want none", races)
	}
}

// TestManyParallelReadersThenParallelWrite checks that discarding readers
// beyond two loses no races: ten parallel readers, then a write parallel
// with all of them must still be reported.
func TestManyParallelReadersThenParallelWrite(t *testing.T) {
	races := shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			for i := 0; i < 10; i++ {
				c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
			}
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
	})
	if len(races) == 0 {
		t.Errorf("no race reported, want read-write")
	}
	for _, r := range races {
		if r.Kind != detect.ReadWrite {
			t.Errorf("unexpected race kind %v", r.Kind)
		}
	}
}

// TestReaderReplacementLCA exercises Algorithm 2's LCA branch: two readers
// under an inner finish are later joined by a reader with a higher LCA,
// which must replace r1; a subsequent parallel write must be caught.
func TestReaderReplacementLCA(t *testing.T) {
	races := shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				c.Finish(func(c *task.Ctx) {
					c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) }) // r1
					c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) }) // r2
				})
			})
			c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })  // S: LCA(r1,S) is higher
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) }) // parallel with all
		})
	})
	if len(races) == 0 {
		t.Errorf("no race reported after reader replacement")
	}
}

// TestDiscardSafety checks the supersede branch: a read ordered after all
// recorded readers replaces them, and a write parallel with the new reader
// is still caught through it.
func TestDiscardSafety(t *testing.T) {
	races := shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
			c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
		})
		sh.Read(c.Task(), 0) // ordered after both: supersedes
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) }) // parallel with the last read? no — ordered
		})
	})
	// The async write is inside a finish that starts after the last
	// read, so it is ordered after it: no race.
	if len(races) != 0 {
		t.Errorf("races = %v, want none", races)
	}

	races = shadowProgram(t, task.Sequential, 1, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
		})
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) }) // supersedes inside finish? no: parallel with nothing prior
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
	})
	if len(races) == 0 {
		t.Errorf("missed read-write race after supersede")
	}
}

// TestRacyProgramDetectedUnderEveryExecutor: Theorem 2's contrapositive —
// if an input has a racy schedule, every monitored execution reports a
// race, regardless of executor and scheduling.
func TestRacyProgramDetectedUnderEveryExecutor(t *testing.T) {
	execs := []struct {
		kind    task.ExecKind
		workers int
	}{
		{task.Sequential, 1},
		{task.Pool, 1},
		{task.Pool, 4},
		{task.Pool, 16},
	}
	for _, e := range execs {
		races := shadowProgram(t, e.kind, e.workers, func(c *task.Ctx, sh detect.Shadow) {
			c.Finish(func(c *task.Ctx) {
				for i := 0; i < 16; i++ {
					c.Async(func(c *task.Ctx) {
						sh.Read(c.Task(), 1)
						sh.Write(c.Task(), 0)
					})
				}
			})
		})
		if len(races) == 0 {
			t.Errorf("%v/%d workers: racy program produced no report", e.kind, e.workers)
		}
	}
}

// TestRaceFreeUnderParallelExecutors: a data-race-free program must stay
// quiet under heavy parallel execution (no false positives from the
// versioned-snapshot protocol).
func TestRaceFreeUnderParallelExecutors(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		races := shadowProgram(t, task.Pool, workers, func(c *task.Ctx, sh detect.Shadow) {
			for round := 0; round < 20; round++ {
				// Disjoint writes, then shared reads: classic
				// race-free phase structure.
				c.Finish(func(c *task.Ctx) {
					for i := 0; i < 8; i++ {
						i := i
						c.Async(func(c *task.Ctx) { sh.Write(c.Task(), i) })
					}
				})
				c.Finish(func(c *task.Ctx) {
					for i := 0; i < 8; i++ {
						c.Async(func(c *task.Ctx) {
							for j := 0; j < 8; j++ {
								sh.Read(c.Task(), j)
							}
						})
					}
				})
			}
		})
		if len(races) != 0 {
			t.Errorf("%d workers: false positives: %v", workers, races)
		}
	}
}

// TestHaltMode checks that halt-on-first-race stops further reporting.
func TestHaltMode(t *testing.T) {
	sink := detect.NewSink(true, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", 4, 8))
	err = rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			for i := 0; i < 4; i++ {
				i := i
				c.Async(func(c *task.Ctx) { sh.Write(c.Task(), i) })
				c.Async(func(c *task.Ctx) { sh.Write(c.Task(), i) })
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Stopped() {
		t.Fatal("halt-mode sink not stopped after race")
	}
	if n := len(sink.Races()); n != 1 {
		t.Fatalf("halt mode recorded %d races, want exactly 1", n)
	}
}

// TestVerdictsAgreeAcrossModes runs a battery of small programs under
// every execution mode and demands the same, known verdict from each.
func TestVerdictsAgreeAcrossModes(t *testing.T) {
	programs := []struct {
		name string
		racy bool
		body func(c *task.Ctx, sh detect.Shadow)
	}{
		{"disjoint", false, func(c *task.Ctx, sh detect.Shadow) {
			c.FinishAsync(8, func(c *task.Ctx, i int) { sh.Write(c.Task(), i) })
		}},
		{"sharedRead", false, func(c *task.Ctx, sh detect.Shadow) {
			sh.Write(c.Task(), 0)
			c.FinishAsync(8, func(c *task.Ctx, i int) { sh.Read(c.Task(), 0) })
			sh.Write(c.Task(), 0)
		}},
		{"ww", true, func(c *task.Ctx, sh detect.Shadow) {
			c.FinishAsync(2, func(c *task.Ctx, i int) { sh.Write(c.Task(), 0) })
		}},
		{"rw", true, func(c *task.Ctx, sh detect.Shadow) {
			c.Finish(func(c *task.Ctx) {
				c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
				c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
			})
		}},
	}
	for _, e := range []struct {
		kind    task.ExecKind
		workers int
	}{{task.Sequential, 1}, {task.Pool, 4}, {task.Pool, 16}} {
		for _, p := range programs {
			races := shadowProgram(t, e.kind, e.workers, p.body)
			if got := len(races) > 0; got != p.racy {
				t.Errorf("%v-%d/%s: racy = %v, want %v (%v)", e.kind, e.workers, p.name, got, p.racy, races)
			}
		}
	}
}

// TestConsecutiveRunsAreOrdered: when one detector (and its shadows) is
// reused across several Runs, accesses of a later run must be treated as
// happening after everything an earlier run joined — even accesses made
// by asyncs hanging directly off the implicit finish.
func TestConsecutiveRunsAreOrdered(t *testing.T) {
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	if err := rt.Run(func(c *task.Ctx) {
		c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(c *task.Ctx) {
		sh.Read(c.Task(), 0)
		sh.Write(c.Task(), 0)
		c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
	}); err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 0 {
		t.Fatalf("cross-run false positives: %v", races)
	}
}

func TestFootprintConstantPerLocation(t *testing.T) {
	rt, d, _ := newRT(t, task.Sequential, 1, false)
	sh1 := d.NewShadow(detect.Spec("a", 1000, 8))
	sh2 := d.NewShadow(detect.Spec("b", 1000, 8))
	// Paged shadow: declaring regions allocates nothing.
	if f := d.Footprint().ShadowBytes; f != 0 {
		t.Errorf("untouched shadow bytes = %d, want 0", f)
	}
	var f1 int64
	err := rt.Run(func(c *task.Ctx) {
		sh1.Write(c.Task(), 0)
		f1 = d.Footprint().ShadowBytes
		sh2.Write(c.Task(), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	f2 := d.Footprint().ShadowBytes
	if f2-f1 != f1 {
		t.Errorf("shadow bytes not linear in touched regions: %d then %d", f1, f2)
	}
}

// TestTreeShapePinned: SPD3 keeps no per-task or per-finish state beside
// the task's current step — the insertion scope is read off the tree — so
// what has to hold is that the tree comes out as it did when the scopes
// were stored. For progen seeds 1..50, live under the sequential executor
// and again through record → replay, the hash of every node's (parent id,
// kind) in id order and the node count equal the values recorded at
// 30071af, the last commit with a stored scope.
func TestTreeShapePinned(t *testing.T) {
	const (
		wantHash  = 0x22b46b747b2bc236
		wantNodes = 21201
	)
	live, replayed := fnv.New64a(), fnv.New64a()
	var liveNodes, replayedNodes int64
	fold := func(h hash.Hash64, tree *dpst.Tree) int64 {
		var b [5]byte
		for id := int64(1); id < tree.Len(); id++ {
			binary.LittleEndian.PutUint32(b[:], tree.Parent(uint32(id)))
			b[4] = byte(tree.Kind(uint32(id)))
			h.Write(b[:])
		}
		return tree.Len()
	}
	for seed := int64(1); seed <= 50; seed++ {
		p := progen.Generate(seed, progen.Config{MaxStmts: 120, Loops: true})
		d := New(detect.NewSink(false, 0), nil)
		var buf bytes.Buffer
		rec := trace.NewRecorder(&buf, true)
		for _, det := range []detect.Detector{d, rec} {
			rt, err := task.New(task.Config{Executor: task.Sequential, Detector: det})
			if err != nil {
				t.Fatal(err)
			}
			if err := progen.Run(rt, p, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		liveNodes += fold(live, d.Tree())
		r := New(detect.NewSink(false, 0), nil)
		if err := trace.Replay(&buf, r); err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		replayedNodes += fold(replayed, r.Tree())
	}
	if live.Sum64() != wantHash || liveNodes != wantNodes {
		t.Errorf("live trees: hash %#x over %d nodes, want %#x over %d", live.Sum64(), liveNodes, uint64(wantHash), wantNodes)
	}
	if replayed.Sum64() != wantHash || replayedNodes != wantNodes {
		t.Errorf("replayed trees: hash %#x over %d nodes, want %#x over %d", replayed.Sum64(), replayedNodes, uint64(wantHash), wantNodes)
	}
}

// TestDMHPQueriesPerAccess pins what dmhp.walk counts: the walks
// Algorithms 1 and 2 make, one per distinct (recorded step, accessing
// step) pair the relation memo does not hold, for a recorded step at or
// above the watermark other than the accessing step itself — at most three
// a memory action: a read parallel with both recorded readers takes
// LCA(r1, r2)'s side of it from the two walks it already made, and an
// update's write half finds the answers its read half memoised. A step
// that meets the same recorded step of its own phase 100 times walks once;
// one from a closed top-level finish or an earlier run costs nothing, the
// watermark answering before the memo is asked — unless an async under
// the implicit finish keeps the watermark at the run node.
func TestDMHPQueriesPerAccess(t *testing.T) {
	rt, d, sink := newRT(t, task.Sequential, 1, false)
	sh := d.NewShadow(detect.Spec("x", 128, 8))
	// walks runs f in c's task and returns the walks it made.
	walks := func(c *task.Ctx, f func(tk *detect.Task)) int64 {
		tk := c.Task()
		before := tk.L.Tally[stats.DMHPWalk]
		f(tk)
		return tk.L.Tally[stats.DMHPWalk] - before
	}
	expect := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d DMHP walks, want %d", what, got, want)
		}
	}
	sweep := func(op func(tk *detect.Task, i int)) func(tk *detect.Task) {
		return func(tk *detect.Task) {
			for i := 0; i < 100; i++ {
				op(tk, i)
			}
		}
	}
	err := rt.Run(func(c *task.Ctx) {
		expect("first write of 100 untouched words", walks(c, sweep(sh.Write)), 0)
		expect("same-step re-write, read and re-read", walks(c, func(tk *detect.Task) {
			sh.Write(tk, 110)
			sh.Write(tk, 110)
			sh.Read(tk, 110)
			sh.Read(tk, 110)
		}), 0)
		expect("read of an untouched word", walks(c, func(tk *detect.Task) { sh.Read(tk, 111) }), 0)
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				expect("100 reads of one ordered writer's cells", walks(c, sweep(sh.Read)), 1)
			})
		})
		// w, r1 and r2 of word 120 become three distinct, mutually
		// parallel steps; the races this reports are beside the point.
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 120) })
			c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 120) })
			c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 120) })
			c.Async(func(c *task.Ctx) {
				expect("read against parallel w, r1, r2", walks(c, func(tk *detect.Task) { sh.Read(tk, 120) }), 3)
			})
			c.Async(func(c *task.Ctx) {
				expect("write against parallel w, r1, r2", walks(c, func(tk *detect.Task) { sh.Write(tk, 120) }), 3)
			})
			c.Async(func(c *task.Ctx) {
				expect("update against parallel w, r1, r2", walks(c, func(tk *detect.Task) { detect.Update(sh, tk, 120) }), 3)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.Races()) == 0 {
		t.Error("word 120's accesses were meant to be parallel, but no race was reported")
	}

	// Cells written inside one top-level finish, read from an async inside
	// the next; with escape, an async spawned directly under the implicit
	// finish comes first.
	phases := func(escape bool) (got int64) {
		rt, d, sink := newRT(t, task.Sequential, 1, false)
		sh := d.NewShadow(detect.Spec("x", 128, 8))
		if err := rt.Run(func(c *task.Ctx) {
			if escape {
				c.Async(func(c *task.Ctx) {})
			}
			c.Finish(func(c *task.Ctx) {
				c.Async(func(c *task.Ctx) { sweep(sh.Write)(c.Task()) })
			})
			c.Finish(func(c *task.Ctx) {
				c.Async(func(c *task.Ctx) { got = walks(c, sweep(sh.Read)) })
			})
		}); err != nil {
			t.Fatal(err)
		}
		if !sink.Empty() {
			t.Errorf("escape=%v: races %v, want none", escape, sink.Races())
		}
		return got
	}
	expect("100 reads of cells written inside a closed top-level finish", phases(false), 0)
	expect("the same behind an async under the implicit finish", phases(true), 1)

	// A second run meets what the first one recorded, here from an async
	// that kept the first run's watermark at its run node.
	rt, d, sink = newRT(t, task.Sequential, 1, false)
	sh = d.NewShadow(detect.Spec("x", 128, 8))
	if err := rt.Run(func(c *task.Ctx) {
		c.Async(func(c *task.Ctx) { sweep(sh.Write)(c.Task()) })
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(c *task.Ctx) {
		expect("100 reads of cells an earlier run wrote", walks(c, sweep(sh.Read)), 0)
	}); err != nil {
		t.Fatal(err)
	}
	if !sink.Empty() {
		t.Errorf("second run: races %v, want none", sink.Races())
	}
}

// TestWideFinishMatchesOracle is the one detector-level test with
// sibling indices past 16 383: 16 400 asyncs under one finish, each adding
// two children (the async node and the parent's continuation step). A
// write-write race seeded between the last two siblings, and a race-free
// twin in which the late siblings only share reads, must both get the
// computation-graph oracle's verdict, with the DMHP counters showing the
// queries ran.
func TestWideFinishMatchesOracle(t *testing.T) {
	const asyncs = 16400
	program := func(racy bool) func(c *task.Ctx, sh detect.Shadow) {
		return func(c *task.Ctx, sh detect.Shadow) {
			sh.Write(c.Task(), 0)
			c.Finish(func(c *task.Ctx) {
				for i := 0; i < asyncs; i++ {
					i := i
					c.Async(func(c *task.Ctx) {
						sh.Write(c.Task(), 1+i)
						if i >= asyncs-8 {
							sh.Read(c.Task(), 0)
						}
						if racy && i == asyncs-1 {
							sh.Write(c.Task(), i) // the previous sibling's cell
						}
					})
				}
			})
			sh.Write(c.Task(), 0)
		}
	}
	for _, racy := range []bool{false, true} {
		oracle := graph.New()
		ort, err := task.New(task.Config{Executor: task.Sequential, Detector: oracle})
		if err != nil {
			t.Fatal(err)
		}
		osh := oracle.NewShadow(detect.Spec("x", asyncs+1, 8))
		if err := ort.Run(func(c *task.Ctx) { program(racy)(c, osh) }); err != nil {
			t.Fatal(err)
		}
		if oracle.HasRace() != racy {
			t.Fatalf("racy=%v: oracle says %v; the test program is wrong", racy, oracle.HasRace())
		}

		sink := detect.NewSink(false, 0)
		rec := stats.New()
		d := New(sink, rec)
		rt, err := task.New(task.Config{Executor: task.Pool, Workers: 4, Detector: d, Stats: rec})
		if err != nil {
			t.Fatal(err)
		}
		sh := d.NewShadow(detect.Spec("x", asyncs+1, 8))
		if err := rt.Run(func(c *task.Ctx) { program(racy)(c, sh) }); err != nil {
			t.Fatal(err)
		}
		races := sink.Races()
		if got := len(races) > 0; got != racy {
			t.Errorf("racy=%v: spd3 reports %v", racy, races)
		}
		if racy && (len(races) != 1 || races[0].Kind != detect.WriteWrite || races[0].Index != asyncs-1) {
			t.Errorf("races = %v, want one write-write on x[%d]", races, asyncs-1)
		}
		if rec.Snapshot().Get(stats.DMHPWalk) == 0 {
			t.Errorf("racy=%v: dmhp.walk = 0, no DMHP query ran", racy)
		}
	}
}
