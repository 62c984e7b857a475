package task

import (
	"strings"
	"sync/atomic"
	"testing"

	"spd3/internal/detect"
	_ "spd3/internal/espbags"
	"spd3/internal/fasttrack"
	"spd3/internal/graph"
)

func TestCilkFib(t *testing.T) {
	// The canonical Cilk program: results flow through per-call slots,
	// synchronized by the implicit sync before each return.
	for _, cfg := range []Config{
		{Executor: Sequential},
		{Executor: Pool, Workers: 4},
	} {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var result int64
		err = rt.Run(func(c *Ctx) {
			RunCilk(c, func(k *Cilk) {
				var fib func(k *Cilk, n int, out *int64)
				fib = func(k *Cilk, n int, out *int64) {
					if n < 2 {
						*out = int64(n)
						return
					}
					var a, b int64
					k.Spawn(func(k *Cilk) { fib(k, n-1, &a) })
					fib(k, n-2, &b)
					k.Sync() // join the spawned half before combining
					*out = a + b
				}
				fib(k, 15, &result)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if result != 610 {
			t.Fatalf("%v: fib(15) = %d, want 610", cfg.Executor, result)
		}
	}
}

func TestCilkSyncJoinsOnlySpawnedSoFar(t *testing.T) {
	rt, err := New(Config{Executor: Pool, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var before, after atomic.Int64
	err = rt.Run(func(c *Ctx) {
		RunCilk(c, func(k *Cilk) {
			k.Spawn(func(k *Cilk) { before.Add(1) })
			k.Spawn(func(k *Cilk) { before.Add(1) })
			k.Sync()
			if got := before.Load(); got != 2 {
				t.Errorf("after sync: %d spawns done, want 2", got)
			}
			k.Spawn(func(k *Cilk) { after.Add(1) })
			// No explicit sync: the implicit final sync joins it.
		})
		if got := after.Load(); got != 1 {
			t.Errorf("after implicit sync: %d, want 1", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCilkSyncWithoutSpawnsIsNoop(t *testing.T) {
	rt, err := New(Config{Executor: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(c *Ctx) {
		RunCilk(c, func(k *Cilk) {
			k.Sync()
			k.Sync()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCilkTransitiveJoin(t *testing.T) {
	rt, err := New(Config{Executor: Pool, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	err = rt.Run(func(c *Ctx) {
		RunCilk(c, func(k *Cilk) {
			k.Spawn(func(k *Cilk) {
				k.Spawn(func(k *Cilk) {
					k.Spawn(func(k *Cilk) { n.Add(1) })
					n.Add(1)
				})
				n.Add(1)
			})
			k.Sync()
			if got := n.Load(); got != 3 {
				t.Errorf("sync saw %d of 3 transitive spawns", got)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCilkEmbeddingEvents checks the embedding: one Cilk procedure with
// two sync regions produces exactly two finish scopes, on every executor.
func TestCilkEmbeddingEvents(t *testing.T) {
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			rt, det := checked(t, e.cfg, detect.Nop{})
			err := rt.Run(func(c *Ctx) {
				RunCilk(c, func(k *Cilk) {
					k.Spawn(func(k *Cilk) {})
					k.Spawn(func(k *Cilk) {})
					k.Sync()
					k.Spawn(func(k *Cilk) {})
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			// Two explicit finish regions plus the implicit program finish.
			if n, err := det.Check(); err != nil || n.Spawns != 3 || n.FinishEnds != 3 {
				t.Errorf("%+v, %v; want 3 spawns and 3 FinishEnds", n, err)
			}
		})
	}
}

// TestCilkRaceDetection: spawn/sync programs run under the race
// detectors through the embedding — a spawned child racing with the
// continuation is caught, and the post-sync accesses are ordered — with
// the same verdict from SPD3, FastTrack, ESP-bags and the computation-DAG
// oracle, on the sequential executor and, for the detectors that run in
// parallel, on a pool, where procedures run in recycled frames.
func TestCilkRaceDetection(t *testing.T) {
	for _, e := range []struct {
		detector string
		cfg      Config
	}{
		{"spd3", Config{Executor: Sequential}},
		{"spd3", Config{Executor: Pool, Workers: 4}},
		{"fasttrack", Config{Executor: Sequential}},
		{"fasttrack", Config{Executor: Pool, Workers: 4}},
		{"espbags", Config{Executor: Sequential}},
		{"graph", Config{Executor: Sequential}},
	} {
		t.Run(e.detector+"/"+e.cfg.Executor.String(), func(t *testing.T) {
			var races func() []detect.Race
			cfg := e.cfg
			if e.detector == "graph" {
				o := graph.New()
				cfg.Detector, races = o, o.Races
			} else {
				ses, err := detect.Open(e.detector, detect.SessionOpts{})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Detector, cfg.Stats, races = ses.Det, ses.Rec, ses.Sink.Races
			}
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := cfg.Detector.NewShadow(detect.Spec("x", 2, 8))
			err = rt.Run(func(c *Ctx) {
				RunCilk(c, func(k *Cilk) {
					k.Spawn(func(k *Cilk) { sh.Write(k.Ctx().Task(), 0) })
					sh.Write(k.Ctx().Task(), 0) // races with the spawn
					k.Sync()
					sh.Write(k.Ctx().Task(), 1) // ordered: no race
					k.Spawn(func(k *Cilk) { sh.Write(k.Ctx().Task(), 1) })
					// implicit sync
				})
				sh.Write(c.Task(), 1) // ordered after the implicit sync
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := races(); len(got) != 1 || got[0].Index != 0 {
				t.Fatalf("races = %v, want exactly one on index 0", got)
			}
		})
	}
}

// recycledProc is a Cilk procedure of the given depth that reuses frames
// and scopes every way a program can: three Spawn/Sync rounds, a child
// whose plain Async registers in its parent's sync region, a nested
// RunCilk on one task, a Finish inside RunCilk and a RunCilk inside a
// Finish. Every procedure and async adds one to ran:
// recycledRan(depth) in all.
func recycledProc(k *Cilk, depth int, ran *atomic.Int64) {
	ran.Add(1)
	if depth == 0 {
		return
	}
	for round := 0; round < 3; round++ {
		k.Spawn(func(k *Cilk) { recycledProc(k, depth-1, ran) })
		k.Spawn(func(k *Cilk) {
			k.Ctx().Async(func(*Ctx) { ran.Add(1) })
			RunCilk(k.Ctx(), func(k *Cilk) {
				k.Spawn(func(*Cilk) { ran.Add(1) })
				k.Ctx().Finish(func(c *Ctx) {
					c.Async(func(c *Ctx) {
						RunCilk(c, func(k *Cilk) { k.Spawn(func(*Cilk) { ran.Add(1) }) })
					})
				})
			})
		})
		k.Sync()
	}
}

// recycledRan is what recycledProc(depth) adds to ran.
func recycledRan(depth int) int64 {
	if depth == 0 {
		return 1
	}
	return 1 + 3*(recycledRan(depth-1)+3)
}

// TestRecycledScopesAndFrames: finish scopes and Cilk frames come from
// the executing worker's free lists, and a reused one is what a new one
// would be — no detector state on its finish (FastTrack keeps a clock
// there), no other procedure's or finish's spawns in it — under every
// executor, after a child that panicked with a sync region and a finish
// open (it ends both and returns them, as a return would) as much as
// before. Every procedure and async runs once, the panicking child's two
// orphans included.
func TestRecycledScopesAndFrames(t *testing.T) {
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			rt, det := checked(t, e.cfg, fasttrack.New(detect.NewSink(false, 0), nil))
			const depth = 4
			var ran, orphans atomic.Int64
			err := rt.Run(func(c *Ctx) {
				RunCilk(c, func(k *Cilk) {
					recycledProc(k, depth, &ran)
					k.Spawn(func(k *Cilk) {
						k.Spawn(func(*Cilk) { orphans.Add(1) })
						k.Ctx().Finish(func(c *Ctx) {
							c.Async(func(*Ctx) { orphans.Add(1) })
							panic("boom")
						})
					})
					k.Sync()
					recycledProc(k, depth, &ran)
				})
				c.Finish(func(c *Ctx) { RunCilk(c, func(k *Cilk) { recycledProc(k, depth, &ran) }) })
			})
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("Run = %v, want the child's panic", err)
			}
			if _, err := det.Check(); err != nil {
				t.Error(err)
			}
			if got, want := ran.Load(), 3*recycledRan(depth); got != want {
				t.Errorf("%d procedures and asyncs ran, want %d", got, want)
			}
			if n := orphans.Load(); n != 2 {
				t.Errorf("%d of the panicking child's 2 orphans ran", n)
			}
		})
	}
}
