package task

import (
	"sync/atomic"
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
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

// cilkDetectorEvents checks the embedding: one Cilk procedure with two
// sync regions produces exactly two finish scopes.
func TestCilkEmbeddingEvents(t *testing.T) {
	det := &countingDetector{}
	rt, err := New(Config{Executor: Sequential, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(c *Ctx) {
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
	if got := det.spawns.Load(); got != 3 {
		t.Errorf("spawns = %d, want 3", got)
	}
	// Two explicit finish regions plus the implicit program finish.
	if got := det.finishEnds.Load(); got != 3 {
		t.Errorf("finish ends = %d, want 3", got)
	}
}

// TestCilkRaceDetection: spawn/sync programs run under SPD3 through the
// embedding — a spawned child racing with the continuation is caught,
// and the post-sync access is ordered.
func TestCilkRaceDetection(t *testing.T) {
	sink := detect.NewSink(false, 0)
	d := core.New(sink, nil)
	rt, err := New(Config{Executor: Sequential, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", 2, 8))
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
	races := sink.Races()
	if len(races) != 1 || races[0].Index != 0 {
		t.Fatalf("races = %v, want exactly one on index 0", races)
	}
}
