package espbags

import (
	"testing"

	"spd3/internal/detect"
	"spd3/internal/task"
)

func run(t *testing.T, body func(c *task.Ctx, sh detect.Shadow)) []detect.Race {
	t.Helper()
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", 8, 8))
	if err := rt.Run(func(c *task.Ctx) { body(c, sh) }); err != nil {
		t.Fatal(err)
	}
	return sink.Races()
}

func TestRequiresSequential(t *testing.T) {
	d := New(detect.NewSink(false, 0), nil)
	if !detect.DepthFirst(d) || !detect.Owned(d) {
		t.Fatal("ESP-bags must demand depth-first order and one goroutine")
	}
	if _, err := task.New(task.Config{Executor: task.Pool, Detector: d}); err == nil {
		t.Fatal("pairing ESP-bags with the pool executor must fail")
	}
}

func TestWriteWriteRace(t *testing.T) {
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		c.FinishAsync(2, func(c *task.Ctx, i int) { sh.Write(c.Task(), 0) })
	})
	if len(races) != 1 || races[0].Kind != detect.WriteWrite {
		t.Fatalf("races = %v, want one write-write", races)
	}
}

func TestWriteReadRace(t *testing.T) {
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
			sh.Read(c.Task(), 0)
		})
	})
	if len(races) != 1 || races[0].Kind != detect.WriteRead {
		t.Fatalf("races = %v, want one write-read", races)
	}
}

func TestReadWriteRace(t *testing.T) {
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
	})
	if len(races) != 1 || races[0].Kind != detect.ReadWrite {
		t.Fatalf("races = %v, want one read-write", races)
	}
}

func TestOrderedAccessesQuiet(t *testing.T) {
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		sh.Write(c.Task(), 0)
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				sh.Read(c.Task(), 0)
				sh.Write(c.Task(), 0)
			})
		})
		sh.Read(c.Task(), 0)
		sh.Write(c.Task(), 0)
	})
	if len(races) != 0 {
		t.Fatalf("races = %v, want none", races)
	}
}

func TestFinishScopesJoinExactly(t *testing.T) {
	// A task outside the inner finish stays parallel: the inner finish
	// must not serialize it. This distinguishes async/finish ESP-bags
	// from Cilk SP-bags' sync-all semantics.
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) { // F1
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) }) // A: IEF = F1
			c.Finish(func(c *task.Ctx) {                         // F2
				c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 1) })
			})
			// F2 joined only its own async; A is still parallel.
			sh.Write(c.Task(), 0)
		})
	})
	if len(races) != 1 || races[0].Index != 0 || races[0].Kind != detect.WriteWrite {
		t.Fatalf("races = %v, want one write-write on index 0", races)
	}
}

func TestNestedFinishSerializes(t *testing.T) {
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Finish(func(c *task.Ctx) {
				c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
			})
			sh.Write(c.Task(), 0) // ordered by inner finish
		})
	})
	if len(races) != 0 {
		t.Fatalf("races = %v, want none", races)
	}
}

func TestTransitiveJoin(t *testing.T) {
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				c.Async(func(c *task.Ctx) { // grandchild, same IEF
					sh.Write(c.Task(), 0)
				})
			})
		})
		sh.Write(c.Task(), 0) // ordered: finish waits transitively
	})
	if len(races) != 0 {
		t.Fatalf("races = %v, want none", races)
	}
}

func TestReadSharedThenOrderedWriteQuiet(t *testing.T) {
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		c.FinishAsync(10, func(c *task.Ctx, i int) { sh.Read(c.Task(), 0) })
		sh.Write(c.Task(), 0)
	})
	if len(races) != 0 {
		t.Fatalf("races = %v, want none", races)
	}
}

func TestManyReadersParallelWriteCaught(t *testing.T) {
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			for i := 0; i < 10; i++ {
				c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
			}
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
	})
	if len(races) == 0 {
		t.Fatal("missed read-write race with one stored reader")
	}
}

func TestConstantShadowFootprint(t *testing.T) {
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	sh := d.NewShadow(detect.Spec("a", 1000, 8))
	// Paged shadow: nothing allocated until a location is touched.
	if f := d.Footprint().ShadowBytes; f != 0 {
		t.Fatalf("untouched shadow bytes = %d, want 0", f)
	}
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	var one int64
	if err := rt.Run(func(c *task.Ctx) {
		sh.Write(c.Task(), 0)
		one = d.Footprint().ShadowBytes
		for i := 1; i < 1000; i++ {
			sh.Write(c.Task(), i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// A 1000-element region fits one clipped page: the first touch
	// materializes it, and touching every other location costs nothing.
	if f := d.Footprint().ShadowBytes; one == 0 || f != one {
		t.Fatalf("shadow bytes = %d after one touch, %d after all", one, f)
	}
}

func TestUnionFindStress(t *testing.T) {
	// Deep absorb chains with path compression must keep verdicts
	// correct: repeated finish nesting with parallel tails.
	races := run(t, func(c *task.Ctx, sh detect.Shadow) {
		for round := 0; round < 50; round++ {
			c.Finish(func(c *task.Ctx) {
				c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 2) })
			})
		}
		sh.Write(c.Task(), 2) // ordered after all rounds
	})
	if len(races) != 0 {
		t.Fatalf("races = %v, want none", races)
	}
}
