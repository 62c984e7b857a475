package fasttrack

import (
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/task"
)

func run(t *testing.T, exec task.ExecKind, workers int,
	body func(c *task.Ctx, d *Detector, sh detect.Shadow)) []detect.Race {
	t.Helper()
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", 8, 8))
	if err := rt.Run(func(c *task.Ctx) { body(c, d, sh) }); err != nil {
		t.Fatal(err)
	}
	return sink.Races()
}

func TestForkOrdersParentPrefix(t *testing.T) {
	races := run(t, task.Sequential, 1, func(c *task.Ctx, d *Detector, sh detect.Shadow) {
		sh.Write(c.Task(), 0) // before spawn: ordered with the child
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				sh.Read(c.Task(), 0)
				sh.Write(c.Task(), 0)
			})
		})
		sh.Read(c.Task(), 0) // after join: ordered
		sh.Write(c.Task(), 0)
	})
	if len(races) != 0 {
		t.Fatalf("races = %v, want none", races)
	}
}

func TestWriteWriteRace(t *testing.T) {
	races := run(t, task.Sequential, 1, func(c *task.Ctx, d *Detector, sh detect.Shadow) {
		c.FinishAsync(2, func(c *task.Ctx, i int) { sh.Write(c.Task(), 0) })
	})
	if len(races) == 0 || races[0].Kind != detect.WriteWrite {
		t.Fatalf("races = %v, want write-write", races)
	}
}

func TestReadSharedThenOrderedWriteIsQuiet(t *testing.T) {
	races := run(t, task.Sequential, 1, func(c *task.Ctx, d *Detector, sh detect.Shadow) {
		sh.Write(c.Task(), 0)
		c.FinishAsync(6, func(c *task.Ctx, i int) { sh.Read(c.Task(), 0) })
		sh.Write(c.Task(), 0) // join orders it after all readers
	})
	if len(races) != 0 {
		t.Fatalf("races = %v, want none", races)
	}
}

func TestReadSharedThenParallelWriteRace(t *testing.T) {
	races := run(t, task.Sequential, 1, func(c *task.Ctx, d *Detector, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			for i := 0; i < 6; i++ {
				c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
			}
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
	})
	if len(races) == 0 || races[0].Kind != detect.ReadWrite {
		t.Fatalf("races = %v, want read-write", races)
	}
}

func TestWriteReadRace(t *testing.T) {
	races := run(t, task.Sequential, 1, func(c *task.Ctx, d *Detector, sh detect.Shadow) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 2) })
			sh.Read(c.Task(), 2)
		})
	})
	if len(races) == 0 || races[0].Kind != detect.WriteRead {
		t.Fatalf("races = %v, want write-read", races)
	}
}

func TestLockOrdersCriticalSections(t *testing.T) {
	// Two tasks write under the same lock: the release/acquire edge
	// orders them, so no race — this exercises the lock clocks that
	// SPD3 does not need.
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	l := rt.NewLock()
	err = rt.Run(func(c *task.Ctx) {
		c.FinishAsync(4, func(c *task.Ctx, i int) {
			c.Acquire(l)
			sh.Read(c.Task(), 0)
			sh.Write(c.Task(), 0)
			c.Release(l)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 0 {
		t.Fatalf("locked accesses raced: %v", races)
	}
}

func TestUnlockedConflictStillRaces(t *testing.T) {
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	l := rt.NewLock()
	err = rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				c.Acquire(l)
				sh.Write(c.Task(), 0)
				c.Release(l)
			})
			c.Async(func(c *task.Ctx) {
				sh.Write(c.Task(), 0) // no lock held
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) == 0 {
		t.Fatal("half-locked conflict not reported")
	}
}

func TestParallelExecutorAgrees(t *testing.T) {
	for _, workers := range []int{1, 4} {
		races := run(t, task.Pool, workers, func(c *task.Ctx, d *Detector, sh detect.Shadow) {
			// Race-free: disjoint indices then shared reads.
			c.FinishAsync(8, func(c *task.Ctx, i int) { sh.Write(c.Task(), i) })
			c.FinishAsync(8, func(c *task.Ctx, i int) {
				for j := 0; j < 8; j++ {
					sh.Read(c.Task(), j)
				}
			})
		})
		if len(races) != 0 {
			t.Errorf("%d workers: false positives %v", workers, races)
		}
		races = run(t, task.Pool, workers, func(c *task.Ctx, d *Detector, sh detect.Shadow) {
			c.FinishAsync(8, func(c *task.Ctx, i int) { sh.Write(c.Task(), 0) })
		})
		if len(races) == 0 {
			t.Errorf("%d workers: missed write-write race", workers)
		}
	}
}

// barrierPhased is the §6.3 sharing pattern of the original JGF codes:
// persistent tasks alternate between writing their own slot and reading
// everyone's slots, separated only by barriers.
func barrierPhased(rt *task.Runtime, sh detect.Shadow, parts, phases int) error {
	bar := rt.NewBarrier(parts)
	return rt.Run(func(c *task.Ctx) {
		c.FinishAsync(parts, func(c *task.Ctx, id int) {
			for p := 0; p < phases; p++ {
				sh.Write(c.Task(), id)
				bar.Await(c)
				for other := 0; other < parts; other++ {
					sh.Read(c.Task(), other)
				}
				bar.Await(c)
			}
		})
	})
}

// TestBarrierEventsOrderPhases reproduces the §6.3 mechanism: with the
// RoadRunner-style barrier events, FastTrack accepts barrier-phased
// sharing as race-free.
func TestBarrierEventsOrderPhases(t *testing.T) {
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 4, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("slots", 4, 8))
	if err := barrierPhased(rt, sh, 4, 5); err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 0 {
		t.Fatalf("barrier-phased sharing reported under FastTrack+barriers: %v", races)
	}
}

// TestSPD3SeesThroughNoBarriers is the counterpart: SPD3's async/finish
// model derives no ordering from barriers, so the same program is
// reported — which is why the paper rewrote the JGF barrier loops into
// finish form before running SPD3 (§6.3).
func TestSPD3SeesThroughNoBarriers(t *testing.T) {
	sink := detect.NewSink(false, 0)
	d := core.New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 4, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("slots", 4, 8))
	if err := barrierPhased(rt, sh, 4, 5); err != nil {
		t.Fatal(err)
	}
	if sink.Empty() {
		t.Fatal("SPD3 credited barrier ordering it cannot model")
	}
}

// TestClockBytesGrowWithTasks pins down the O(n) behaviour the paper
// contrasts with SPD3: read-shared locations inflate to vector clocks
// whose width tracks the number of tasks.
func TestClockBytesGrowWithTasks(t *testing.T) {
	grow := func(tasks int) int64 {
		sink := detect.NewSink(false, 0)
		d := New(sink, nil)
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		sh := d.NewShadow(detect.Spec("x", 1, 8))
		if err := rt.Run(func(c *task.Ctx) {
			c.FinishAsync(tasks, func(c *task.Ctx, i int) { sh.Read(c.Task(), 0) })
		}); err != nil {
			t.Fatal(err)
		}
		return d.Footprint().Total()
	}
	small, big := grow(4), grow(400)
	if big < 10*small {
		t.Errorf("footprint did not grow with task count: %d tasks -> %d bytes, %d tasks -> %d bytes",
			4, small, 400, big)
	}
}
