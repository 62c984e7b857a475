package eraser

import (
	"testing"

	"spd3/internal/detect"
	"spd3/internal/task"
)

func newRT(t *testing.T) (*task.Runtime, *Detector, *detect.Sink) {
	t.Helper()
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	return rt, d, sink
}

func TestSingleTaskQuiet(t *testing.T) {
	rt, d, sink := newRT(t)
	sh := d.NewShadow(detect.Spec("x", 4, 8))
	err := rt.Run(func(c *task.Ctx) {
		for i := 0; i < 4; i++ {
			sh.Write(c.Task(), i)
			sh.Read(c.Task(), i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 0 {
		t.Fatalf("single-task accesses reported: %v", races)
	}
}

func TestLockedDisciplineQuiet(t *testing.T) {
	rt, d, sink := newRT(t)
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	l := rt.NewLock()
	err := rt.Run(func(c *task.Ctx) {
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
		t.Fatalf("lock-disciplined accesses reported: %v", races)
	}
}

func TestUnlockedSharedWriteReported(t *testing.T) {
	rt, d, sink := newRT(t)
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	err := rt.Run(func(c *task.Ctx) {
		c.FinishAsync(2, func(c *task.Ctx, i int) { sh.Write(c.Task(), 0) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 1 {
		t.Fatalf("races = %v, want one lockset violation", races)
	}
}

func TestReadSharedQuiet(t *testing.T) {
	// Read-only sharing never enters Shared-Modified: no report even
	// without locks.
	rt, d, sink := newRT(t)
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	err := rt.Run(func(c *task.Ctx) {
		sh.Write(c.Task(), 0)
		c.FinishAsync(6, func(c *task.Ctx, i int) { sh.Read(c.Task(), 0) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 0 {
		t.Fatalf("read-shared reported: %v", races)
	}
}

// TestFalsePositiveOnForkJoin pins down Eraser's defining imprecision
// (§6.3 "Eraser reported false data races for many benchmarks"): a
// perfectly ordered fork-join handoff with no locks is reported anyway,
// because fork-join ordering is invisible to a lockset analysis.
func TestFalsePositiveOnForkJoin(t *testing.T) {
	rt, d, sink := newRT(t)
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		})
		sh.Write(c.Task(), 0) // race-free: ordered by the finish join
	})
	if err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 1 {
		t.Fatalf("races = %v, want the documented false positive", races)
	}
}

func TestExclusiveInitializationWindow(t *testing.T) {
	// Known Eraser behaviour: refinement of C(v) starts only when the
	// variable leaves Exclusive, seeded from the *second* accessor's
	// lockset. Two accesses under disjoint locks therefore go
	// unreported — the first thread's lockset was never recorded.
	rt, d, sink := newRT(t)
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	l1 := rt.NewLock()
	l2 := rt.NewLock()
	err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				c.Acquire(l1)
				sh.Write(c.Task(), 0)
				c.Release(l1)
			})
			c.Async(func(c *task.Ctx) {
				c.Acquire(l2)
				sh.Write(c.Task(), 0)
				c.Release(l2)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 0 {
		t.Fatalf("races = %v, want none (initialization window)", races)
	}
}

func TestPartialLockingReportedOnThirdAccess(t *testing.T) {
	// With a third accessor the candidate set {l2} ∩ {l1} empties and
	// the violation is reported.
	rt, d, sink := newRT(t)
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	l1 := rt.NewLock()
	l2 := rt.NewLock()
	lockOf := []*detect.Lock{l1, l2, l1}
	err := rt.Run(func(c *task.Ctx) {
		c.FinishAsync(3, func(c *task.Ctx, i int) {
			c.Acquire(lockOf[i])
			sh.Write(c.Task(), 0)
			c.Release(lockOf[i])
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 1 {
		t.Fatalf("races = %v, want one (disjoint locksets intersect empty)", races)
	}
}

func TestCommonLockAmongSeveral(t *testing.T) {
	rt, d, sink := newRT(t)
	sh := d.NewShadow(detect.Spec("x", 1, 8))
	l1 := rt.NewLock()
	l2 := rt.NewLock()
	err := rt.Run(func(c *task.Ctx) {
		c.FinishAsync(4, func(c *task.Ctx, i int) {
			c.Acquire(l1)
			if i%2 == 0 {
				c.Acquire(l2)
			}
			sh.Write(c.Task(), 0)
			if i%2 == 0 {
				c.Release(l2)
			}
			c.Release(l1)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if races := sink.Races(); len(races) != 0 {
		t.Fatalf("common lock l1 held everywhere, but reported: %v", races)
	}
}

func TestLocksetInterning(t *testing.T) {
	rt, d, sink := newRT(t)
	sh := d.NewShadow(detect.Spec("x", 100, 8))
	l := rt.NewLock()
	err := rt.Run(func(c *task.Ctx) {
		c.FinishAsync(2, func(c *task.Ctx, i int) {
			c.Acquire(l)
			for j := 0; j < 100; j++ {
				sh.Write(c.Task(), j)
			}
			c.Release(l)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Empty() {
		t.Fatalf("unexpected reports: %v", sink.Races())
	}
	// 100 locations protected by the same lock must share one interned
	// lockset: SetBytes stays at one slice of one lock id.
	if got := d.Footprint().SetBytes; got != 8 {
		t.Fatalf("SetBytes = %d, want 8 (one interned singleton set)", got)
	}
}

func TestReleaseUnheldLockIsNoop(t *testing.T) {
	rt, d, sink := newRT(t)
	_ = d.NewShadow(detect.Spec("x", 1, 8))
	l := rt.NewLock()
	err := rt.Run(func(c *task.Ctx) {
		c.Release(l) // sloppy program; must not panic
		c.Acquire(l)
		c.Release(l)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Empty() {
		t.Fatal("unexpected reports")
	}
}
