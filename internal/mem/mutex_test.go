package mem

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spd3/internal/stats"
	"spd3/internal/task"
)

// TestLockAcrossFinish: a task that holds a Mutex across the end of a
// finish does not run, on its worker's stack, a stranger that takes the
// same lock. Main holds the lock across a finish of one child C. Fillers
// keep n-3 workers busy, and task X keeps one more until C is pushed, so
// that X's worker steals C. Task Y pushes a stranger B, which takes the
// lock, only once C is running, and keeps its own worker until C is done,
// so main's worker is the one idle worker when B appears. A worker that
// stole B at the end of main's finish would block in B's Lock beneath
// main, which holds the lock: the run would hang. Under one worker C stays
// on main's own deque, so a lock holder that only parked would hang there.
// Every task is counted once, popped or stolen.
func TestLockAcrossFinish(t *testing.T) {
	for _, n := range []int{1, 3, 4, 16} {
		t.Run(fmt.Sprintf("pool-%d", n), func(t *testing.T) { lockAcrossFinish(t, n) })
	}
}

func lockAcrossFinish(t *testing.T, n int) {
	rec := stats.New()
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: n, Stats: rec})
	if err != nil {
		t.Fatal(err)
	}
	mu := NewMutex(rt)
	var (
		running                                         atomic.Int64
		stop, release, cPushed, cRunning, cDone, bStart atomic.Bool
	)
	spin := func(cond func() bool) {
		for !cond() && !stop.Load() {
			runtime.Gosched()
		}
	}
	b := func(c *task.Ctx) {
		bStart.Store(true)
		mu.Lock(c)
		mu.Unlock(c)
	}
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *task.Ctx) {
			c.Finish(func(c *task.Ctx) {
				if n >= 3 {
					for i := 0; i < n-3; i++ {
						c.Async(func(*task.Ctx) {
							running.Add(1)
							spin(release.Load)
						})
					}
					c.Async(func(*task.Ctx) { // X
						running.Add(1)
						spin(cPushed.Load)
					})
					c.Async(func(c *task.Ctx) { // Y
						running.Add(1)
						spin(cRunning.Load)
						c.Async(b)
						spin(cDone.Load)
					})
					spin(func() bool { return running.Load() == int64(n-1) })
				}
				mu.Lock(c)
				c.Finish(func(c *task.Ctx) {
					c.Async(func(*task.Ctx) { // C
						cRunning.Store(true)
						if n >= 3 {
							// Long enough for an idle worker to steal B.
							deadline := time.Now().Add(100 * time.Millisecond)
							spin(func() bool { return bStart.Load() || time.Now().After(deadline) })
						}
						cDone.Store(true)
					})
					cPushed.Store(true)
					if n >= 3 {
						spin(cRunning.Load)
					}
				})
				mu.Unlock(c)
				release.Store(true)
			})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(8 * time.Second):
		stop.Store(true)
		t.Fatalf("deadlock: the lock holder's finish never ended (B started: %v, C done: %v)", bStart.Load(), cDone.Load())
	}
	snap := rec.Snapshot()
	spawn, inline, steal := snap.Get(stats.TaskSpawn), snap.Get(stats.TaskInline), snap.Get(stats.TaskSteal)
	if inline+steal != spawn {
		t.Errorf("%d inline + %d stolen tasks, want the %d spawned", inline, steal, spawn)
	}
}
