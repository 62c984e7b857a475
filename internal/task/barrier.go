package task

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spd3/internal/detect"
)

// Barrier is a cyclic barrier for n tasks, the synchronization style of
// the original (thread-based) JGF benchmarks the paper discusses in §6.3.
// A task calling Await blocks until n tasks of the current generation
// have arrived.
//
// Barriers are outside the async/finish model: SPD3 and ESP-bags derive
// no ordering from them (and will report the cross-phase sharing they
// mediate — exactly why the paper rewrote the JGF barrier loops into
// finish form). Detectors implementing detect.BarrierObserver (FastTrack
// here, mirroring RoadRunner's special barrier events) receive
// arrive/depart notifications and can credit the barrier's ordering.
//
// Executor requirements. A barrier wait parks in the worker's one wait
// loop (worker.until) with nothing to run: a helper could nest another
// participant beneath the blocked one and deadlock the generation, so
// blocked participants occupy their worker. A barrier for n tasks
// therefore needs a pool of Workers >= n (enforced at Await; the original
// JGF programs likewise ran one barrier thread per core), and the
// sequential executor cannot run barrier programs at all (Await panics,
// surfacing as a Run error).
type Barrier struct {
	rt *Runtime
	b  *detect.BarrierInfo
	n  int

	mu    sync.Mutex
	count int
	gen   atomic.Int64
}

// NewBarrier returns a barrier for n participants.
func (rt *Runtime) NewBarrier(n int) *Barrier {
	if n < 1 {
		n = 1
	}
	return &Barrier{
		rt: rt,
		b:  &detect.BarrierInfo{ID: rt.lockIDs.Add(1)},
		n:  n,
	}
}

// Await blocks until n tasks of the current generation have arrived.
func (b *Barrier) Await(c *Ctx) {
	if b.rt.kind == Pool && b.n > b.rt.workers {
		panic(fmt.Sprintf(
			"task: barrier for %d participants needs >= %d pool workers (have %d)",
			b.n, b.n, b.rt.workers))
	}
	obs, _ := b.rt.det.(detect.BarrierObserver)

	b.mu.Lock()
	gen := b.gen.Load()
	if obs != nil {
		obs.BarrierArrive(&c.task, b.b, int(gen))
	}
	b.count++
	if b.count == b.n {
		// Last arrival: open the next generation and wake waiters.
		b.count = 0
		b.gen.Store(gen + 1)
		b.mu.Unlock()
		b.rt.ec.Signal()
	} else {
		b.mu.Unlock()
		// Depth-first execution cannot make progress while blocked.
		if b.rt.kind == Sequential {
			panic("task: blocking synchronization (barrier) deadlocks under the sequential executor")
		}
		c.w.until(func() bool { return b.gen.Load() != gen }, nothing)
	}
	if obs != nil {
		obs.BarrierDepart(&c.task, b.b, int(gen))
	}
}
