package task

import (
	"sync"
	"sync/atomic"

	"spd3/internal/detect"
	"spd3/internal/sched"
	"spd3/internal/stats"
)

// poolExec is the work-stealing executor: a fixed set of workers, each
// owning a Chase–Lev deque. Spawns push to the spawning worker's deque
// (help-first: the parent keeps running, children wait to be popped or
// stolen). A worker that reaches an end-finish with pending tasks does not
// block the OS thread: it helps by popping its own deque and stealing from
// victims until the scope drains, the standard technique for running
// fork-join programs on a fixed thread pool.
type poolExec struct {
	n       int
	workers []*worker
	done    atomic.Bool
	wg      sync.WaitGroup
}

// worker is one pool worker, or the sequential executor's one. Its deque,
// its free lists and its scratch block are owned by whatever goroutine is
// currently executing tasks on its behalf; that is always exactly one
// goroutine.
type worker struct {
	id  int
	rt  *Runtime
	p   *poolExec
	dq  *sched.Deque[Ctx]
	rng uint64

	// free holds the records of tasks this worker ran to the end, for
	// its next spawns (recycle); scopes the finish scopes and frames the
	// Cilk frames its tasks closed, for their next Finish and RunCilk. A
	// task runs on one worker from start to end, so it returns a scope or
	// a frame to the list it took it from.
	free   freeList[Ctx]
	scopes freeList[scope]
	frames freeList[Cilk]

	// local is the block every task this worker executes points at;
	// poolExec.run flushes it after the pool has quiesced. Workers are
	// allocated back to back and the block's tail (its Tally) is written
	// on every checked access: the pad keeps it off the cache line of the
	// next worker's head, which that worker reads for every task.
	local detect.Local
	_     [64]byte
}

func newPoolExec(n int) *poolExec {
	return &poolExec{n: n}
}

func (p *poolExec) run(rt *Runtime, main *Ctx) {
	p.done.Store(false)
	p.workers = make([]*worker, p.n)
	for i := range p.workers {
		p.workers[i] = &worker{
			id:  i,
			rt:  rt,
			p:   p,
			dq:  sched.NewDeque[Ctx](),
			rng: uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		}
	}
	for i := 1; i < p.n; i++ {
		p.wg.Add(1)
		go p.workers[i].loop()
	}
	main.w = p.workers[0]
	rt.runMain(main)
	// runMain ends only after the implicit finish drained, so no task
	// can exist anywhere: shut the pool down.
	p.done.Store(true)
	rt.ec.Signal()
	p.wg.Wait()
	for _, w := range p.workers {
		w.local.Flush(rt.st)
	}
	p.workers = nil
}

func (p *poolExec) spawn(parent, child *Ctx) {
	parent.w.dq.Push(child)
	parent.w.rt.ec.Signal()
}

// wait blocks until s has drained, helping by running other tasks so
// that a fixed worker pool cannot deadlock on structured joins whose
// tasks sit in some deque.
func (p *poolExec) wait(c *Ctx, s *scope) {
	w := c.w
	rt := w.rt
	for {
		if s.pending.Load() == 0 {
			return
		}
		if t := w.find(); t != nil {
			w.exec(t)
			continue
		}
		ep := rt.ec.PrepareWait()
		if s.pending.Load() == 0 {
			rt.ec.CancelWait()
			return
		}
		if t := w.find(); t != nil {
			rt.ec.CancelWait()
			w.exec(t)
			continue
		}
		rt.ec.CommitWait(ep)
	}
}

// parkFor blocks without helping; see the executor interface for why
// barrier waits must not run other tasks on this stack. The other
// participants are picked up by idle workers stealing from this worker's
// deque, which is why barriers on the pool executor need at least as
// many workers as concurrently blocked tasks.
func (p *poolExec) parkFor(c *Ctx, done func() bool) { c.w.rt.park(done) }

// loop is the top-level routine of workers 1..n-1 (worker 0 is driven by
// the Run caller). It runs until the pool is shut down.
func (w *worker) loop() {
	defer w.p.wg.Done()
	for {
		if t := w.find(); t != nil {
			w.exec(t)
			continue
		}
		ep := w.rt.ec.PrepareWait()
		if w.p.done.Load() {
			w.rt.ec.CancelWait()
			return
		}
		if t := w.find(); t != nil {
			w.rt.ec.CancelWait()
			w.exec(t)
			continue
		}
		w.rt.ec.CommitWait(ep)
		if w.p.done.Load() {
			return
		}
	}
}

// exec runs a task this worker popped or stole, or the sequential
// executor's child just spawned, to its end (runTask); then it counts the
// task's completion against its IEF, waking any worker blocked on the
// scope, and takes the record back. The count follows TaskEnd so that
// FinishEnd observes every TaskEnd (see the detect package contract).
func (w *worker) exec(c *Ctx) {
	c.w = w
	rt := w.rt
	rt.runTask(c)
	if c.join.pending.Add(-1) == 0 {
		rt.ec.Signal()
	}
	w.recycle(c)
}

// maxFree bounds each of a worker's free lists: 256 records, 28 KiB;
// 256 scopes, 8 KiB; 256 frames, 16 KiB.
const maxFree = 256

// freeList is a worker's stack of records it has done with, at most
// maxFree of them. What is put is as get would return it new: a task
// record is cleared by recycle, a scope by endFinish, and a frame by
// RunCilk's final Sync.
type freeList[T any] []*T

// get returns a record from the list, or a new one.
func (l *freeList[T]) get() *T {
	if n := len(*l); n > 0 {
		v := (*l)[n-1]
		*l = (*l)[:n-1]
		return v
	}
	return new(T)
}

// put gives v back to the list, or drops it when the list is full.
func (l *freeList[T]) put(v *T) {
	if len(*l) < maxFree {
		*l = append(*l, v)
	}
}

// recycle takes back the record of a task that has left its scope
// (exec's count, which reads it, must come first): nothing holds it any
// more — the deque gave it up, the parent kept no reference, and no
// detector keeps a *detect.Task past its TaskEnd. It is cleared here, so
// that a record on the free list pins no scope and no detector state, and
// a reused one is what a new one would be.
func (w *worker) recycle(c *Ctx) {
	*c = Ctx{}
	w.free.put(c)
}

// find returns a runnable task: first from the worker's own deque, then
// by stealing.
func (w *worker) find() *Ctx {
	if c := w.dq.Pop(); c != nil {
		w.local.Tally[stats.TaskInline]++
		return c
	}
	if c := w.steal(); c != nil {
		w.local.Tally[stats.TaskSteal]++
		return c
	}
	return nil
}

// steal scans the other workers' deques from a random starting victim.
// A sweep that only lost CAS races (rather than finding everything empty)
// is retried a bounded number of times.
func (w *worker) steal() *Ctx {
	n := len(w.p.workers)
	if n <= 1 {
		return nil
	}
	for attempt := 0; attempt < 4; attempt++ {
		start := int(w.nextRand() % uint64(n))
		contended := false
		for i := 0; i < n; i++ {
			v := w.p.workers[(start+i)%n]
			if v == w {
				continue
			}
			c, retry := v.dq.Steal()
			if c != nil {
				return c
			}
			if retry {
				contended = true
			}
		}
		if !contended {
			return nil
		}
	}
	return nil
}

// nextRand is a per-worker xorshift64* generator for victim selection;
// deterministic seeding keeps scheduling reproducible enough for tests.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	w.rng = x
	return x * 0x2545f4914f6cdd1d
}
