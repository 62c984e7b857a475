// Package task implements the structured (async/finish) parallel task
// runtime that the SPD3 reproduction runs on.
//
// The paper targets Habanero-Java's async/finish constructs (§2): `async
// { s }` forks a child task that runs s in parallel with the rest of the
// parent, and `finish { s }` runs s and then blocks until every task
// (transitively) spawned inside s whose immediately enclosing finish (IEF)
// is this finish has completed. Go has no structured fork-join runtime, so
// this package rebuilds one with two interchangeable executors:
//
//   - Pool: a fixed set of workers with Chase–Lev work-stealing deques;
//     a worker blocked at an end-finish helps by running other tasks
//     (this mirrors the HJ scheduler the paper evaluates on). SPD3 —
//     unlike SP-hybrid — does not depend on the scheduler (§7): its
//     verdicts agree at every worker count, 1 to 16.
//   - Sequential: depth-first inline execution of every async; this is
//     the execution model ESP-bags and SP-bags require (§1).
//
// Either way every task runs on one of the runtime's workers, so a task's
// WorkerID is always in [0, Workers()).
//
// In steady state a spawn, a finish and a Cilk procedure allocate
// nothing: a worker keeps the task records, finish scopes and Cilk frames
// its tasks are done with and hands them to its next spawns, finishes and
// RunCilk calls. A *Ctx is therefore valid only inside the task body it
// was passed to, and a *Cilk only inside its procedure: the same memory
// is another task's, or another procedure's, once that has returned.
//
// The runtime drives a detect.Detector: it emits task/finish lifecycle
// events at exactly the program points the paper instruments, and the
// instrumented containers in package mem route every read and write
// through the detector's shadow memory.
package task

import (
	"errors"
	"fmt"
	"sync/atomic"

	"spd3/internal/detect"
	"spd3/internal/ids"
	"spd3/internal/sched"
	"spd3/internal/stats"
)

// ExecKind selects an executor implementation.
type ExecKind uint8

const (
	// Auto (the zero value) lets New pick: Sequential when the detector
	// requires it or is owned by one goroutine (detect.Owned), Pool
	// otherwise. Because Auto is distinguishable from an explicit choice,
	// New can reject an explicit executor the detector cannot run under
	// instead of silently overriding it.
	Auto ExecKind = iota
	// Pool is the work-stealing worker pool (the parallel default).
	Pool
	// Sequential executes asyncs inline, depth-first left-to-right.
	Sequential
)

func (k ExecKind) String() string {
	switch k {
	case Auto:
		return "auto"
	case Pool:
		return "pool"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("ExecKind(%d)", uint8(k))
	}
}

// ErrExecutorMismatch reports an explicit executor the detector cannot
// run under (a sequential-only or an owned detector with Pool); New
// returns it wrapped.
var ErrExecutorMismatch = errors.New("task: detector incompatible with selected executor")

// Config configures a Runtime.
type Config struct {
	// Workers is the number of worker goroutines for the Pool executor
	// (the sequential executor has one). Zero means 1.
	Workers int
	// Executor selects the execution strategy.
	Executor ExecKind
	// Detector is the race detector to drive; nil means the
	// uninstrumented baseline (detect.Nop).
	Detector detect.Detector
	// Stats is the observability recorder the runtime (and the
	// instrumented containers) report into; nil disables the counters.
	Stats *stats.Recorder
}

// Runtime executes async/finish programs and drives a detector.
type Runtime struct {
	det     detect.Detector
	st      *stats.Recorder
	kind    ExecKind // resolved, never Auto
	workers int
	exec    executor
	ec      *sched.EventCount

	taskIDs   ids.Counter // spawned tasks draw from their worker's detect.Local block
	finishIDs ids.Counter // likewise finishes
	lockIDs   atomic.Int64

	failure error        // the first task panic: written by the task that counted it first, read once every task has ended
	panics  atomic.Int64 // task panics in this Run
	running atomic.Bool
}

// New validates cfg and returns a runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Detector == nil {
		cfg.Detector = detect.Nop{}
	}
	// An owned detector publishes its shadow state with plain stores
	// (detect.Owned), so it must never meet a second goroutine.
	seqOnly, owned := cfg.Detector.RequiresSequential(), detect.Owned(cfg.Detector)
	if cfg.Executor == Auto {
		if seqOnly || owned {
			cfg.Executor = Sequential
		} else {
			cfg.Executor = Pool
		}
	}
	switch {
	case seqOnly && cfg.Executor != Sequential:
		return nil, fmt.Errorf("%w: detector %q requires the sequential executor (got %s)",
			ErrExecutorMismatch, cfg.Detector.Name(), cfg.Executor)
	case owned && cfg.Executor != Sequential:
		return nil, fmt.Errorf("%w: detector %q is owned by one goroutine and cannot run under %s",
			ErrExecutorMismatch, cfg.Detector.Name(), cfg.Executor)
	}
	rt := &Runtime{det: cfg.Detector, st: cfg.Stats, kind: cfg.Executor, workers: cfg.Workers, ec: sched.NewEventCount()}
	switch cfg.Executor {
	case Pool:
		rt.exec = newPoolExec(cfg.Workers)
	case Sequential:
		rt.exec = seqExec{}
	default:
		return nil, fmt.Errorf("task: unknown executor %v", cfg.Executor)
	}
	return rt, nil
}

// Detector returns the detector driven by this runtime.
func (rt *Runtime) Detector() detect.Detector { return rt.det }

// Stats returns the runtime's observability recorder (nil when disabled).
func (rt *Runtime) Stats() *stats.Recorder { return rt.st }

// Executor returns the resolved executor kind (never Auto).
func (rt *Runtime) Executor() ExecKind { return rt.kind }

// Workers returns the configured worker count.
func (rt *Runtime) Workers() int { return rt.workers }

// NewLock registers a new instrumented lock with the detector.
func (rt *Runtime) NewLock() *detect.Lock {
	return &detect.Lock{ID: rt.lockIDs.Add(1)}
}

// Running reports whether a Run is in progress.
func (rt *Runtime) Running() bool { return rt.running.Load() }

// A Scope is where an instrumented container is allocated (package mem).
// Scope returns the runtime the container belongs to and the task its
// creation writes are attributed to, or nil when they are elided. The
// result types are internal, so only this module implements Scope.
type Scope interface {
	Scope() (*Runtime, *detect.Task)
}

// Scope makes rt an allocation scope that elides the creation writes.
func (rt *Runtime) Scope() (*Runtime, *detect.Task) { return rt, nil }

// ErrNested is returned by Run when the runtime is already running.
var ErrNested = errors.New("task: Run called on a running runtime")

// Run executes root as the main task under the implicit top-level finish
// and blocks until every transitively spawned task has run to its end,
// panicked or not. Its error names the first panic — in a task body, or
// in the detector's TaskEnd or its FinishEnd of the implicit finish — and
// counts the rest. A panic in the detector's MainTask propagates out of
// Run before any worker starts. A Runtime may be reused for several
// consecutive Runs but not concurrently.
func (rt *Runtime) Run(root func(*Ctx)) error {
	if !rt.running.CompareAndSwap(false, true) {
		return ErrNested
	}
	defer rt.running.Store(false)
	rt.failure = nil
	rt.panics.Store(0)

	fid, _ := rt.finishIDs.Draw(1)
	tid, _ := rt.taskIDs.Draw(1)
	implicit := &scope{f: detect.Finish{ID: fid}}
	main := &Ctx{body: root, join: implicit, fin: implicit}
	main.task = detect.Task{ID: detect.TaskID(tid), IEF: &implicit.f}
	detect.Main(rt.det, &main.task, &implicit.f)
	rt.exec.run(rt, main)

	if n := rt.panics.Load(); n > 1 {
		return fmt.Errorf("%w (and %d more panics)", rt.failure, n-1)
	}
	return rt.failure
}

// capture counts a panic and records the first, with where it was raised,
// as the run's failure: runBody defers it around every task body, runTask
// and runMain around a task's whole life, its last event included.
func (rt *Runtime) capture(where string) {
	if p := recover(); p != nil && rt.panics.Add(1) == 1 {
		rt.failure = fmt.Errorf("task: panic in %s: %v", where, p)
	}
}

// park blocks the calling goroutine on the runtime's eventcount until
// done() reports true.
func (rt *Runtime) park(done func() bool) {
	for {
		if done() {
			return
		}
		ep := rt.ec.PrepareWait()
		if done() {
			rt.ec.CancelWait()
			return
		}
		rt.ec.CommitWait(ep)
	}
}

// scope is the one record of a dynamic finish instance: the detect.Finish
// the detector sees (a task's IEF points at it) and the count of live
// tasks registered to it. The counter can touch zero and rise again
// while the owner is still inside the finish body, so waiters always
// re-check it under the eventcount protocol rather than relying on a
// one-shot completion signal. Run allocates the implicit finish's scope;
// a Finish takes one from the executing worker's free list, and a Cilk
// sync region uses its frame's.
type scope struct {
	f       detect.Finish
	pending atomic.Int64
}

// Ctx is a task: its handle to the runtime (through the executing worker)
// and, embedded, the one record of it — the detect.Task the detector and
// the containers see (the paper's task: id, IEF, detector state), the body
// or Cilk procedure to run and the finish scopes — and nothing of whoever
// runs it: what the check path needs meanwhile is the executing worker's
// detect.Local. The spawning Async takes it from its worker's free list,
// or allocates it (Run allocates the main task's); the deques hold it,
// and the executor that starts it only sets w and task.L. Once the task has left its scope the executing
// worker takes the record back (worker.recycle). A Ctx is only valid
// within the dynamic extent of the task body it was passed to; do not
// retain it.
type Ctx struct {
	w    *worker // executing worker: a pool worker or the sequential executor's one
	task detect.Task
	body func(*Ctx)  // cleared when the task starts to run, so a retained record pins no user data
	proc func(*Cilk) // a Cilk child's procedure, run under RunCilk in place of body; likewise cleared
	join *scope      // the task's IEF: a spawned task drains from it, the main task waits on it
	fin  *scope      // innermost active finish scope (where the task's asyncs register)
}

// Task returns the runtime record of the current task.
func (c *Ctx) Task() *detect.Task { return &c.task }

// WorkerID returns the executing worker's index in [0, Workers): a pool
// worker's, or 0 under the sequential executor. Each worker is driven by
// exactly one goroutine, so worker-indexed state needs no locking.
func (c *Ctx) WorkerID() int { return c.w.id }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.w.rt }

// Scope makes c an allocation scope that records the creation writes
// against c's task.
func (c *Ctx) Scope() (*Runtime, *detect.Task) { return c.w.rt, &c.task }

// CountAccess records one instrumented read or write against region g in
// the executing worker's block (detect.Local.CountAccess).
func (c *Ctx) CountAccess(g *stats.Region, write bool) { c.task.L.CountAccess(g, write) }

// Async spawns body as a new child task. The child may run before, after,
// or in parallel with the remainder of the parent (§2); it is joined at
// the end of the innermost enclosing finish. Its record and its id come
// from what the executing worker owns — its free list, its id block — so
// a spawn touches no shared word but the finish's pending count.
func (c *Ctx) Async(body func(*Ctx)) { c.spawn(body, nil) }

// spawn is Async of body or, for Cilk.Spawn, of the Cilk procedure proc,
// which runBody runs under RunCilk: the child's record holds whichever is
// set, so a Cilk spawn wraps its procedure in no closure.
func (c *Ctx) spawn(body func(*Ctx), proc func(*Cilk)) {
	w := c.w
	rt := w.rt
	child := w.free.get()
	child.w, child.body, child.proc, child.join, child.fin = w, body, proc, c.fin, c.fin
	child.task.ID, child.task.IEF = detect.TaskID(c.task.L.Tasks.Next(&rt.taskIDs)), &c.fin.f
	detect.Spawn(rt.det, &c.task, &child.task)
	c.task.L.Tally[stats.TaskSpawn]++
	c.fin.pending.Add(1)
	rt.exec.spawn(c, child)
}

// Finish executes body and then blocks until all tasks spawned within it
// (transitively, whose IEF is this finish) have completed. Its scope comes
// from the executing worker's free list and goes back there once the
// finish has ended. A body that panics takes the same exit — join, end,
// return the scope — and the panic goes on from there, as in HJ.
func (c *Ctx) Finish(body func(*Ctx)) {
	w := c.w
	s := w.scopes.get()
	prev := c.beginFinish(s)
	defer func() {
		c.endFinish(prev)
		w.scopes.put(s)
	}()
	body(c)
}

// beginFinish opens the finish scope s, drained and cleared, and returns
// the scope to restore at the matching endFinish. The non-block-structured
// form exists for the Cilk spawn/sync layer, which must hold a finish open
// across calls.
func (c *Ctx) beginFinish(s *scope) *scope {
	rt := c.w.rt
	s.f.ID = c.task.L.Finishes.Next(&rt.finishIDs)
	detect.StartFinish(rt.det, &c.task, &s.f)
	prev := c.fin
	c.fin = s
	return prev
}

// endFinish joins the innermost finish opened by beginFinish and
// restores the enclosing scope. It leaves that scope drained and its
// detect.Finish cleared — every task registered in it has left, and no
// detector keeps a *detect.Finish past its FinishEnd — so the scope can
// open the next finish as a new one would and pins no detector state.
func (c *Ctx) endFinish(prev *scope) {
	rt := c.w.rt
	s := c.fin
	rt.exec.wait(c, s)
	c.fin = prev
	detect.EndFinish(rt.det, &c.task, &s.f)
	s.f = detect.Finish{}
}

// FinishAsync is the common `finish { for ... async }` idiom: it runs
// body inside a fresh finish scope.
func (c *Ctx) FinishAsync(n int, body func(c *Ctx, i int)) {
	c.Finish(func(c *Ctx) {
		for i := 0; i < n; i++ {
			i := i
			c.Async(func(c *Ctx) { body(c, i) })
		}
	})
}

// ParallelFor runs body(i) for lo <= i < hi inside a finish, spawning one
// async per grain-sized block. grain <= 1 gives the paper's fine-grained
// one-async-per-iteration loops; grain = ceil((hi-lo)/workers) gives the
// coarse "chunked" loops used for the FastTrack/Eraser comparison (§6.3).
func (c *Ctx) ParallelFor(lo, hi, grain int, body func(c *Ctx, i int)) {
	if grain < 1 {
		grain = 1
	}
	c.Finish(func(c *Ctx) {
		for start := lo; start < hi; start += grain {
			s, e := start, start+grain
			if e > hi {
				e = hi
			}
			c.Async(func(c *Ctx) {
				for i := s; i < e; i++ {
					body(c, i)
				}
			})
		}
	})
}

// ChunkGrain returns the grain that splits n iterations into one chunk
// per worker, the decomposition the chunked benchmark variants use.
func (c *Ctx) ChunkGrain(n int) int {
	w := c.w.rt.workers
	if w < 1 {
		w = 1
	}
	g := (n + w - 1) / w
	if g < 1 {
		g = 1
	}
	return g
}

// Acquire locks l's detector state; use via mem.Mutex, which pairs it
// with a real sync.Mutex.
func (c *Ctx) Acquire(l *detect.Lock) { c.w.rt.det.Acquire(&c.task, l) }

// Release is the counterpart of Acquire.
func (c *Ctx) Release(l *detect.Lock) { c.w.rt.det.Release(&c.task, l) }

// runBody runs c's body, or its Cilk procedure under RunCilk, on its
// worker's block and records a panic in it as the run's failure, so the
// callers always go on to join, end and leave: finish counters drain and
// Run can unblock.
func (rt *Runtime) runBody(c *Ctx) {
	c.task.L = &c.w.local
	body, proc := c.body, c.proc
	c.body, c.proc = nil, nil
	defer rt.capture("task body")
	if proc != nil {
		RunCilk(c, proc)
		return
	}
	body(c)
}

// runMain is the main task's life, called by the executor's run: the
// root body, the join of the implicit finish and its FinishEnd — the main
// task's last event, it has no TaskEnd. A body that panicked has ended
// every finish it opened on its way out, so the implicit one is innermost.
// A detector that panics in that FinishEnd fails the run as a body would.
func (rt *Runtime) runMain(c *Ctx) {
	defer rt.capture("FinishEnd of the implicit finish")
	rt.runBody(c)
	rt.exec.wait(c, c.join)
	detect.EndFinish(rt.det, &c.task, &c.join.f)
}

// runTask is a spawned task's life up to its last event, TaskEnd. A
// detector that panics in TaskEnd fails the run as a body would, and the
// task still leaves its scope (worker.exec).
func (rt *Runtime) runTask(c *Ctx) {
	defer rt.capture("TaskEnd")
	rt.runBody(c)
	rt.det.TaskEnd(&c.task)
}

// executor abstracts over the two execution strategies.
type executor interface {
	// run sets the strategy up, executes rt.runMain on a worker driven by
	// the calling goroutine, tears the strategy down and flushes its
	// workers' blocks.
	run(rt *Runtime, main *Ctx)
	// spawn makes child runnable. Called from the parent's goroutine.
	spawn(parent, child *Ctx)
	// wait blocks the calling task until s has no pending tasks,
	// running other tasks meanwhile where the strategy allows (the pool
	// executor "helps"; the sequential executor cannot and panics if s
	// has not drained). Safe because joins are tree-shaped: helping
	// cannot create cycles.
	wait(c *Ctx, s *scope)
	// parkFor blocks the calling task until done() reports true and
	// never helps: required for barrier-style waits, where running
	// another participant on the blocked task's stack would nest it
	// beneath the waiter and deadlock the generation. done must be
	// monotonic: once true, it stays true.
	parkFor(c *Ctx, done func() bool)
}
