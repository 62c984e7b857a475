package task

import "spd3/internal/detect"

// goExec runs one goroutine per task and lets the Go scheduler multiplex
// them. It exists to demonstrate scheduler independence: SPD3's guarantees
// do not depend on work-stealing (§7 contrasts this with SP-hybrid, which
// is tied to Cilk's scheduler), so the detector must produce identical
// verdicts under this executor and the pool executor.
type goExec struct{}

// run gives the main task a block of the calling goroutine's and flushes
// it when the main task is done — also when its body panicked.
func (goExec) run(rt *Runtime, main *Ctx) {
	l := newGoLocal()
	rt.runMain(main, l)
	l.Flush(rt.st)
}

// newGoLocal returns a block for a task goroutine, whose id blocks draw
// exactly (ids.Block.Exact). A goroutine runs one task and flushes its
// blocks when the task ends, after a few takes; a whole-size block would
// lose its remainder whenever another goroutine drew meanwhile, and the
// tree would publish arena chunks for ids nobody places. Exact draws
// share the counter once per take instead and lose nothing.
func newGoLocal() *detect.Local {
	l := new(detect.Local)
	l.Nodes.Exact, l.Tasks.Exact, l.Finishes.Exact = true, true, true
	return l
}

func (goExec) spawn(parent, child *Ctx) { go parent.rt.goTask(child) }

// goTask is a task goroutine's life: it borrows a block from the runtime
// for its one task and flushes it before the task leaves its scope. The
// block is the goroutine's alone between Get and Put, and the pool is the
// runtime's, not the package's: a pooled block's cached pages die with
// the engine. The task's record is not recycled: no goroutine outlives
// its one task to reuse it.
func (rt *Runtime) goTask(c *Ctx) {
	l := rt.locals.Get().(*detect.Local)
	rt.runTask(c, l)
	l.Flush(rt.st)
	rt.locals.Put(l)
	rt.leave(c)
}

func (e goExec) wait(c *Ctx, s *scope) {
	e.parkFor(c, func() bool { return s.pending.Load() == 0 })
}

// parkFor also serves wait: with a goroutine per task there is no helping
// and no stack nesting to avoid.
func (goExec) parkFor(c *Ctx, done func() bool) { c.rt.park(done) }
