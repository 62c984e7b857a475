package task

import "spd3/internal/detect"

// goExec runs one goroutine per task and lets the Go scheduler multiplex
// them. It exists to demonstrate scheduler independence: SPD3's guarantees
// do not depend on work-stealing (§7 contrasts this with SP-hybrid, which
// is tied to Cilk's scheduler), so the detector must produce identical
// verdicts under this executor and the pool executor.
type goExec struct{}

func (goExec) run(rt *Runtime, main *Ctx) { rt.runMainAlone(main) }

func (goExec) spawn(parent, child *Ctx) { go parent.rt.goTask(child) }

// goTask is a task goroutine's life: it borrows a block from the runtime
// for its one task and flushes it before the task leaves its scope. The
// block is the goroutine's alone between Get and Put, and the pool is the
// runtime's, not the package's: a pooled block's cached pages die with
// the engine.
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
