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

// goTask is a task goroutine's life: it owns a block for its one task and
// flushes it before the task leaves its scope.
func (rt *Runtime) goTask(c *Ctx) {
	l := detect.Local{Key: int(c.task.ID)}
	rt.runTask(c, &l)
	l.Flush(rt.st)
	rt.leave(c)
}

func (e goExec) wait(c *Ctx, s *scope) {
	e.parkFor(c, func() bool { return s.pending.Load() == 0 })
}

// parkFor also serves wait: with a goroutine per task there is no helping
// and no stack nesting to avoid.
func (goExec) parkFor(c *Ctx, done func() bool) { c.rt.park(done) }
