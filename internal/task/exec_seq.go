package task

import (
	"fmt"

	"spd3/internal/stats"
)

// seqExec executes every async inline, immediately and depth-first, the
// execution model that SP-bags and ESP-bags require (§1: "the parallel
// program must be processed in a sequential order, usually depth-first").
// The left-to-right execution order equals the left-to-right order of DPST
// siblings. Every task runs on the calling goroutine, which drives one
// worker (id 0, no deque): every task's block and the one set of free
// lists.
type seqExec struct{}

func (seqExec) run(rt *Runtime, main *Ctx) {
	w := &worker{rt: rt}
	main.w = w
	rt.runMain(main)
	w.local.Flush(rt.st)
}

func (seqExec) spawn(parent, child *Ctx) {
	w := parent.w
	w.local.Tally[stats.TaskInline]++
	w.exec(child)
}

func (seqExec) wait(c *Ctx, s *scope) {
	// Every spawned task ran to completion inline, so the scope must
	// already be drained; anything else is a runtime bug.
	if n := s.pending.Load(); n != 0 {
		panic(fmt.Sprintf("task: sequential executor reached end-finish with %d pending tasks", n))
	}
}
