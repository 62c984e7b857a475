package mem

import (
	"fmt"

	"spd3/internal/task"
)

// Accumulator is an HJ-style finish accumulator: a reduction cell that
// any number of parallel tasks may Put into, with the combined value
// readable once those tasks have been joined (typically right after the
// enclosing finish).
//
// Accumulators are race-free by construction — Put goes to the partial of
// the worker running the task and Value combines the partials — so they
// carry no shadow memory and cost the detector nothing. They are the
// idiomatic replacement for the read-modify-write reduction races that
// SPD3 flags (see examples/quickstart): instead of fixing such a race with
// a manual partial-sums array, use an Accumulator.
//
// The combine function must be associative and commutative; Put order
// across tasks is not defined.
type Accumulator[T any] struct {
	rt      *task.Runtime // whose workers the slots are
	combine func(a, b T) T
	slots   []accSlot[T]
}

// accSlot is one worker's partial, padded to avoid false sharing between
// adjacent workers' partials.
type accSlot[T any] struct {
	v   T
	set bool
	_   [32]byte
}

// NewAccumulator returns an accumulator over combine for rt's workers.
// The zero T acts as the identity only in the sense that the first Put
// into a slot stores rather than combines.
func NewAccumulator[T any](rt *task.Runtime, combine func(a, b T) T) *Accumulator[T] {
	return &Accumulator[T]{
		rt:      rt,
		combine: combine,
		slots:   make([]accSlot[T], rt.Workers()),
	}
}

// Put folds v into the partial of c's worker. Safe to call from any task
// of the accumulator's runtime; it panics on a task of another runtime,
// whose workers would share the slots unsynchronized.
func (a *Accumulator[T]) Put(c *task.Ctx, v T) {
	if rt := c.Runtime(); rt != a.rt {
		panic(fmt.Sprintf("mem: Put into an accumulator of runtime %p from a task of runtime %p", a.rt, rt))
	}
	s := &a.slots[c.WorkerID()]
	if s.set {
		s.v = a.combine(s.v, v)
	} else {
		s.v, s.set = v, true
	}
}

// Value combines and returns all partials. Call it only after the tasks
// that Put have been joined (after the enclosing finish, or after Run);
// calling it while producers still run is itself a race the accumulator
// cannot see.
func (a *Accumulator[T]) Value() (T, bool) {
	var acc T
	have := false
	fold := func(v T) {
		if have {
			acc = a.combine(acc, v)
		} else {
			acc, have = v, true
		}
	}
	for i := range a.slots {
		if a.slots[i].set {
			fold(a.slots[i].v)
		}
	}
	return acc, have
}

// Reset clears the accumulator for reuse.
func (a *Accumulator[T]) Reset() {
	clear(a.slots)
}
