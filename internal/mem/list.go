package mem

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"spd3/internal/detect"
	"spd3/internal/shadow"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// List is a growable instrumented sequence of T. Unlike Array, its
// length is not declared up front: the detector backs it with a growable
// shadow region (detect.GrowableSpec) whose pages appear as elements are
// appended, and the data itself lives in the same kind of CAS-published
// pages, so existing elements never move and concurrent readers never
// observe a reallocation.
//
// Appends are physically safe from any task — page publication is atomic
// — but logically they contend on the list's length, which the detector
// sees as a write to a dedicated length cell (shadow index 0; element i
// maps to shadow index i+1). Two unordered Appends therefore report a
// race, exactly as two unordered Sets of one Var would: growing a shared
// list from parallel siblings without synchronization is a data race on
// the list's structure.
type List[T any] struct {
	data *shadow.Pages[T]
	n    atomic.Int64
	sh   detect.Shadow
	reg  *stats.Region
}

// NewList allocates an empty instrumented list named name in race
// reports.
func NewList[T any](s task.Scope, name string) *List[T] {
	rt, t := s.Scope()
	var zero T
	sh := rt.Detector().NewShadow(detect.GrowableSpec(name, int(unsafe.Sizeof(zero))))
	created(sh, t, lengthCell+1) // the length cell
	return &List[T]{
		data: shadow.New[T](-1),
		sh:   sh,
		reg:  rt.Stats().Region(name, 0),
	}
}

// shadow index mapping: cell 0 is the length, element i is cell i+1.
const lengthCell = 0

// Len performs an instrumented read of the list's length. It is ordered
// against Appends by the detector: reading the length in parallel with
// an unordered Append is reported as a race.
func (l *List[T]) Len(c *task.Ctx) int {
	c.CountAccess(l.reg, false)
	l.sh.Read(c.Task(), lengthCell)
	return int(l.n.Load())
}

// Append performs an instrumented append of v and returns its index. The
// detector observes a write to the length cell plus a write to the new
// element's cell.
func (l *List[T]) Append(c *task.Ctx, v T) int {
	c.CountAccess(l.reg, true)
	i := int(l.n.Add(1) - 1)
	l.sh.Write(c.Task(), lengthCell)
	l.sh.Write(c.Task(), i+1)
	*l.data.Cell(i) = v
	return i
}

// Get performs an instrumented read of element i.
func (l *List[T]) Get(c *task.Ctx, i int) T {
	l.check(i)
	c.CountAccess(l.reg, false)
	l.sh.Read(c.Task(), i+1)
	return *l.data.Cell(i)
}

// Set performs an instrumented write of element i, which must already
// exist.
func (l *List[T]) Set(c *task.Ctx, i int, v T) {
	l.check(i)
	c.CountAccess(l.reg, true)
	l.sh.Write(c.Task(), i+1)
	*l.data.Cell(i) = v
}

func (l *List[T]) check(i int) {
	if n := l.n.Load(); i < 0 || int64(i) >= n {
		panic(fmt.Sprintf("mem: list index %d out of range [0,%d)", i, n))
	}
}

// UncheckedAt returns a pointer to element i without instrumentation;
// see Array.Unchecked for when this is legitimate (the paper's §5.5
// static check eliminations). The pointer stays valid across later
// Appends — list elements never move.
func (l *List[T]) UncheckedAt(i int) *T {
	l.check(i)
	return l.data.Cell(i)
}
