// Package mem provides the instrumented shared-memory containers through
// which programs under analysis access data.
//
// The paper instruments HJ programs with a bytecode pass that inserts
// detector calls on every shared read and write (§5). Go has no bytecode
// layer, so instrumentation lives in the data-access API instead: an
// Array, Matrix, or Var routes every Get/Set through the detector's
// shadow memory before touching the datum. The detection semantics are
// identical — the same checks at the same program points — only the agent
// inserting the call differs.
//
// The Unchecked escape hatches correspond to the paper's §5.5 static
// optimizations (main-task check elimination, read-only check
// elimination, escape analysis for task-local data): where the programmer
// — playing the role of the static analysis — can prove accesses cannot
// race, checks are elided. Benchmarks use them exactly where the paper's
// optimizer would fire.
//
// Containers declare their shadow regions through detect.ShadowSpec;
// detectors back them with lazily allocated pages, so a sparsely touched
// container costs shadow memory proportional to the pages actually
// accessed, not its declared length. List additionally uses a growable
// region with no declared length at all.
//
// Every constructor takes a task.Scope: a *task.Runtime before Run, or
// the allocating task's *task.Ctx inside a task body, the only handle
// mechanical instrumentation (spd3inst) has in scope there. Allocating a
// container zeroes its memory, which is a write by the allocating task.
// A *Ctx scope records that write in the shadow, one per cell for the
// fixed-size containers and one on the length cell for List and Map, so
// a task that reads a container unordered with the sibling that created
// it is reported, exactly as if the sibling had Set every element: in
// the paper's model the initializing writes belong to the allocating
// step. A *Runtime scope elides them: allocation before Run happens-
// before every step of the program, so every later access is ordered
// after those writes and recording them would be pure overhead.
// Allocating through a root Ctx before the first spawn is equivalent for
// the same reason.
package mem

import (
	"sync"
	"unsafe"

	"spd3/internal/detect"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// Array is a one-dimensional instrumented array of T.
type Array[T any] struct {
	data []T
	sh   detect.Shadow
	reg  *stats.Region // per-region traffic tally; nil when stats are off
}

// NewArray allocates an instrumented array of n elements named name in
// race reports.
func NewArray[T any](s task.Scope, name string, n int) *Array[T] {
	rt, t := s.Scope()
	var zero T
	sh := rt.Detector().NewShadow(detect.Spec(name, n, int(unsafe.Sizeof(zero))))
	created(sh, t, n)
	return &Array[T]{data: make([]T, n), sh: sh, reg: rt.Stats().Region(name, n)}
}

// created records t's creation writes of cells [0, n) of sh; a nil t
// elides them (see the package doc).
func created(sh detect.Shadow, t *detect.Task, n int) {
	if t == nil {
		return
	}
	for i := 0; i < n; i++ {
		sh.Write(t, i)
	}
}

// Len returns the number of elements.
func (a *Array[T]) Len() int { return len(a.data) }

// Get performs an instrumented read of element i.
func (a *Array[T]) Get(c *task.Ctx, i int) T {
	c.CountAccess(a.reg, false)
	a.sh.Read(c.Task(), i)
	return a.data[i]
}

// Set performs an instrumented write of element i.
func (a *Array[T]) Set(c *task.Ctx, i int, v T) {
	c.CountAccess(a.reg, true)
	a.sh.Write(c.Task(), i)
	a.data[i] = v
}

// Update applies f to element i as an instrumented read-modify-write: a
// read and a write of the element, checked as one memory action where the
// detector can (detect.Update).
func (a *Array[T]) Update(c *task.Ctx, i int, f func(T) T) {
	c.CountAccess(a.reg, false)
	c.CountAccess(a.reg, true)
	detect.Update(a.sh, c.Task(), i)
	a.data[i] = f(a.data[i])
}

// Unchecked returns the backing slice without instrumentation. Use only
// for provably race-free phases (task-local or read-only data); this is
// the programmer-directed analogue of the paper's §5.5 static check
// eliminations (main-task, read-only, and escape-analysis elimination).
func (a *Array[T]) Unchecked() []T { return a.data }

// Matrix is a two-dimensional instrumented array stored in row-major
// order; element (i,j) has shadow index i*cols+j.
type Matrix[T any] struct {
	rows, cols int
	data       []T
	sh         detect.Shadow
	reg        *stats.Region
}

// NewMatrix allocates an instrumented rows×cols matrix.
func NewMatrix[T any](s task.Scope, name string, rows, cols int) *Matrix[T] {
	rt, t := s.Scope()
	var zero T
	sh := rt.Detector().NewShadow(detect.Spec(name, rows*cols, int(unsafe.Sizeof(zero))))
	created(sh, t, rows*cols)
	return &Matrix[T]{
		rows: rows,
		cols: cols,
		data: make([]T, rows*cols),
		sh:   sh,
		reg:  rt.Stats().Region(name, rows*cols),
	}
}

// Rows returns the row count.
func (m *Matrix[T]) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix[T]) Cols() int { return m.cols }

// Get performs an instrumented read of element (i, j).
func (m *Matrix[T]) Get(c *task.Ctx, i, j int) T {
	c.CountAccess(m.reg, false)
	k := i*m.cols + j
	m.sh.Read(c.Task(), k)
	return m.data[k]
}

// Set performs an instrumented write of element (i, j).
func (m *Matrix[T]) Set(c *task.Ctx, i, j int, v T) {
	c.CountAccess(m.reg, true)
	k := i*m.cols + j
	m.sh.Write(c.Task(), k)
	m.data[k] = v
}

// Update applies f to element (i, j) as an instrumented
// read-modify-write. Kernels that would otherwise pair a Get with a Set
// of the same element pay one index computation instead of two.
func (m *Matrix[T]) Update(c *task.Ctx, i, j int, f func(T) T) {
	c.CountAccess(m.reg, false)
	c.CountAccess(m.reg, true)
	k := i*m.cols + j
	detect.Update(m.sh, c.Task(), k)
	m.data[k] = f(m.data[k])
}

// UncheckedRow returns row i of the backing store without
// instrumentation; see Array.Unchecked for when this is legitimate
// (the §5.5 static check eliminations).
func (m *Matrix[T]) UncheckedRow(i int) []T { return m.data[i*m.cols : (i+1)*m.cols] }

// Unchecked returns the whole backing store without instrumentation;
// see Array.Unchecked.
func (m *Matrix[T]) Unchecked() []T { return m.data }

// Var is a single instrumented shared variable.
type Var[T any] struct {
	v   T
	sh  detect.Shadow
	reg *stats.Region
}

// NewVar allocates an instrumented variable with initial value init.
func NewVar[T any](s task.Scope, name string, init T) *Var[T] {
	rt, t := s.Scope()
	var zero T
	sh := rt.Detector().NewShadow(detect.Spec(name, 1, int(unsafe.Sizeof(zero))))
	created(sh, t, 1)
	return &Var[T]{v: init, sh: sh, reg: rt.Stats().Region(name, 1)}
}

// Get performs an instrumented read.
func (v *Var[T]) Get(c *task.Ctx) T {
	c.CountAccess(v.reg, false)
	v.sh.Read(c.Task(), 0)
	return v.v
}

// Set performs an instrumented write.
func (v *Var[T]) Set(c *task.Ctx, x T) {
	c.CountAccess(v.reg, true)
	v.sh.Write(c.Task(), 0)
	v.v = x
}

// Unchecked returns a pointer to the variable's storage without
// instrumentation; see Array.Unchecked for when this is legitimate
// (sequential phases, e.g. seeding before the run or reading the result
// after it).
func (v *Var[T]) Unchecked() *T { return &v.v }

// Update applies f to the variable as an instrumented
// read-modify-write; see Matrix.Update for why this beats a Get+Set
// pair.
func (v *Var[T]) Update(c *task.Ctx, f func(T) T) {
	c.CountAccess(v.reg, false)
	c.CountAccess(v.reg, true)
	detect.Update(v.sh, c.Task(), 0)
	v.v = f(v.v)
}

// Mutex is an instrumented lock: it provides real mutual exclusion via a
// sync.Mutex and reports acquire/release to the detector, which FastTrack
// and Eraser use for their lock semantics. SPD3 and ESP-bags, which
// target pure async/finish programs, ignore the events.
type Mutex struct {
	mu sync.Mutex
	l  *detect.Lock
}
