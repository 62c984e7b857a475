// Package espbags reimplements the ESP-bags race detector (Raman et al.,
// RV 2010), the paper's sequential baseline for async/finish programs
// (§6.2). ESP-bags extends Feng & Leiserson's SP-bags from spawn/sync to
// async/finish.
//
// The program must execute sequentially, depth-first (asyncs run inline,
// immediately): the detector declares RequiresSequential and the runtime
// enforces the pairing. During such an execution each dynamic task owns an
// S-bag and each dynamic finish a P-bag, maintained over a union-find:
//
//   - spawn of A:   S(A) = {A}
//   - end of A:     P(IEF(A)) absorbs S(A)
//   - end-finish F: S(owner) absorbs P(F)
//
// At any moment, a previously seen task that is (transitively) in an
// S-bag is serialized with the current step; a task in a P-bag may run in
// parallel with it. Each monitored location stores one writer task and
// one reader task (O(1) space, like SPD3 — but at the cost of the
// sequential execution that Figure 4 measures).
package espbags

import (
	"fmt"
	"unsafe"

	"spd3/internal/detect"
	"spd3/internal/stats"
)

// kind discriminates bag kinds.
type kind uint8

const (
	sBag kind = iota
	pBag
)

// bag is a set of task elements in the union-find. Only the root element
// of each set points at its bag descriptor.
type bag struct {
	k    kind
	root *elem
}

// absorb moves all elements of o into b, emptying o.
func (b *bag) absorb(o *bag) {
	if o.root == nil {
		return
	}
	if b.root == nil {
		b.root = o.root
	} else {
		b.root = union(b.root, o.root)
	}
	b.root.bag = b
	o.root = nil
}

// add inserts a fresh element into b.
func (b *bag) add(e *elem) {
	if b.root == nil {
		b.root = e
	} else {
		b.root = union(b.root, e)
	}
	b.root.bag = b
}

// elem is one union-find node representing a dynamic task instance.
type elem struct {
	parent *elem
	rank   int8
	bag    *bag // valid at roots only
	id     detect.TaskID
}

// find returns e's root with path compression.
func find(e *elem) *elem {
	for e.parent != nil {
		if e.parent.parent != nil {
			e.parent = e.parent.parent // halving
		}
		e = e.parent
	}
	return e
}

// union links two roots by rank and returns the new root.
func union(a, b *elem) *elem {
	a, b = find(a), find(b)
	if a == b {
		return a
	}
	if a.rank < b.rank {
		a, b = b, a
	}
	b.parent = a
	if a.rank == b.rank {
		a.rank++
	}
	return a
}

// inP reports whether e currently sits in a P-bag (may run in parallel
// with the current step).
func inP(e *elem) bool { return e != nil && find(e).bag.k == pBag }

// inS reports whether e currently sits in an S-bag (serialized with the
// current step).
func inS(e *elem) bool { return e != nil && find(e).bag.k == sBag }

// Detector is the ESP-bags detector.
type Detector struct {
	regions *detect.Regions[svar]

	elems int64
	bags  int64
}

// New returns an ESP-bags detector reporting to sink and counting into
// rec (nil is fine).
func New(sink *detect.Sink, rec *stats.Recorder) *Detector {
	return &Detector{regions: detect.NewRegions[svar](sink, rec)}
}

func init() {
	detect.Register("espbags", func(o detect.FactoryOpts) detect.Detector { return New(o.Sink, o.Stats) })
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return "espbags" }

// RequiresSequential is ESP-bags' defining restriction (§1 limitation
// (ii)): the analysis only works during a depth-first sequential
// execution.
func (d *Detector) RequiresSequential() bool { return true }

type taskState struct {
	e *elem
	s *bag
}

type finishState struct {
	p *bag
}

func (d *Detector) newTask(id detect.TaskID) *taskState {
	e := &elem{id: id}
	s := &bag{k: sBag}
	s.add(e)
	d.elems++
	d.bags++
	return &taskState{e: e, s: s}
}

// MainTask implements detect.Detector.
func (d *Detector) MainTask(t *detect.Task, implicit *detect.Finish) {
	t.State = d.newTask(t.ID)
	implicit.State = &finishState{p: &bag{k: pBag}}
	d.bags++
}

// BeforeSpawn: S(child) = {child}.
func (d *Detector) BeforeSpawn(parent, child *detect.Task) {
	child.State = d.newTask(child.ID)
}

// TaskEnd: P(IEF(child)) absorbs S(child).
func (d *Detector) TaskEnd(t *detect.Task) {
	ts := t.State.(*taskState)
	fs := t.IEF.State.(*finishState)
	fs.p.absorb(ts.s)
}

// FinishStart: a fresh, empty P-bag for the finish.
func (d *Detector) FinishStart(t *detect.Task, f *detect.Finish) {
	f.State = &finishState{p: &bag{k: pBag}}
	d.bags++
}

// FinishEnd: S(owner) absorbs P(F) — everything joined by the finish is
// now serialized before the owner's continuation.
func (d *Detector) FinishEnd(t *detect.Task, f *detect.Finish) {
	ts := t.State.(*taskState)
	fs := f.State.(*finishState)
	ts.s.absorb(fs.p)
}

// Acquire is unsupported: ESP-bags targets pure async/finish programs.
func (d *Detector) Acquire(*detect.Task, *detect.Lock) {}

// Release is unsupported; see Acquire.
func (d *Detector) Release(*detect.Task, *detect.Lock) {}

// NewShadow implements detect.Detector.
func (d *Detector) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	return &regionShadow{d.regions.New(spec)}
}

// Footprint implements detect.Detector: O(1) shadow space per touched
// location plus one union-find element per task.
func (d *Detector) Footprint() detect.Footprint {
	return detect.Footprint{
		ShadowBytes: d.regions.Bytes(),
		TreeBytes:   d.elems*int64(unsafe.Sizeof(elem{})) + d.bags*int64(unsafe.Sizeof(bag{})),
	}
}

// svar is the per-location shadow: the last writer and one reader.
type svar struct {
	w *elem
	r *elem
}

type regionShadow struct{ detect.Cells[svar] }

// taskName names a task in race reports.
func taskName(id detect.TaskID) string { return fmt.Sprintf("task#%d", id) }

// Read implements the SP-bags read rule: a write-read race if the
// recorded writer is in a P-bag; the reader field is replaced only when
// the previous reader is serialized (or absent).
func (s *regionShadow) Read(t *detect.Task, i int) {
	v := s.At(t, i)
	if v == nil {
		return
	}
	if inP(v.w) {
		s.Report(detect.WriteRead, i, taskName(v.w.id), taskName(t.ID))
	}
	if v.r == nil || inS(v.r) {
		v.r = t.State.(*taskState).e
	}
}

// Write implements the SP-bags write rule: races if the recorded reader
// or writer is in a P-bag; the writer field always becomes the current
// task.
func (s *regionShadow) Write(t *detect.Task, i int) {
	v := s.At(t, i)
	if v == nil {
		return
	}
	if inP(v.r) {
		s.Report(detect.ReadWrite, i, taskName(v.r.id), taskName(t.ID))
	}
	if inP(v.w) {
		s.Report(detect.WriteWrite, i, taskName(v.w.id), taskName(t.ID))
	}
	v.w = t.State.(*taskState).e
}

var _ detect.Detector = (*Detector)(nil)
