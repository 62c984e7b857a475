// Package oslabel implements Offset-Span labeling (Mellor-Crummey,
// Supercomputing 1991), the related-work baseline the paper discusses in
// §7: constant-size access histories like SPD3's, but applicable only to
// *strict* nested fork-join programs.
//
// Every task segment carries a label — a sequence of offsets, one per
// enclosing fork level (spans are a fixed power of two here, so only
// offsets are stored). The rules, mapped onto the runtime's events for a
// strict program (a finish that contains only asyncs and whose owner
// performs no monitored access inside it):
//
//   - fork (spawn inside a finish): child label = parent label ++ [i],
//     with i the 1-based spawn index in this finish;
//   - join (finish end): the parent's last offset grows by the span S,
//     keeping its residue class mod S.
//
// Two segments are ordered iff one label prefixes the other, or the
// offsets at their first differing position share a residue class mod S
// (then the smaller offset came first); otherwise they may run in
// parallel. Joins preserve residues while forks allocate fresh ones,
// which is the whole trick.
//
// The paper's §7 point — reproduced by this package's tests — is that
// OS labeling cannot express async/finish's *selective* join: a task
// spawned before a finish stays alive across it, and no label increment
// can order the finish's children before a later sibling without also
// ordering the still-live earlier sibling. The detector therefore
// documents soundness only for strict programs; progen's strict mode
// cross-checks it against the oracle there, and a pinned test
// demonstrates the escaping-async shape it gets wrong (and SPD3 gets
// right).
package oslabel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spd3/internal/detect"
	"spd3/internal/stats"
)

// span is the fixed fork span: larger than any realistic spawn count, so
// sibling offsets never collide in residue, while join increments stay in
// residue class.
const span = uint64(1) << 32

// Label is an offset sequence. Labels are immutable after creation; each
// task segment gets a fresh one.
type Label []uint64

func (l Label) String() string { return fmt.Sprint([]uint64(l)) }

// ordered reports whether the segments labelled a and b are sequentially
// ordered (in either direction). Equal labels denote the same segment,
// which is ordered with itself.
func ordered(a, b Label) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			// First difference: ordered iff same residue class.
			return a[i]%span == b[i]%span
		}
	}
	return true // equal or prefix
}

// mhp is the may-happen-in-parallel predicate on labels; nil labels (no
// recorded access) are parallel with nothing.
func mhp(a, b Label) bool {
	if a == nil || b == nil {
		return false
	}
	return !ordered(a, b)
}

// prefixLen returns the index of the first differing position — the
// label analogue of LCA depth, used for the two-reader subsumption rule.
func prefixLen(a, b Label) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Detector is the Offset-Span labeling race detector.
type Detector struct {
	regions    *detect.Regions[osVar]
	labelWords atomic.Int64
}

// New returns an OS-labeling detector reporting to sink and counting into
// rec (nil is fine).
func New(sink *detect.Sink, rec *stats.Recorder) *Detector {
	return &Detector{regions: detect.NewRegions[osVar](sink, rec)}
}

func init() {
	detect.Register("oslabel", func(o detect.FactoryOpts) detect.Detector { return New(o.Sink, o.Stats) })
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return "oslabel" }

// RequiresSequential implements detect.Detector: labels are thread-local
// and shadow words are locked, so parallel execution is fine (on strict
// programs).
func (d *Detector) RequiresSequential() bool { return false }

// taskState carries the task's current label and its spawn counter in
// the current fork scope.
type taskState struct {
	label  Label
	spawns uint64
}

// finishState remembers the owner's label length and spawn counter at
// FinishStart so FinishEnd can restore them.
type finishState struct {
	labelLen   int
	savedSpawn uint64
}

// MainTask implements detect.Detector.
func (d *Detector) MainTask(t *detect.Task, implicit *detect.Finish) {
	t.State = &taskState{label: Label{1}}
	implicit.State = &finishState{labelLen: 1}
	d.labelWords.Add(1)
}

// BeforeSpawn implements the fork rule: the child extends the parent's
// label with the next sibling offset.
func (d *Detector) BeforeSpawn(parent, child *detect.Task) {
	ps := parent.State.(*taskState)
	ps.spawns++
	l := make(Label, len(ps.label)+1)
	copy(l, ps.label)
	l[len(l)-1] = ps.spawns
	child.State = &taskState{label: l}
	d.labelWords.Add(int64(len(l)))
}

// TaskEnd implements detect.Detector.
func (d *Detector) TaskEnd(*detect.Task) {}

// FinishStart opens a fork scope: it snapshots the owner's label length
// and resets the sibling counter.
func (d *Detector) FinishStart(t *detect.Task, f *detect.Finish) {
	ts := t.State.(*taskState)
	f.State = &finishState{labelLen: len(ts.label), savedSpawn: ts.spawns}
	ts.spawns = 0
}

// FinishEnd implements the join rule: restore the label length and bump
// the last offset by the span, ordering the owner's continuation after
// every joined child while keeping its residue class.
func (d *Detector) FinishEnd(t *detect.Task, f *detect.Finish) {
	ts := t.State.(*taskState)
	fs := f.State.(*finishState)
	l := make(Label, fs.labelLen)
	copy(l, ts.label[:fs.labelLen])
	l[len(l)-1] += span
	ts.label = l
	ts.spawns = fs.savedSpawn
	d.labelWords.Add(int64(len(l)))
}

// Acquire is unsupported: OS labeling models pure fork-join.
func (d *Detector) Acquire(*detect.Task, *detect.Lock) {}

// Release is unsupported; see Acquire.
func (d *Detector) Release(*detect.Task, *detect.Lock) {}

// osVar is the constant-size access history: one writer and two readers,
// managed with the same subsumption discipline as SPD3's shadow words
// (replace both readers when the new read is ordered after them; record a
// second parallel reader; otherwise keep the pair with the shortest
// common prefix — the label analogue of the highest LCA).
type osVar struct {
	mu sync.Mutex
	w  Label
	r1 Label
	r2 Label
}

type regionShadow struct{ detect.Cells[osVar] }

// NewShadow implements detect.Detector.
func (d *Detector) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	return &regionShadow{d.regions.New(spec)}
}

// Footprint implements detect.Detector.
func (d *Detector) Footprint() detect.Footprint {
	return detect.Footprint{
		ShadowBytes: d.regions.Bytes(),
		TreeBytes:   d.labelWords.Load() * 8,
	}
}

// Read mirrors SPD3's Algorithm 2 on labels.
func (s *regionShadow) Read(t *detect.Task, i int) {
	v := s.At(t, i)
	if v == nil {
		return
	}
	l := t.State.(*taskState).label
	v.mu.Lock()
	defer v.mu.Unlock()
	if mhp(v.w, l) {
		s.Report(detect.WriteRead, i, v.w.String(), l.String())
	}
	p1 := mhp(v.r1, l)
	p2 := mhp(v.r2, l)
	switch {
	case !p1 && !p2:
		v.r1 = l
		v.r2 = nil
	case p1 && v.r2 == nil:
		v.r2 = l
	case p1 && p2:
		if prefixLen(v.r1, l) < prefixLen(v.r1, v.r2) {
			v.r1 = l
		}
	}
}

// Write mirrors SPD3's Algorithm 1 on labels.
func (s *regionShadow) Write(t *detect.Task, i int) {
	v := s.At(t, i)
	if v == nil {
		return
	}
	l := t.State.(*taskState).label
	v.mu.Lock()
	defer v.mu.Unlock()
	if mhp(v.r1, l) {
		s.Report(detect.ReadWrite, i, v.r1.String(), l.String())
	}
	if mhp(v.r2, l) {
		s.Report(detect.ReadWrite, i, v.r2.String(), l.String())
	}
	if mhp(v.w, l) {
		s.Report(detect.WriteWrite, i, v.w.String(), l.String())
		return
	}
	v.w = l
}

var _ detect.Detector = (*Detector)(nil)
