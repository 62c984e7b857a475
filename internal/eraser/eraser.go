// Package eraser reimplements the Eraser lockset race detector (Savage et
// al., TOCS 1997) as the paper's imprecise baseline (§6.3).
//
// Eraser checks the locking-discipline heuristic instead of
// happens-before: each shared location keeps a shrinking candidate set
// C(v) of locks that protected every access so far, refined on each
// access by the locks the accessing task holds, through the state machine
// Virgin → Exclusive → Shared / Shared-Modified. A location in
// Shared-Modified with an empty candidate set is reported.
//
// Because fork-join ordering is not a lock, Eraser reports false
// positives on async/finish programs — §6.3 notes exactly this ("Eraser
// reported false data races for many benchmarks"), and the reproduction's
// tests assert the same behaviour. Race reports here therefore mean
// "locking discipline violated", not "real race".
package eraser

import (
	"fmt"
	"sort"
	"sync"

	"spd3/internal/detect"
	"spd3/internal/stats"
)

// Detector is the Eraser baseline detector.
type Detector struct {
	regions *detect.Regions[evar]

	mu      sync.Mutex
	setPool map[string][]int64 // interned locksets, keyed by canonical form
	setByte int64
}

// New returns an Eraser detector reporting to sink and counting into rec
// (nil is fine).
func New(sink *detect.Sink, rec *stats.Recorder) *Detector {
	return &Detector{regions: detect.NewRegions[evar](sink, rec), setPool: make(map[string][]int64)}
}

func init() {
	detect.Register("eraser", func(o detect.FactoryOpts) detect.Detector { return New(o.Sink, o.Stats) })
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return "eraser" }

// RequiresSequential implements detect.Detector.
func (d *Detector) RequiresSequential() bool { return false }

// taskState is the task's current lockset, maintained as an acquisition
// stack. Only the owning task touches it.
type taskState struct {
	held []int64
}

// MainTask implements detect.Detector.
func (d *Detector) MainTask(t *detect.Task, implicit *detect.Finish) {
	t.State = &taskState{}
}

// BeforeSpawn gives the child an empty lockset: locks do not transfer
// across spawns.
func (d *Detector) BeforeSpawn(parent, child *detect.Task) {
	child.State = &taskState{}
}

// TaskEnd implements detect.Detector; Eraser has no join semantics.
func (d *Detector) TaskEnd(*detect.Task) {}

// FinishStart implements detect.Detector; finish is invisible to Eraser.
func (d *Detector) FinishStart(*detect.Task, *detect.Finish) {}

// FinishEnd implements detect.Detector.
func (d *Detector) FinishEnd(*detect.Task, *detect.Finish) {}

// Acquire pushes l onto the task's lockset.
func (d *Detector) Acquire(t *detect.Task, l *detect.Lock) {
	ts := t.State.(*taskState)
	ts.held = append(ts.held, l.ID)
}

// Release removes the most recent acquisition of l.
func (d *Detector) Release(t *detect.Task, l *detect.Lock) {
	ts := t.State.(*taskState)
	for i := len(ts.held) - 1; i >= 0; i-- {
		if ts.held[i] == l.ID {
			ts.held = append(ts.held[:i], ts.held[i+1:]...)
			return
		}
	}
}

// intern canonicalizes a lockset so that all locations protected by the
// same locks share one slice — Eraser's lockset-index table.
func (d *Detector) intern(set []int64) []int64 {
	s := append([]int64(nil), set...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	key := fmt.Sprint(s)
	d.mu.Lock()
	defer d.mu.Unlock()
	if got, ok := d.setPool[key]; ok {
		return got
	}
	d.setPool[key] = s
	d.setByte += int64(len(s)) * 8
	return s
}

// intersect returns the interned intersection of an interned set a with
// the (unsorted) currently held set.
func (d *Detector) intersect(a []int64, held []int64) []int64 {
	var out []int64
	for _, l := range a {
		for _, h := range held {
			if l == h {
				out = append(out, l)
				break
			}
		}
	}
	if len(out) == len(a) {
		return a
	}
	return d.intern(out)
}

// state machine states
type vstate uint8

const (
	virgin vstate = iota
	exclusive
	shared
	sharedModified
)

// evar is the per-location Eraser state. The candidate sets are interned
// and accounted separately, as SetBytes.
type evar struct {
	mu       sync.Mutex
	st       vstate
	owner    detect.TaskID // Exclusive owner
	set      []int64       // candidate lockset (nil = universe, not yet refined)
	reported bool
}

type regionShadow struct {
	d *Detector
	detect.Cells[evar]
}

// NewShadow implements detect.Detector.
func (d *Detector) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	return &regionShadow{d, d.regions.New(spec)}
}

// Footprint implements detect.Detector.
func (d *Detector) Footprint() detect.Footprint {
	d.mu.Lock()
	defer d.mu.Unlock()
	return detect.Footprint{ShadowBytes: d.regions.Bytes(), SetBytes: d.setByte}
}

func (s *regionShadow) access(t *detect.Task, i int, isWrite bool) {
	v := s.At(t, i)
	if v == nil {
		return
	}
	ts := t.State.(*taskState)
	v.mu.Lock()
	defer v.mu.Unlock()

	switch v.st {
	case virgin:
		v.st = exclusive
		v.owner = t.ID
		return
	case exclusive:
		if t.ID == v.owner {
			return
		}
		// Second task: enter the shared states and start refining.
		v.set = s.d.intern(ts.held)
		if isWrite {
			v.st = sharedModified
		} else {
			v.st = shared
		}
	case shared:
		v.set = s.d.intersect(v.set, ts.held)
		if isWrite {
			v.st = sharedModified
		}
	case sharedModified:
		v.set = s.d.intersect(v.set, ts.held)
	}
	if v.st == sharedModified && len(v.set) == 0 && !v.reported {
		v.reported = true
		kind := detect.WriteWrite
		if !isWrite {
			kind = detect.WriteRead
		}
		s.Report(kind, i, "lockset-empty", fmt.Sprintf("task#%d", t.ID))
	}
}

// Read implements detect.Shadow.
func (s *regionShadow) Read(t *detect.Task, i int) { s.access(t, i, false) }

// Write implements detect.Shadow.
func (s *regionShadow) Write(t *detect.Task, i int) { s.access(t, i, true) }

var _ detect.Detector = (*Detector)(nil)
