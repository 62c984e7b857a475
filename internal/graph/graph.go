// Package graph is a precise race oracle used to validate the detectors.
//
// It records the step-level computation DAG of an async/finish execution
// — program-order edges within a task, spawn edges from the spawning step
// to the child's first step, and join edges from each task's final step to
// the continuation of its immediately enclosing finish — and then decides
// "may happen in parallel" by graph reachability: two steps are parallel
// iff neither reaches the other. Because the async/finish happens-before
// relation is schedule-independent, the DAG from a single (sequential)
// execution determines the ground truth for every schedule: a program has
// a race iff two conflicting accesses sit on parallel steps.
//
// This is the brute-force O(V·E) characterization the paper's Theorems 1–3
// are proved against; the property-based tests in package progen use it to
// cross-check SPD3, ESP-bags, and FastTrack on randomly generated
// programs.
package graph

import (
	"fmt"

	"spd3/internal/detect"
)

// gstep is one node of the computation DAG.
type gstep struct {
	id    int
	succs []int
}

// access is one recorded memory access.
type access struct {
	step    int
	isWrite bool
}

// Oracle is a detect.Detector that records instead of detecting. Run the
// program under it (the sequential executor), or replay a recording of
// any run into it, then query Races or MHP.
//
// For pure async/finish programs the recorded DAG is schedule-independent
// and the verdict covers every schedule (the paper's setting). When the
// program uses locks, the oracle additionally records release→acquire
// edges in the observed order — the happens-before relation of the
// observed trace — which is the ground truth a per-trace-precise detector
// like FastTrack must match. Steps are split at lock operations so these
// edges order only the accesses actually inside/outside the critical
// sections.
type Oracle struct {
	steps   []*gstep
	regions map[string]*regionLog
	lastRel map[int64]*gstep // lock id -> most recent releasing step

	reach []bitset // computed lazily by finalize
}

// regionLog collects per-element access logs for one shadow region.
type regionLog struct {
	name  string
	elems [][]access
}

// New returns an empty oracle.
func New() *Oracle {
	return &Oracle{
		regions: make(map[string]*regionLog),
		lastRel: make(map[int64]*gstep),
	}
}

// Name implements detect.Detector.
func (o *Oracle) Name() string { return "oracle" }

// Owned is always true (detect.Owned): the oracle mutates its DAG
// without synchronization, so one goroutine drives it, a sequential run
// or a replay of a recording made in any order.
func (o *Oracle) Owned() bool { return true }

type taskState struct{ cur *gstep }

type finishState struct {
	lastSteps []*gstep
}

func (o *Oracle) newStep() *gstep {
	s := &gstep{id: len(o.steps)}
	o.steps = append(o.steps, s)
	return s
}

func (o *Oracle) edge(from, to *gstep) {
	from.succs = append(from.succs, to.id)
}

// MainTask implements detect.Detector.
func (o *Oracle) MainTask(t *detect.Task, implicit *detect.Finish) {
	t.State = &taskState{cur: o.newStep()}
	implicit.State = &finishState{}
}

// BeforeSpawn implements detect.Detector.
func (o *Oracle) BeforeSpawn(parent, child *detect.Task) {
	ps := parent.State.(*taskState)
	pre := ps.cur
	first := o.newStep()
	o.edge(pre, first)
	child.State = &taskState{cur: first}
	cont := o.newStep()
	o.edge(pre, cont)
	ps.cur = cont
}

// TaskEnd implements detect.Detector: remember the task's final step for
// the join edge at its IEF.
func (o *Oracle) TaskEnd(t *detect.Task) {
	ts := t.State.(*taskState)
	fs := t.IEF.State.(*finishState)
	fs.lastSteps = append(fs.lastSteps, ts.cur)
}

// FinishStart implements detect.Detector.
func (o *Oracle) FinishStart(t *detect.Task, f *detect.Finish) {
	ts := t.State.(*taskState)
	inside := o.newStep()
	o.edge(ts.cur, inside)
	ts.cur = inside
	f.State = &finishState{}
}

// FinishEnd implements detect.Detector: join edges from every task of the
// scope to the continuation.
func (o *Oracle) FinishEnd(t *detect.Task, f *detect.Finish) {
	ts := t.State.(*taskState)
	fs := f.State.(*finishState)
	cont := o.newStep()
	o.edge(ts.cur, cont)
	for _, last := range fs.lastSteps {
		o.edge(last, cont)
	}
	ts.cur = cont
}

// Acquire starts a fresh step ordered after the lock's previous release
// (observed-trace lock edge).
func (o *Oracle) Acquire(t *detect.Task, l *detect.Lock) {
	ts := t.State.(*taskState)
	in := o.newStep()
	o.edge(ts.cur, in)
	if rel := o.lastRel[l.ID]; rel != nil {
		o.edge(rel, in)
	}
	ts.cur = in
}

// Release remembers the current (critical-section) step as the lock's
// latest release point and starts a fresh step, so accesses after the
// release are not dragged into the lock edge.
func (o *Oracle) Release(t *detect.Task, l *detect.Lock) {
	ts := t.State.(*taskState)
	o.lastRel[l.ID] = ts.cur
	out := o.newStep()
	o.edge(ts.cur, out)
	ts.cur = out
}

// NewShadow implements detect.Detector. Growable regions start empty and
// extend on first access — the oracle is owned, so plain slice growth is
// safe.
func (o *Oracle) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	r := &regionLog{name: spec.Name, elems: make([][]access, spec.Len)}
	o.regions[spec.Name] = r
	return &recorder{o: o, r: r}
}

// Footprint implements detect.Detector; the oracle is test-only.
func (o *Oracle) Footprint() detect.Footprint { return detect.Footprint{} }

type recorder struct {
	o *Oracle
	r *regionLog
}

func (rec *recorder) log(t *detect.Task, i int, isWrite bool) {
	for i >= len(rec.r.elems) {
		rec.r.elems = append(rec.r.elems, nil)
	}
	cur := t.State.(*taskState).cur
	rec.r.elems[i] = append(rec.r.elems[i], access{step: cur.id, isWrite: isWrite})
}

func (rec *recorder) Read(t *detect.Task, i int)  { rec.log(t, i, false) }
func (rec *recorder) Write(t *detect.Task, i int) { rec.log(t, i, true) }

// bitset is a fixed-size bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) or(o bitset) {
	for i := range o {
		b[i] |= o[i]
	}
}

// finalize computes the transitive reachability of every step. Step IDs
// are assigned in creation order during a sequential execution, which is
// a topological order of the DAG, so a single reverse sweep suffices.
func (o *Oracle) finalize() {
	if o.reach != nil {
		return
	}
	n := len(o.steps)
	o.reach = make([]bitset, n)
	for i := n - 1; i >= 0; i-- {
		b := newBitset(n)
		b.set(i)
		for _, s := range o.steps[i].succs {
			b.or(o.reach[s])
		}
		o.reach[i] = b
	}
}

// MHP reports whether steps a and b (by id) may happen in parallel:
// neither reaches the other.
func (o *Oracle) MHP(a, b int) bool {
	o.finalize()
	if a == b {
		return false
	}
	return !o.reach[a].get(b) && !o.reach[b].get(a)
}

// Steps returns the number of recorded steps.
func (o *Oracle) Steps() int { return len(o.steps) }

// Races returns the ground-truth set of racy locations: every (region,
// index) with two conflicting accesses on parallel steps.
func (o *Oracle) Races() []detect.Race {
	o.finalize()
	var out []detect.Race
	for name, r := range o.regions {
		for i, log := range r.elems {
			if race, a, b := raceIn(o, log); race {
				out = append(out, detect.Race{
					Region:   name,
					Index:    i,
					PrevStep: fmt.Sprintf("step#%d", a),
					CurStep:  fmt.Sprintf("step#%d", b),
				})
			}
		}
	}
	return out
}

// HasRace reports whether any location races.
func (o *Oracle) HasRace() bool {
	o.finalize()
	for _, r := range o.regions {
		for _, log := range r.elems {
			if race, _, _ := raceIn(o, log); race {
				return true
			}
		}
	}
	return false
}

// raceIn scans one element's access log for a conflicting parallel pair.
func raceIn(o *Oracle, log []access) (bool, int, int) {
	for i := 0; i < len(log); i++ {
		for j := i + 1; j < len(log); j++ {
			if !log[i].isWrite && !log[j].isWrite {
				continue
			}
			if log[i].step == log[j].step {
				continue
			}
			if o.MHP(log[i].step, log[j].step) {
				return true, log[i].step, log[j].step
			}
		}
	}
	return false, 0, 0
}

var _ detect.Detector = (*Oracle)(nil)
