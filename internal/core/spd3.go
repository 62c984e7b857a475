// Package core implements SPD3 — the paper's primary contribution: a
// Scalable Precise Dynamic Datarace Detector for structured parallelism
// (Raman et al., PLDI 2012, §4–§5).
//
// The detector maintains a Dynamic Program Structure Tree (package dpst)
// mirroring the async/finish structure of the execution, and a three-field
// shadow word per monitored memory element:
//
//	w  — the step that last wrote the element
//	r1 — a step that read the element
//	r2 — another step that read the element
//
// Invariant (§4.1): w is the last writer; every step that read the element
// since the last synchronization lies in the subtree rooted at
// LCA(r1, r2). Keeping just two readers is sufficient because any future
// access parallel to a discarded reader is also parallel to r1 or r2, so
// no race is missed — this is what gives SPD3 its O(1) space per location.
//
// On each access, Algorithms 1 (write) and 2 (read) query DMHP against the
// recorded steps and update the shadow word. The shadow word is 16 bytes
// — two 64-bit words, version:32|w:32 and r1:32|r2:32, the steps held
// as 32-bit ids into the DPST's arena and resolved to nodes only when a
// DMHP walk or a race report needs one — synchronized by §5.4's
// Lamport-style versioned snapshots (seqlock.go): a memory action takes a
// consistent snapshot bracketed by two loads of the version word; a write
// action, which changes only w, publishes with one CAS on that word; a
// read action, which changes r1/r2, CASes the version odd, stores the
// readers and stores the version even again; an update action, a checked
// read-modify-write (detect.Update), runs Algorithm 2 and then 1 on one
// snapshot and publishes once, as whichever of the two it needs. Memory
// actions that do not change the word — the common case for read-shared
// data — cost three loads and proceed fully in parallel. (The per-word mutex the paper
// measures 1.8× slower was an ablation here until PR 16; EXPERIMENTS.md
// keeps its numbers.)
//
// The protocol is for parallel tasks. A detector is owned or shared, fixed
// when detect.Open builds it (detect.FactoryOpts.Owned) and never changed.
// An owned one — a trace replay, a run under the sequential executor — is
// driven by one goroutine from start to end, so nothing can come between
// a snapshot and its publish: it publishes the same words with plain
// stores, with no odd version, CAS or retry (seqlock.go, "Owned"). The
// task runtime refuses an owned detector under a parallel executor, so
// the one goroutine is enforced where the detector is paired with its
// driver.
//
// The tree is also all the detector keeps per task and per finish: a
// task's State is its current step node, and its insertion scope — the
// innermost finish the task itself started, or else its own async node —
// is that node's parent, because each of §3.1's four insertion rules
// creates the task's new step under the scope it leaves in force. That
// the finish which ends is the task's scope is the nesting rule of the
// detect event contract: the runtime keeps it, trace replay enforces it.
//
// One fact about the tree is kept beside it, the watermark: every node
// with an id below it is ordered before every step with an id at or above
// it, so a recorded step below it is "not parallel" by one compare — no
// walk, no touch of an old node — exactly as the walk would answer. It
// moves where the tree's shape proves that (DESIGN §7, invariant W): at a
// run's start (earlier runs hang under finish nodes to the left) and at the
// end of a top-level finish while the run node has no async child (all
// nodes so far lie under its step and finish children, all later ones to
// their right). It is a plain word: only the main task writes it, with no
// other task running, and every later reader is spawned after the write.
// Behind the watermark sits the relation memo of the executing goroutine
// (detect.RelMemo), so a step that meets one recorded step again does not
// walk again.
//
// The detector is one configuration: New takes the race sink and the
// stats recorder and nothing else. Check sampling is not this package's
// concern: the sink carries the sampler, and detect.Cells.At, which every
// memory action starts with, asks it before the action checks anything.
package core

import (
	"spd3/internal/detect"
	"spd3/internal/dpst"
	"spd3/internal/stats"
)

// Detector is the SPD3 race detector. Create with New; wire into a
// task.Runtime via Config.Detector.
type Detector struct {
	tree    *dpst.Tree
	st      *stats.Recorder
	regions *detect.Regions[casCell]

	watermark uint32 // see the package comment; never below 1
	escaped   bool   // the current run's node has an async child: the watermark stays
	owned     bool   // one goroutine makes every memory action: plain-store publishes (seqlock.go)
}

// New returns a shared SPD3 detector reporting to sink. rec is the engine's
// observability recorder; nil disables the detector's counters. The
// per-access counts go into the detect.Local of the goroutine executing
// the accessing task, which that goroutine's owner flushes, so the
// steady-state cost per event is one non-atomic increment; rec itself is
// only touched off the hot path (page allocation, the retry histogram
// after a lost CAS).
func New(sink *detect.Sink, rec *stats.Recorder) *Detector {
	return &Detector{tree: dpst.New(), st: rec, regions: detect.NewRegions[casCell](sink, rec), watermark: 1}
}

func init() {
	detect.Register("spd3", func(o detect.FactoryOpts) detect.Detector {
		d := New(o.Sink, o.Stats)
		d.owned = o.Owned
		return d
	})
}

// Owned reports whether the detector was built owned (detect.Owned): its
// publishes are plain stores, so only one goroutine may drive it.
func (d *Detector) Owned() bool { return d.owned }

// Tree exposes the DPST (for tests and tooling).
func (d *Detector) Tree() *dpst.Tree { return d.tree }

// StepOf returns t's current step node (for tests and tooling).
func (d *Detector) StepOf(t *detect.Task) *dpst.Node { return step(t) }

// Name implements detect.Detector.
func (d *Detector) Name() string { return "spd3" }

// RequiresSequential implements detect.Detector: SPD3 runs in parallel.
func (d *Detector) RequiresSequential() bool { return false }

// relation answers DMHP for a recorded step, by id, and the accessing step
// s, with the id of the side of their LCA the recorded step is on (0 for
// none). A step below the watermark (an empty field, id 0, always is) and
// s itself are in parallel with nothing and cost no walk, nor the id's
// resolution to a node. Any other pair is looked up in the relation memo
// of l (detect.RelMemo), and only a miss makes the §5.2 walk, counted in
// l, and memoises its answer. relation is the watermark compare alone, so
// that it inlines into the checks (at the inliner's budget, which CI
// guards): the commonest query, a step of a closed phase, makes no call.
func (d *Detector) relation(l *detect.Local, a uint32, s *dpst.Node) (bool, uint32) {
	if a < d.watermark {
		return false, 0
	}
	return d.lookup(l, a, s)
}

// lookup is relation past the watermark compare: s itself, the memo, and
// on a miss the walk.
func (d *Detector) lookup(l *detect.Local, a uint32, s *dpst.Node) (parallel bool, side uint32) {
	if a == s.ID {
		return false, 0
	}
	e := l.Memo.Slot(a, s.ID)
	if e.A == a && e.S == s.ID {
		return e.Parallel, e.Side
	}
	l.Tally[stats.DMHPWalk]++
	parallel, c := dpst.DMHP(d.tree.Node(a), s)
	if c != nil {
		side = c.ID
	}
	*e = detect.RelEntry{A: a, S: s.ID, Side: side, Parallel: parallel}
	return parallel, side
}

// MainTask roots one run: a finish node under the tree root represents
// the implicit finish around main, and a first step node represents the
// main task's starting computation (§3.1). Each Run gets its own finish
// node so that a detector reused across several consecutive runs orders
// them correctly: a later run's steps are to the right of an earlier
// run's *finish* node, hence serialized after everything it joined — which
// is the watermark's invariant at the run node's id.
func (d *Detector) MainTask(t *detect.Task, _ *detect.Finish) {
	run := d.tree.NewChild(d.tree.Root(), dpst.FinishNode)
	d.watermark, d.escaped = run.ID, false
	t.State = d.tree.NewChild(run, dpst.StepNode)
}

// BeforeSpawn implements §3.1 "Task creation": an async node becomes the
// rightmost child of the parent's current scope, a step node for the
// child's starting computation goes under it, and a step node for the
// parent's continuation becomes the async node's right sibling — one O(1),
// synchronization-free insertion of three nodes (dpst.Tree.Spawn). An
// async under the run node (depth 1: the spawner is the main task) outlives
// every top-level finish, so it pins the watermark.
func (d *Detector) BeforeSpawn(parent, child *detect.Task) {
	scope := step(parent).Parent
	if scope.Depth() == 1 {
		d.escaped = true
	}
	child.State, parent.State = d.tree.Spawn(scope)
}

// TaskEnd has no DPST effect: the join is represented by the finish node.
func (d *Detector) TaskEnd(*detect.Task) {}

// FinishStart implements §3.1 "Start Finish": a finish node under the
// current scope, plus a step node for the computation starting inside it.
// The finish becomes the task's insertion scope.
func (d *Detector) FinishStart(t *detect.Task, _ *detect.Finish) {
	fn := d.tree.NewChild(step(t).Parent, dpst.FinishNode)
	t.State = d.tree.NewChild(fn, dpst.StepNode)
}

// FinishEnd implements §3.1 "End Finish": the finish that ends is t's
// scope (a task ends its innermost open finish), the scope reverts to its
// parent and a step node for the continuation goes there. The run-level
// finish, directly under the root, has no continuation — a test on the
// tree's shape, so no order of events inserts under the root. A top-level
// finish (depth 2) ending with no async beside it moves the watermark.
func (d *Detector) FinishEnd(t *detect.Task, _ *detect.Finish) {
	fn := step(t).Parent
	if fn.Parent == d.tree.Root() {
		return
	}
	cont := d.tree.NewChild(fn.Parent, dpst.StepNode)
	t.State = cont
	if fn.Depth() == 2 && !d.escaped {
		d.watermark = cont.ID
	}
}

// Acquire is a no-op: SPD3 targets lock-free async/finish programs (§2).
func (d *Detector) Acquire(*detect.Task, *detect.Lock) {}

// Release is a no-op; see Acquire.
func (d *Detector) Release(*detect.Task, *detect.Lock) {}

// Footprint implements detect.Detector. ShadowBytes is O(1) per monitored
// location; TreeBytes grows with the number of tasks, not threads.
func (d *Detector) Footprint() detect.Footprint {
	return detect.Footprint{
		ShadowBytes: d.regions.Bytes(),
		TreeBytes:   d.tree.Bytes(),
	}
}

// NewShadow implements detect.Detector: one shadow word per element.
func (d *Detector) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	return &casShadow{d: d, Cells: d.regions.New(spec)}
}

// word is a consistent snapshot of one shadow word: the ids (dpst.Node.ID)
// of the recorded steps, 0 where none is recorded — the root is never a
// step.
type word struct {
	w, r1, r2 uint32
}

// step extracts the current step of the accessing task, SPD3's whole
// per-task state; the task's insertion scope is the step's Parent.
func step(t *detect.Task) *dpst.Node { return t.State.(*dpst.Node) }

// stepName names the recorded step id in race reports.
func (d *Detector) stepName(id uint32) string { return d.tree.Node(id).String() }

// writeCheck is Algorithm 1. Given a snapshot of element i of c and the
// writing task's step s (its queries answered through l), it reports any
// races and returns the updated word and whether the word changed.
func (d *Detector) writeCheck(m word, l *detect.Local, s *dpst.Node, c *detect.Cells[casCell], i int) (word, bool) {
	if m.w == s.ID {
		// Same step rewrote the element; nothing can have changed
		// (a second write by the very step that already owns w).
		return m, false
	}
	if p, _ := d.relation(l, m.r1, s); p {
		c.Report(detect.ReadWrite, i, d.stepName(m.r1), s.String())
	}
	if p, _ := d.relation(l, m.r2, s); p {
		c.Report(detect.ReadWrite, i, d.stepName(m.r2), s.String())
	}
	if p, _ := d.relation(l, m.w, s); p {
		c.Report(detect.WriteWrite, i, d.stepName(m.w), s.String())
		return m, false
	}
	m.w = s.ID
	return m, true
}

// readCheck is Algorithm 2 with the null-reader cases made explicit.
// Given a snapshot of element i of c and the reading task's step s (its
// queries answered through l), it reports any races and returns the
// updated word and whether the word changed.
func (d *Detector) readCheck(m word, l *detect.Local, s *dpst.Node, c *detect.Cells[casCell], i int) (word, bool) {
	if m.r1 == s.ID || m.r2 == s.ID {
		// This step is already recorded; re-reading changes nothing.
		// (One of the paper's redundant-check eliminations, §5.5.)
		return m, false
	}
	if p, _ := d.relation(l, m.w, s); p {
		c.Report(detect.WriteRead, i, d.stepName(m.w), s.String())
	}
	p1, c1 := d.relation(l, m.r1, s)
	p2, c2 := d.relation(l, m.r2, s)
	switch {
	case !p1 && !p2:
		// s is ordered after every recorded reader (and, by the
		// discard-safety lemma, after every reader they cover):
		// s supersedes them both.
		m.r1 = s.ID
		m.r2 = 0
		return m, true
	case p1 && m.r2 == 0:
		// Second parallel reader: record it.
		m.r2 = s.ID
		return m, true
	case p1 && p2:
		// Keep the two of {r1, r2, s} whose LCA is highest. c1 and
		// c2 are (the ids of) the children of LCA(r1,s) and
		// LCA(r2,s) that r1 and r2 hang under. With s outside the
		// subtree under LCA(r1,r2) the two are one proper ancestor
		// of it, so c1 == c2, and replacing r1 with s lifts the
		// subtree to cover all three; with s inside, both are at or
		// below LCA(r1,r2) and no child of either holds r1 and r2
		// together.
		if c1 == c2 {
			m.r1 = s.ID
			return m, true
		}
		return m, false
	default:
		// s is parallel with exactly one recorded reader, which
		// places it inside the subtree under LCA(r1,r2): the
		// invariant already covers it, no update needed.
		return m, false
	}
}

var _ detect.Detector = (*Detector)(nil)
