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
// — two 64-bit words, w and r1:32|r2:32, the steps held as their 32-bit
// DPST ids, by which the DMHP walk and race reports read the tree's arena
// — and each word is published on its own (cell.go). A write action
// computes its new w from w alone and publishes it with one CAS on the
// first word; a read action computes its new readers from r1 and r2
// alone and publishes them with one CAS on the second; each then loads the
// other word, only to report races. Because each side publishes before it
// observes the other and Go's atomics are sequentially consistent, a read
// and a parallel write of one cell cannot both miss each other, and each
// word's CAS decides on the value it compares alone, so no version is
// needed (the argument is written out at casShadow). An update action, a
// checked read-modify-write (detect.Update), is the read and then the
// write as one memory action. Memory actions that do not change the word
// — the common case for read-shared data — cost two loads and proceed
// fully in parallel. This departs from the paper's §5.4 versioned
// snapshot, under which a read that changes the readers takes three
// locked operations; EXPERIMENTS.md ("One CAS per publish", and "§5.4
// ablation" for the paper's per-word mutex) holds the measurements.
//
// The CAS is for parallel tasks. A detector is owned or shared, fixed
// when detect.Open builds it (detect.FactoryOpts.Owned) and never changed.
// An owned one — a trace replay, a run under the sequential executor — is
// driven by one goroutine from start to end, so nothing can come between
// a load and its publish: it publishes the same words with plain stores,
// with no CAS or retry (cell.go, "Owned"). The task runtime refuses an
// owned detector under a parallel executor, so the one goroutine is
// enforced where the detector is paired with its driver.
//
// The tree is also all the detector keeps per task and per finish: a
// task's Step is the id of its current step node, and its insertion scope
// — the innermost finish the task itself started, or else its own async
// node — is that node's parent, because each of §3.1's four insertion rules
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
	owned     bool   // one goroutine makes every memory action: plain-store publishes (cell.go)
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

// StepOf returns the id of t's current step node (for tests and
// tooling).
func (d *Detector) StepOf(t *detect.Task) uint32 { return t.Step }

// Name implements detect.Detector.
func (d *Detector) Name() string { return "spd3" }

// RequiresSequential implements detect.Detector: SPD3 runs in parallel.
func (d *Detector) RequiresSequential() bool { return false }

// relation answers DMHP for a recorded step a and the accessing step s,
// both by id, with the id of the side of their LCA the recorded step is
// on (0 for none). A step below the watermark (an empty field, id 0,
// always is) and s itself are in parallel with nothing and cost no walk,
// nor a read of the arena. Any other pair is looked up in the relation memo
// of l (detect.RelMemo), and only a miss makes the §5.2 walk, counted in
// l, and memoises its answer. relation is the watermark compare alone, so
// that it inlines into the checks (at the inliner's budget, which CI
// guards): the commonest query, a step of a closed phase, makes no call.
func (d *Detector) relation(l *detect.Local, a, s uint32) (bool, uint32) {
	if a < d.watermark {
		return false, 0
	}
	return d.lookup(l, a, s)
}

// lookup is relation past the watermark compare: s itself, the memo, and
// on a miss the walk.
func (d *Detector) lookup(l *detect.Local, a, s uint32) (parallel bool, side uint32) {
	if a == s {
		return false, 0
	}
	e := l.Memo.Slot(a, s)
	if e.A == a && e.S == s {
		return e.Parallel, e.Side
	}
	l.Tally[stats.DMHPWalk]++
	parallel, side = d.tree.DMHP(a, s)
	*e = detect.RelEntry{A: a, S: s, Side: side, Parallel: parallel}
	return parallel, side
}

// MainTask roots one run: a finish node under the tree root represents
// the implicit finish around main, and a first step node represents the
// main task's starting computation (§3.1). Each Run gets its own finish
// node so that a detector reused across several consecutive runs orders
// them correctly: a later run's steps are to the right of an earlier
// run's *finish* node, hence serialized after everything it joined — which
// is the watermark's invariant at the run node's id. The run node comes
// from the shared counter with the block of the driver's goroutine, when
// it has one here (replay keeps one block for every run; a live run's
// executor releases its blocks as the run ends), released first: under
// one owner the run node's id is the next one, as without blocks.
func (d *Detector) MainTask(t *detect.Task, _ *detect.Finish) {
	if t.L != nil {
		t.L.Nodes.Release()
	}
	run := d.tree.NewChildFrom(nil, 0, dpst.FinishNode)
	d.watermark, d.escaped = run, false
	t.Step = d.tree.NewChildFrom(nil, run, dpst.StepNode)
}

// BeforeSpawn implements §3.1 "Task creation": an async node becomes the
// rightmost child of the parent's current scope, a step node for the
// child's starting computation goes under it, and a step node for the
// parent's continuation becomes the async node's right sibling — one O(1),
// synchronization-free insertion of three nodes (dpst.Tree.SpawnFrom),
// their ids from the parent's goroutine's block. An async under the run
// node (depth 1: the spawner is the main task) outlives every top-level
// finish, so it pins the watermark.
func (d *Detector) BeforeSpawn(parent, child *detect.Task) {
	scope := d.tree.Parent(parent.Step)
	if d.tree.Depth(scope) == 1 {
		d.escaped = true
	}
	child.Step, parent.Step = d.tree.SpawnFrom(&parent.L.Nodes, scope)
}

// TaskEnd has no DPST effect: the join is represented by the finish node.
func (d *Detector) TaskEnd(*detect.Task) {}

// FinishStart implements §3.1 "Start Finish": a finish node under the
// current scope, plus a step node for the computation starting inside it.
// The finish becomes the task's insertion scope.
func (d *Detector) FinishStart(t *detect.Task, _ *detect.Finish) {
	fn := d.tree.NewChildFrom(&t.L.Nodes, d.tree.Parent(t.Step), dpst.FinishNode)
	t.Step = d.tree.NewChildFrom(&t.L.Nodes, fn, dpst.StepNode)
}

// FinishEnd implements §3.1 "End Finish": the finish that ends is t's
// scope (a task ends its innermost open finish), the scope reverts to its
// parent and a step node for the continuation goes there. The run-level
// finish, directly under the root, has no continuation — a test on the
// tree's shape, so no order of events inserts under the root. A top-level
// finish (depth 2) ending with no async beside it moves the watermark to
// its continuation, which then comes from the shared counter, not from
// t's block (rule R2 in package dpst): every id handed out before the move
// lies below it.
func (d *Detector) FinishEnd(t *detect.Task, _ *detect.Finish) {
	fn := d.tree.Parent(t.Step)
	scope := d.tree.Parent(fn)
	if scope == 0 {
		return
	}
	if d.tree.Depth(fn) != 2 || d.escaped {
		t.Step = d.tree.NewChildFrom(&t.L.Nodes, scope, dpst.StepNode)
		return
	}
	t.L.Nodes.Release()
	t.Step = d.tree.NewChildFrom(nil, scope, dpst.StepNode)
	d.watermark = t.Step
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

// stepName names the step id in race reports.
func (d *Detector) stepName(id uint32) string { return d.tree.Name(id) }

var _ detect.Detector = (*Detector)(nil)
