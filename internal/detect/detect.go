// Package detect defines the event interface between the structured task
// runtime and a dynamic data-race detector.
//
// The runtime (package task) emits one event per structural operation of the
// program — task spawn, task end, finish start/end, lock acquire/release —
// and asks the detector to allocate one Shadow per instrumented memory
// region. Detectors implement the Detector interface; the engine wires
// exactly one detector into a run. Implementations in this repository:
//
//   - internal/core:      SPD3, the paper's contribution (parallel, O(1) space)
//   - internal/espbags:   ESP-bags (sequential depth-first baseline)
//   - internal/fasttrack: FastTrack (vector-clock baseline)
//   - internal/eraser:    Eraser (lockset baseline, imprecise)
//   - internal/graph:     precise computation-DAG oracle (testing)
//   - detect.Nop:         the uninstrumented baseline
//
// Shadow regions. A detector is its events, a cell type C and two per-cell
// rules, Read and Write. Its Shadow embeds a Cells[C] allocated from the
// detector's Regions[C] (cells.go), which own the rest, the same for every
// detector: the region's name in race reports, its paged storage
// (shadow.Pages), the shadow.pages_allocated count, the analytic shadow
// bytes (allocated cells × unsafe.Sizeof(C)), the gate and Cells.Report.
// The gate is one word of the sink's that Cells.At tests before every
// check: zero runs it; otherwise At returns nil once a halt-mode sink has
// stopped, and else runs the check only if the sink's sampler
// (Sink.SetSampler) admits it, counting sample.checked or sample.skipped.
//
// Event contract. A driver — the task runtime (package task) for a live
// run, package trace's replay for a recorded one — delivers all events
// from the goroutine currently running the task named in the event. The
// runtime keeps the rules below by construction, the lock rules for a
// program that releases every lock it takes. Replay, whose input is
// outside bytes, checks every one and refuses a trace that breaks one
// (trace.ErrMalformed): it is the contract's one executable statement, and
// tests check a live run by recording it and replaying the recording
// (internal/trace/tracetest).
//
//   - Known ids: MainTask starts a run, and only while no task of the run
//     before but its main task is live. Every other event names a live
//     task (spawned, or the run's main, and not yet ended), and an access
//     a declared region and an index within it. A child never takes the
//     id of a live task.
//   - BeforeSpawn(parent, child) is called in the parent before the child
//     can start, so detector state installed on child is visible to it.
//   - TaskEnd(t) is the last event of a task, delivered before the task's
//     completion is counted against its finish scope. The main task gets
//     no TaskEnd: its last event is the FinishEnd of the implicit finish.
//   - Join: FinishEnd(t, f) is delivered after every task registered in f
//     (and, transitively, their descendants registered in f) has
//     completed, and after all of their TaskEnd events.
//   - Nesting: a task's finishes are a stack, the main task's opening
//     with the implicit finish. FinishEnd(t, f) ends the innermost finish
//     t has open, and BeforeSpawn's child has that finish as its IEF —
//     t's own IEF when t has none open. A detector may therefore keep a
//     finish's saved state in the task, or derive it from the task's
//     position, instead of looking it up by f. A task ends every finish
//     it opens, its body panicked or not, so TaskEnd finds none open.
//   - Depth-first: under the sequential executor (a trace whose executor
//     byte says so) the tasks spawned and not ended form a stack, and
//     only the one on top acts. ESP-bags is sound on that order only, and
//     says so (DepthFirst): replay gives it only a trace recorded so.
//   - Locks: a task acquires only a lock no live task holds, releases
//     only a lock it holds, and holds none at its last event.
//
// Both drivers deliver MainTask, BeforeSpawn, FinishStart and FinishEnd
// through Main, Spawn, StartFinish and EndFinish, which advance the burst
// epoch of each task the event gives a DPST step node before they deliver
// it.
//
// The runtime establishes the corresponding happens-before edges with
// atomic operations, so a detector may hand state from TaskEnd to the
// matching FinishEnd without additional synchronization of its own.
//
// Scratch. What the check path needs besides the task — page cache,
// tallies, the relation memo, per-region counts — and the id blocks that
// spawns, finishes and DPST insertions draw from are a Local block owned
// by the goroutine that executes the task. Whoever owns a goroutine that
// executes tasks — a task runtime's worker, a replay — owns one block,
// points each task it starts to run at it (Task.L) and flushes it once,
// when the goroutine has run its last task; detectors flush nothing. A
// loop that interleaves several regions pays for neither: the page cache
// is keyed by (shadow.Pages id, page), and the region counts are a slice
// indexed by the region's registration number, exact for any number of
// regions. A count touches no word another goroutine reads until the
// flush.
package detect

import (
	"spd3/internal/ids"
	"spd3/internal/sample"
	"spd3/internal/shadow"
	"spd3/internal/stats"
)

// TaskID identifies a dynamic task instance: unique within a runtime, the
// main task of its first run 0. The task runtime's spawns take their ids
// from the executing goroutine's block (Local.Tasks), so under a parallel
// executor they are neither dense nor in spawn order; under the
// sequential executor, and across the runs of one runtime, they are both.
type TaskID int64

// Task is the runtime's record of one dynamic task instance. The detector
// owns the State field and may store arbitrary per-task state there.
type Task struct {
	ID  TaskID
	IEF *Finish // immediately enclosing finish at spawn time

	// State and Step are detector-private per-task state. They are
	// written by the detector during MainTask/BeforeSpawn (in the
	// parent's goroutine) and thereafter read and written only by the
	// task itself. A pointer stored in State allocates nothing; a
	// detector whose whole per-task state is one 32-bit id keeps it in
	// Step and leaves State nil: SPD3's is the id of the task's current
	// DPST step.
	State any
	Step  uint32

	// L is the scratch block of the goroutine executing the task, set by
	// the driver before the task's body starts to run: MainTask, and
	// BeforeSpawn for its child, may find it nil.
	L *Local

	// Sample is the task's check-sampling state: Main, Spawn, StartFinish
	// and EndFinish advance its epoch, and Cells.At hands it to the sink's
	// sampler. It is only touched from the task's own goroutine, and from
	// its parent's before the task starts.
	Sample sample.TaskState
}

// Local is the check path's scratch (see the package comment). Exactly
// one goroutine touches a block, so nothing in it is synchronized, and it
// outlives the tasks that borrow it: a page one task looked up is still
// cached for the next. A block counts against the regions of one
// stats.Recorder only, the one it is flushed into: a worker's and a
// replay's block each belong to one runtime or session, which has one
// recorder.
type Local struct {
	// PC is the shadow page cache, threaded through the paged shadow hot
	// path (shadow.Pages.CellOf).
	PC shadow.PageCache
	// Tally batches the counters below stats.NumBatched: a layer that
	// counts once per checked access or per task pays one non-atomic
	// increment.
	Tally [stats.NumBatched]int64
	// Memo is the relation memo of the detector whose tasks the block
	// runs (see RelMemo).
	Memo RelMemo

	// Nodes, Tasks and Finishes are the goroutine's blocks of DPST node,
	// task and finish ids (package ids): what lets an insertion, a spawn
	// and a finish draw their ids without a shared atomic. Flush releases
	// them.
	Nodes, Tasks, Finishes ids.Block

	// regs is the block's unpublished region traffic (CountAccess),
	// indexed by stats.Region.Index and grown on first touch.
	regs []regionCount
}

// RelMemo is a direct-mapped memo of DMHP answers, eight entries keyed
// (recorded step id, accessing step id), each holding whether the two
// steps may run in parallel and the side of their LCA the recorded step
// is on, by id (0 for none). SPD3 consults it after its watermark compare
// and walks the tree only on a miss. No entry is ever invalidated: a DPST
// node is written once, so the answer about two ids never changes, and a
// block serves one runtime, whose one detector owns the ids. The memo
// therefore costs nothing per task or per spawn. A consulted key never
// holds id 0 (the watermark answers it), so a zero entry matches nothing.
type RelMemo [relMemoSize]RelEntry

// relMemoSize is RelMemo's entry count: 128 bytes. Sixteen and sixty-four
// entries were measured too (EXPERIMENTS.md "Check-path caches").
const relMemoSize = 8

// RelEntry is one memoised answer; see RelMemo.
type RelEntry struct {
	A, S, Side uint32
	Parallel   bool
}

// Slot returns the entry that key (a, s) maps to, which holds its answer
// when e.A == a and e.S == s.
func (m *RelMemo) Slot(a, s uint32) *RelEntry {
	return &m[((a^s<<13)*0x9E3779B1)>>29]
}

// regionCount is the block's unpublished traffic against one region.
type regionCount struct{ reads, writes int64 }

// CountAccess records one instrumented read or write against region g
// (nil g — stats disabled — is a no-op). It pays no atomics: the counts
// reach g when the block is flushed.
func (l *Local) CountAccess(g *stats.Region, write bool) {
	if g == nil {
		return
	}
	i := g.Index()
	if i >= len(l.regs) {
		l.grow(i)
	}
	if write {
		l.regs[i].writes++
	} else {
		l.regs[i].reads++
	}
}

// grow extends regs to cover index i. Lengths are powers of two from eight
// entries up, so an allocation is a whole number of cache lines (128 bytes
// at least, its own size class): two blocks' counts never share a line.
func (l *Local) grow(i int) {
	n := 8
	for n <= i {
		n <<= 1
	}
	regs := make([]regionCount, n)
	copy(regs, l.regs)
	l.regs = regs
}

// Flush moves everything the block batched — the region counts, the Tally
// and the page cache's hit/miss tallies — into rec and zeroes it, and
// releases the id blocks; the cached pages and the relation memo stay.
// Only the block's owner calls it, from its goroutine.
// A nil recorder discards the tallies; it has no regions, so region counts
// (there are none in a run without a recorder) stay where they are.
func (l *Local) Flush(rec *stats.Recorder) {
	if rec != nil {
		regions := rec.Regions()
		for i, c := range l.regs {
			if c != (regionCount{}) {
				regions[i].Add(c.reads, c.writes)
			}
		}
		clear(l.regs)
	}
	l.Tally[stats.PageCacheHit], l.Tally[stats.PageCacheMiss] = l.PC.TakeCounts()
	for c, n := range l.Tally {
		rec.Add(stats.Counter(c), n)
	}
	l.Tally = [stats.NumBatched]int64{}
	l.Nodes.Release()
	l.Tasks.Release()
	l.Finishes.Release()
}

// Finish is the runtime's record of one dynamic finish instance, including
// the implicit finish that encloses the whole program; drivers embed it in
// their own per-finish record (task.scope). The detector owns State (SPD3
// leaves it nil: its finish is a DPST node, found from the task's step).
type Finish struct {
	ID int64

	// State is detector-private. Detectors that accumulate join state
	// (e.g. FastTrack's joined vector clock) must synchronize their own
	// access: TaskEnd events of sibling tasks can be concurrent.
	State any
}

// Lock is the runtime's record of one instrumented lock.
type Lock struct {
	ID    int64
	State any
}

// BarrierInfo is the runtime's record of one instrumented barrier. The
// detector owns State.
type BarrierInfo struct {
	ID    int64
	State any
}

// BarrierObserver is optionally implemented by detectors that understand
// barrier synchronization — the analogue of RoadRunner's special Barrier
// Enter/Exit events the paper discusses in §6.3: with them, FastTrack
// accepts the JGF programs' barrier-phased sharing; without them (SPD3,
// whose model is pure async/finish), cross-phase conflicts are reported.
//
// The runtime calls BarrierArrive(t, b, gen) under the barrier's mutex
// as each task reaches generation gen, and BarrierDepart(t, b, gen) from
// each task after that generation completed (these may be concurrent
// across tasks). The happens-before meaning: everything before any
// arrival of gen precedes everything after any departure of gen.
type BarrierObserver interface {
	BarrierArrive(t *Task, b *BarrierInfo, gen int)
	BarrierDepart(t *Task, b *BarrierInfo, gen int)
}

// AccessKind labels one side of a race.
type AccessKind uint8

const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// ShadowSpec describes one shadow region to allocate. The region is a
// dense index space: [0, Len) when fixed, unbounded (any non-negative
// index) when Growable. Construct fixed specs with Spec and growable
// ones with GrowableSpec, or fill the struct directly.
type ShadowSpec struct {
	// Name labels the region in race reports.
	Name string
	// Len is the element count of a fixed region; advisory for a
	// growable one (the initial extent, which may be 0).
	Len int
	// ElemBytes is the size of one shadowed program datum, for
	// footprint accounting.
	ElemBytes int
	// Growable marks a region whose index space extends on demand
	// (mem.List): the detector's shadow must accept any non-negative
	// index, extending page by page rather than reallocating.
	Growable bool
}

// Spec returns the ShadowSpec of a fixed region of n elements.
func Spec(name string, n, elemBytes int) ShadowSpec {
	return ShadowSpec{Name: name, Len: n, ElemBytes: elemBytes}
}

// GrowableSpec returns the ShadowSpec of a growable region.
func GrowableSpec(name string, elemBytes int) ShadowSpec {
	return ShadowSpec{Name: name, ElemBytes: elemBytes, Growable: true}
}

// Bound returns the region's paging bound: Len for a fixed region, -1
// (unbounded) for a growable one — the value shadow.New expects.
func (s ShadowSpec) Bound() int {
	if s.Growable {
		return -1
	}
	return s.Len
}

// Shadow is the detector's per-region shadow memory; element i shadows
// the program datum at index i of the region described by its
// ShadowSpec. Read and Write are called by the accessing task's
// goroutine and must be safe for concurrent use when the detector
// supports parallel execution.
type Shadow interface {
	Read(t *Task, i int)
	Write(t *Task, i int)
}

// Updater is optionally implemented by a Shadow that checks a
// read-modify-write of element i as one memory action. Its effect — the
// races reported and the state left behind — must be that of Read(t, i)
// followed by Write(t, i).
type Updater interface {
	Update(t *Task, i int)
}

// Update checks a read-modify-write of element i by t: one memory action
// when sh is an Updater, else Read and then Write.
func Update(sh Shadow, t *Task, i int) {
	if u, ok := sh.(Updater); ok {
		u.Update(t, i)
		return
	}
	sh.Read(t, i)
	sh.Write(t, i)
}

// Detector is implemented by every race-detection algorithm. Two facts
// are optional methods, each asked by one helper: Owned (the runtime
// then runs it sequentially) and DepthFirst (replay then feeds it only
// sequential traces).
type Detector interface {
	// Name returns a short stable identifier ("spd3", "fasttrack", ...).
	Name() string

	// MainTask announces the root task and its implicit enclosing finish.
	// It is the first event of a run.
	MainTask(t *Task, implicit *Finish)

	// BeforeSpawn announces a new child task. It runs in the parent's
	// goroutine before the child is made runnable.
	BeforeSpawn(parent, child *Task)

	// TaskEnd announces that t's body has finished. It runs in t's
	// goroutine and is t's final event.
	TaskEnd(t *Task)

	// FinishStart announces that t began executing a finish statement.
	FinishStart(t *Task, f *Finish)

	// FinishEnd announces that the finish f has joined all of its tasks.
	FinishEnd(t *Task, f *Finish)

	// Acquire and Release bracket instrumented critical sections.
	// Structured async/finish detectors (SPD3, ESP-bags) may ignore them.
	Acquire(t *Task, l *Lock)
	Release(t *Task, l *Lock)

	// NewShadow allocates shadow state for the instrumented region
	// spec describes. Paged implementations (every detector in this
	// repository) allocate no per-element state here: shadow pages
	// materialize lazily on first access, so a huge region that is
	// touched sparsely pays only for the pages it touches. Detectors
	// that cannot serve a growable region should document it and may
	// panic when handed one.
	NewShadow(spec ShadowSpec) Shadow

	// Footprint returns the detector's current analytic memory usage.
	Footprint() Footprint
}

// Main advances t's burst epoch and delivers MainTask(t, implicit).
func Main(det Detector, t *Task, implicit *Finish) {
	t.Sample.Step()
	det.MainTask(t, implicit)
}

// Spawn advances child's and then parent's burst epoch and delivers
// BeforeSpawn(parent, child).
func Spawn(det Detector, parent, child *Task) {
	child.Sample.Step()
	parent.Sample.Step()
	det.BeforeSpawn(parent, child)
}

// StartFinish advances t's burst epoch and delivers FinishStart(t, f).
func StartFinish(det Detector, t *Task, f *Finish) {
	t.Sample.Step()
	det.FinishStart(t, f)
}

// EndFinish advances t's burst epoch and delivers FinishEnd(t, f).
func EndFinish(det Detector, t *Task, f *Finish) {
	t.Sample.Step()
	det.FinishEnd(t, f)
}

// Footprint is a detector's analytic accounting of the bytes it allocated,
// mirroring the paper's Table 3 / Figure 6 memory comparison in a
// deterministic, GC-independent way. It is an alias of stats.Footprint so
// the engine can carry the same value inside a stats.Snapshot; see that
// package for the field documentation.
type Footprint = stats.Footprint

// Nop is the uninstrumented baseline: every event and access is a no-op.
// Engine uses it when no detector is configured; benchmark slowdowns are
// measured against it.
type Nop struct{}

func (Nop) Name() string                { return "base" }
func (Nop) MainTask(*Task, *Finish)     {}
func (Nop) BeforeSpawn(*Task, *Task)    {}
func (Nop) TaskEnd(*Task)               {}
func (Nop) FinishStart(*Task, *Finish)  {}
func (Nop) FinishEnd(*Task, *Finish)    {}
func (Nop) Acquire(*Task, *Lock)        {}
func (Nop) Release(*Task, *Lock)        {}
func (Nop) NewShadow(ShadowSpec) Shadow { return nopShadow{} }
func (Nop) Footprint() Footprint        { return Footprint{} }

type nopShadow struct{}

func (nopShadow) Read(*Task, int)   {}
func (nopShadow) Write(*Task, int)  {}
func (nopShadow) Update(*Task, int) {}
