// Package fasttrack reimplements the FastTrack race detector (Flanagan &
// Freund, PLDI 2009) as the paper's unstructured-parallelism baseline
// (§6.3, §6.4).
//
// FastTrack tracks happens-before with vector clocks, using lightweight
// epochs (clock@tid) for the common same-thread cases and inflating the
// per-location read metadata to a full vector clock only when reads are
// concurrent. Here one clock slot is assigned per *task*: the
// happens-before edges are async spawn (parent → child) and finish join
// (every task of the scope → the owner's continuation), plus lock
// release/acquire edges for instrumented mutexes.
//
// This reproduces FastTrack's characteristic costs that SPD3 avoids:
// spawn/join operations cost O(n) clock work, and read-shared locations
// hold O(n) metadata, where n is the number of concurrent tasks. The
// paper's Table 2/3 and Figures 5/6 compare these costs against SPD3's
// constants; the chunked (one task per worker) benchmark variants match
// the thread-per-core configuration FastTrack was measured with.
package fasttrack

import (
	"fmt"
	"sync"

	"spd3/internal/detect"
	"spd3/internal/stats"
	"spd3/internal/vc"
)

// Detector is the FastTrack baseline detector.
type Detector struct {
	regions *detect.Regions[ftVar]

	mu    sync.Mutex
	tids  vc.TID
	tasks []*taskState
	locks []*lockState
}

// New returns a FastTrack detector reporting to sink and counting into
// rec (nil is fine).
func New(sink *detect.Sink, rec *stats.Recorder) *Detector {
	return &Detector{regions: detect.NewRegions[ftVar](sink, rec)}
}

func init() {
	detect.Register("fasttrack", func(o detect.FactoryOpts) detect.Detector { return New(o.Sink, o.Stats) })
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return "fasttrack" }

// RequiresSequential implements detect.Detector: FastTrack runs in
// parallel.
func (d *Detector) RequiresSequential() bool { return false }

// taskState is the per-task analysis state. The clock is owned by the
// task's goroutine between events; the runtime's spawn/join edges hand it
// over safely.
type taskState struct {
	tid vc.TID
	c   *vc.VC
}

// epoch returns the task's current epoch E(t).
func (ts *taskState) epoch() vc.Epoch { return ts.c.Epoch(ts.tid) }

// finishState accumulates the joined clock of every task that ended in
// the scope. TaskEnds of sibling tasks may be concurrent, hence the lock.
type finishState struct {
	mu  sync.Mutex
	acc *vc.VC
}

// lockState is the vector clock of an instrumented lock.
type lockState struct {
	c *vc.VC
}

func (d *Detector) newTID() vc.TID {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tids
	d.tids++
	return t
}

// MainTask implements detect.Detector.
func (d *Detector) MainTask(t *detect.Task, implicit *detect.Finish) {
	ts := &taskState{tid: d.newTID(), c: vc.New()}
	ts.c.Set(ts.tid, 1)
	t.State = ts
	implicit.State = &finishState{acc: vc.New()}
	d.mu.Lock()
	d.tasks = append(d.tasks, ts)
	d.mu.Unlock()
}

// BeforeSpawn implements the fork edge: the child starts with a copy of
// the parent's clock plus its own fresh component; the parent then ticks
// so its later accesses are not ordered before the child.
func (d *Detector) BeforeSpawn(parent, child *detect.Task) {
	ps := parent.State.(*taskState)
	cs := &taskState{tid: d.newTID(), c: ps.c.Copy()}
	cs.c.Set(cs.tid, 1)
	child.State = cs
	ps.c.Tick(ps.tid)
	d.mu.Lock()
	d.tasks = append(d.tasks, cs)
	d.mu.Unlock()
}

// TaskEnd implements half of the join edge: the ending task's clock flows
// into its IEF's accumulator.
func (d *Detector) TaskEnd(t *detect.Task) {
	ts := t.State.(*taskState)
	fs := t.IEF.State.(*finishState)
	fs.mu.Lock()
	fs.acc.Join(ts.c)
	fs.mu.Unlock()
}

// FinishStart implements detect.Detector.
func (d *Detector) FinishStart(t *detect.Task, f *detect.Finish) {
	f.State = &finishState{acc: vc.New()}
}

// FinishEnd implements the other half of the join edge: the owner's clock
// absorbs the accumulated clocks of every joined task.
func (d *Detector) FinishEnd(t *detect.Task, f *detect.Finish) {
	ts := t.State.(*taskState)
	fs := f.State.(*finishState)
	// No lock needed: the runtime guarantees all TaskEnds of the scope
	// happened before this event.
	ts.c.Join(fs.acc)
	ts.c.Tick(ts.tid)
}

// Acquire implements the lock acquire edge.
func (d *Detector) Acquire(t *detect.Task, l *detect.Lock) {
	ts := t.State.(*taskState)
	ls := d.lockState(l)
	ts.c.Join(ls.c)
}

// Release implements the lock release edge.
func (d *Detector) Release(t *detect.Task, l *detect.Lock) {
	ts := t.State.(*taskState)
	ls := d.lockState(l)
	ls.c.Assign(ts.c)
	ts.c.Tick(ts.tid)
}

// barrierState holds per-generation joined clocks. Generations complete
// strictly in order, but departures of generation g can race with
// arrivals of generation g+1, hence the lock.
type barrierState struct {
	mu   sync.Mutex
	gens map[int]*vc.VC
}

// BarrierArrive implements detect.BarrierObserver: the arriving task's
// clock joins the generation's clock. This mirrors RoadRunner's special
// barrier events (§6.3), which is what let FastTrack accept the JGF
// programs' barrier-phased sharing.
func (d *Detector) BarrierArrive(t *detect.Task, b *detect.BarrierInfo, gen int) {
	ts := t.State.(*taskState)
	bs := d.barrierState(b)
	bs.mu.Lock()
	acc := bs.gens[gen]
	if acc == nil {
		acc = vc.New()
		bs.gens[gen] = acc
	}
	acc.Join(ts.c)
	bs.mu.Unlock()
}

// BarrierDepart implements detect.BarrierObserver: the departing task's
// clock absorbs the generation's joined clock, ordering it after every
// participant's pre-barrier work.
func (d *Detector) BarrierDepart(t *detect.Task, b *detect.BarrierInfo, gen int) {
	ts := t.State.(*taskState)
	bs := d.barrierState(b)
	bs.mu.Lock()
	acc := bs.gens[gen]
	bs.mu.Unlock()
	if acc != nil {
		ts.c.Join(acc)
	}
	ts.c.Tick(ts.tid)
}

func (d *Detector) barrierState(b *detect.BarrierInfo) *barrierState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if b.State == nil {
		b.State = &barrierState{gens: make(map[int]*vc.VC)}
	}
	return b.State.(*barrierState)
}

func (d *Detector) lockState(l *detect.Lock) *lockState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l.State == nil {
		ls := &lockState{c: vc.New()}
		l.State = ls
		d.locks = append(d.locks, ls)
	}
	return l.State.(*lockState)
}

// Footprint sums epochs, read vector clocks, task clocks, and lock clocks
// — the quantities whose growth with parallelism the paper's Table 3 and
// Figure 6 chart.
func (d *Detector) Footprint() detect.Footprint {
	f := detect.Footprint{ShadowBytes: d.regions.Bytes()}
	d.regions.Range(func(v *ftVar) {
		v.mu.Lock()
		if v.rv != nil {
			f.ShadowBytes += v.rv.Bytes()
		}
		v.mu.Unlock()
	})
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ts := range d.tasks {
		f.ClockBytes += ts.c.Bytes()
	}
	for _, ls := range d.locks {
		f.ClockBytes += ls.c.Bytes()
	}
	return f
}

// NewShadow implements detect.Detector.
func (d *Detector) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	return &regionShadow{d.regions.New(spec)}
}

// ftVar is the per-location FastTrack state: a write epoch and either a
// read epoch (exclusive) or a read vector clock (shared).
type ftVar struct {
	mu sync.Mutex
	w  vc.Epoch
	r  vc.Epoch
	rv *vc.VC // non-nil iff read-shared
}

type regionShadow struct{ detect.Cells[ftVar] }

// tidName names the task holding clock slot tid in race reports.
func tidName(tid vc.TID) string { return fmt.Sprintf("task@tid%d", tid) }

// Read implements the [FT READ] rules.
func (s *regionShadow) Read(t *detect.Task, i int) {
	v := s.At(t, i)
	if v == nil {
		return
	}
	ts := t.State.(*taskState)
	v.mu.Lock()
	defer v.mu.Unlock()

	// Same-epoch fast paths.
	if v.r == ts.epoch() {
		return
	}
	if v.rv != nil && v.rv.Get(ts.tid) == ts.c.Get(ts.tid) {
		return
	}
	// Write-read check.
	if !v.w.LEQ(ts.c) {
		s.Report(detect.WriteRead, i, v.w.String(), tidName(ts.tid))
	}
	if v.rv != nil {
		// Read shared.
		v.rv.Set(ts.tid, ts.c.Get(ts.tid))
		return
	}
	if v.r == vc.Zero || v.r.LEQ(ts.c) {
		// Read exclusive.
		v.r = ts.epoch()
		return
	}
	// Inflate to a read vector clock (share).
	v.rv = vc.New()
	v.rv.Set(v.r.TID(), v.r.Clock())
	v.rv.Set(ts.tid, ts.c.Get(ts.tid))
	v.r = vc.Zero
}

// Write implements the [FT WRITE] rules.
func (s *regionShadow) Write(t *detect.Task, i int) {
	v := s.At(t, i)
	if v == nil {
		return
	}
	ts := t.State.(*taskState)
	v.mu.Lock()
	defer v.mu.Unlock()

	// Same-epoch fast path.
	if v.w == ts.epoch() {
		return
	}
	// Write-write check.
	if !v.w.LEQ(ts.c) {
		s.Report(detect.WriteWrite, i, v.w.String(), tidName(ts.tid))
	}
	// Read-write checks.
	if v.rv != nil {
		if bad := v.rv.AnyGT(ts.c); bad >= 0 {
			s.Report(detect.ReadWrite, i, tidName(bad), tidName(ts.tid))
		}
		// Write shared: clear the read clock.
		v.rv = nil
		v.r = vc.Zero
	} else if v.r != vc.Zero && !v.r.LEQ(ts.c) {
		s.Report(detect.ReadWrite, i, v.r.String(), tidName(ts.tid))
	}
	v.w = ts.epoch()
}

var _ detect.Detector = (*Detector)(nil)
