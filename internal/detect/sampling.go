package detect

import (
	"sync/atomic"

	"spd3/internal/sample"
	"spd3/internal/stats"
)

// wrapSampled gates d's shadows behind smp. The wrapper preserves the
// inner detector's optional BarrierObserver interface (losing it would
// change FastTrack's verdict on barrier-phased programs, which sampling
// must never do).
func wrapSampled(d Detector, smp *sample.Sampler) Detector {
	sd := &sampledDetector{inner: d, smp: smp}
	if bo, ok := d.(BarrierObserver); ok {
		return &sampledBarrierDetector{sampledDetector: sd, bo: bo}
	}
	return sd
}

// sampledDetector is the one sampling gate, wrapped by New around every
// registry detector when a sampler is enabled: structural events
// pass straight through (sampling must never distort the task tree or
// lock state, only which accesses are checked) and shadows are gated,
// counting each admit or skip into the executing goroutine's Tally.
type sampledDetector struct {
	inner Detector
	smp   *sample.Sampler
	ids   atomic.Int64
}

func (d *sampledDetector) Name() string             { return d.inner.Name() }
func (d *sampledDetector) RequiresSequential() bool { return d.inner.RequiresSequential() }

func (d *sampledDetector) MainTask(t *Task, implicit *Finish) {
	d.smp.Step(&t.Sample)
	d.inner.MainTask(t, implicit)
}

// BeforeSpawn starts the child's first step and, as in the DPST (§3.1),
// the parent's continuation step: both burst epochs advance.
func (d *sampledDetector) BeforeSpawn(parent, child *Task) {
	d.smp.Step(&child.Sample)
	d.smp.Step(&parent.Sample)
	d.inner.BeforeSpawn(parent, child)
}

func (d *sampledDetector) TaskEnd(t *Task) { d.inner.TaskEnd(t) }

// FinishStart and FinishEnd advance the burst epoch: detectors without
// a step notion still get "one span out of N" sampling at finish-scope
// granularity, the closest structural analogue.
func (d *sampledDetector) FinishStart(t *Task, f *Finish) {
	d.smp.Step(&t.Sample)
	d.inner.FinishStart(t, f)
}

func (d *sampledDetector) FinishEnd(t *Task, f *Finish) {
	d.smp.Step(&t.Sample)
	d.inner.FinishEnd(t, f)
}

func (d *sampledDetector) Acquire(t *Task, l *Lock) { d.inner.Acquire(t, l) }
func (d *sampledDetector) Release(t *Task, l *Lock) { d.inner.Release(t, l) }
func (d *sampledDetector) Footprint() Footprint     { return d.inner.Footprint() }

func (d *sampledDetector) NewShadow(spec ShadowSpec) Shadow {
	return &sampledShadow{d: d, id: uint64(d.ids.Add(1)), inner: d.inner.NewShadow(spec)}
}

// sampledBarrierDetector additionally forwards barrier events.
type sampledBarrierDetector struct {
	*sampledDetector
	bo BarrierObserver
}

func (d *sampledBarrierDetector) BarrierArrive(t *Task, b *BarrierInfo, gen int) {
	d.bo.BarrierArrive(t, b, gen)
}

func (d *sampledBarrierDetector) BarrierDepart(t *Task, b *BarrierInfo, gen int) {
	d.bo.BarrierDepart(t, b, gen)
}

// sampledShadow gates one region's checks.
type sampledShadow struct {
	d     *sampledDetector
	id    uint64
	inner Shadow
}

func (s *sampledShadow) admit(t *Task, i int) bool {
	if !s.d.smp.Admit(&t.Sample, s.id, i) {
		t.L.Tally[stats.SampleSkipped]++
		return false
	}
	t.L.Tally[stats.SampleChecked]++
	return true
}

func (s *sampledShadow) Read(t *Task, i int) {
	if s.admit(t, i) {
		s.inner.Read(t, i)
	}
}

func (s *sampledShadow) Write(t *Task, i int) {
	if s.admit(t, i) {
		s.inner.Write(t, i)
	}
}

var (
	_ Detector        = (*sampledDetector)(nil)
	_ BarrierObserver = (*sampledBarrierDetector)(nil)
)
