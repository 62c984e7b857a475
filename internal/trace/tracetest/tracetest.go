// Package tracetest checks a live run against the event contract of
// package detect. Trace replay is the contract's one executable
// statement, so a checked run is a recorded one: Wrap tees every event
// and access its detector is handed to a trace.Recorder, and Check
// replays the recording. Like net/http/httptest it is for tests only.
package tracetest

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"spd3/internal/detect"
	"spd3/internal/trace"
)

// Detector records every event and access, then delivers it to the
// detector it wraps. The Recorder serialises what it writes, so it is
// safe under any executor. No trace carries a barrier, so Detector hides
// detect.BarrierObserver: wrap no program that uses barriers.
type Detector struct {
	detect.Detector
	rec   *trace.Recorder
	buf   bytes.Buffer
	stale atomic.Int64 // finishes that started with detector state on them
}

// Wrap returns det wrapped. Set sequential for a run under the
// depth-first executor, whose recording replay then holds to that order.
func Wrap(det detect.Detector, sequential bool) *Detector {
	d := &Detector{Detector: det}
	d.rec = trace.NewRecorder(&d.buf, sequential)
	return d
}

// Owned is det's (detect.Owned), so the runtime pairs the wrapper with
// the executors it pairs det with.
func (d *Detector) Owned() bool { return detect.Owned(d.Detector) }

func (d *Detector) MainTask(t *detect.Task, f *detect.Finish) {
	d.rec.MainTask(t, f)
	d.Detector.MainTask(t, f)
}

func (d *Detector) BeforeSpawn(parent, child *detect.Task) {
	d.rec.BeforeSpawn(parent, child)
	d.Detector.BeforeSpawn(parent, child)
}

func (d *Detector) TaskEnd(t *detect.Task) { d.rec.TaskEnd(t); d.Detector.TaskEnd(t) }

// FinishStart also counts a finish that arrives with detector state: a
// recycled scope must arrive as a new one would, which no trace carries.
func (d *Detector) FinishStart(t *detect.Task, f *detect.Finish) {
	if f.State != nil {
		d.stale.Add(1)
	}
	d.rec.FinishStart(t, f)
	d.Detector.FinishStart(t, f)
}

func (d *Detector) FinishEnd(t *detect.Task, f *detect.Finish) {
	d.rec.FinishEnd(t, f)
	d.Detector.FinishEnd(t, f)
}

func (d *Detector) Acquire(t *detect.Task, l *detect.Lock) {
	d.rec.Acquire(t, l)
	d.Detector.Acquire(t, l)
}

func (d *Detector) Release(t *detect.Task, l *detect.Lock) {
	d.rec.Release(t, l)
	d.Detector.Release(t, l)
}

func (d *Detector) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	return shadow{d.rec.NewShadow(spec), d.Detector.NewShadow(spec)}
}

// shadow tees accesses. Update checks through detect.Update, so a fused
// shadow keeps its one memory action.
type shadow struct{ rec, det detect.Shadow }

func (s shadow) Read(t *detect.Task, i int)   { s.rec.Read(t, i); s.det.Read(t, i) }
func (s shadow) Write(t *detect.Task, i int)  { s.rec.Write(t, i); s.det.Write(t, i) }
func (s shadow) Update(t *detect.Task, i int) { detect.Update(s.rec, t, i); detect.Update(s.det, t, i) }

// Counts are the events of a recording.
type Counts struct{ Runs, Spawns, TaskEnds, FinishStarts, FinishEnds int }

// counter is the detector Check replays into.
type counter struct {
	detect.Nop
	Counts
}

func (c *counter) MainTask(*detect.Task, *detect.Finish)    { c.Runs++ }
func (c *counter) BeforeSpawn(_, _ *detect.Task)            { c.Spawns++ }
func (c *counter) TaskEnd(*detect.Task)                     { c.TaskEnds++ }
func (c *counter) FinishStart(*detect.Task, *detect.Finish) { c.FinishStarts++ }
func (c *counter) FinishEnd(*detect.Task, *detect.Finish)   { c.FinishEnds++ }

// Trace returns the recording so far. Call it, like Check, after Run.
func (d *Detector) Trace() []byte {
	d.rec.Close() //nolint:errcheck // a bytes.Buffer does not fail
	return d.buf.Bytes()
}

// Check replays the recording so far and returns its counts. It fails
// when replay refuses the recording, when a run did not complete (a
// spawned task without its TaskEnd, a finish, the implicit one included,
// without its FinishEnd) and when a finish started with detector state.
func (d *Detector) Check() (Counts, error) {
	c := &counter{}
	if err := trace.Replay(bytes.NewReader(d.Trace()), c); err != nil {
		return c.Counts, err
	}
	n := c.Counts
	switch {
	case n.TaskEnds != n.Spawns:
		return n, fmt.Errorf("tracetest: %d spawns, %d TaskEnds", n.Spawns, n.TaskEnds)
	case n.FinishEnds != n.FinishStarts+n.Runs:
		return n, fmt.Errorf("tracetest: %d runs and %d FinishStarts, %d FinishEnds", n.Runs, n.FinishStarts, n.FinishEnds)
	case d.stale.Load() > 0:
		return n, fmt.Errorf("tracetest: %d finishes started with another finish's detector state", d.stale.Load())
	}
	return n, nil
}
