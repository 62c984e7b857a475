package detect

import (
	"time"

	"spd3/internal/sample"
	"spd3/internal/stats"
)

// SessionOpts configures Open. The zero value is a log-mode sink with the
// default race cap, stats on, and every check run.
type SessionOpts struct {
	// Halt stops checking after the first race (the paper's semantics);
	// otherwise races are deduplicated per location up to MaxRaces
	// (0 means the sink's default).
	Halt     bool
	MaxRaces int
	// OnRace, when non-nil, streams each distinct race to the callback
	// instead of buffering it (see Sink.SetOnRace).
	OnRace func(Race) bool
	// CaptureSites appends the completing access's file:line to kept
	// races (see Sink.SetCaptureSites).
	CaptureSites bool
	// NoStats leaves the session without a recorder: Rec is nil and
	// Snapshot carries only the footprint.
	NoStats bool
	// Sampler gates the detector's checks. One with an overhead budget is
	// fed one observation by every Snapshot.
	Sampler *sample.Sampler
	// Owned promises that one goroutine makes all of the detector's
	// memory actions: a replay, or a run under the sequential executor.
	// It reaches the factory as FactoryOpts.Owned; see Owned.
	Owned bool
}

// Session is one assembled detection run: a race sink (with the sampler,
// when sampling is configured), the stats recorder it and the detector
// count into, and the named detector built over both. It is the one place
// they are wired together; the engine, the cmd tools, the daemon's shard
// replay and the harness all open one.
type Session struct {
	Det     Detector
	Sink    *Sink
	Rec     *stats.Recorder // nil under NoStats
	Sampler *sample.Sampler // SessionOpts.Sampler; nil when every check runs
}

// Open builds the named registry detector and everything it reports to.
func Open(name string, o SessionOpts) (*Session, error) {
	s := &Session{Sink: NewSink(o.Halt, o.MaxRaces), Sampler: o.Sampler}
	if !o.NoStats {
		s.Rec = stats.New()
		s.Sink.SetStats(s.Rec)
	}
	s.Sink.SetOnRace(o.OnRace)
	s.Sink.SetCaptureSites(o.CaptureSites)
	s.Sink.SetSampler(o.Sampler)
	det, err := New(name, FactoryOpts{Sink: s.Sink, Stats: s.Rec, Owned: o.Owned})
	if err != nil {
		return nil, err
	}
	s.Det = det
	return s, nil
}

// Snapshot merges the recorder's counters, folds in the detector's
// footprint and feeds the sampler one observation of those counts over
// wall — the duration of the run or replay that produced them. Without
// a sampler or its budget the observation does nothing.
func (s *Session) Snapshot(wall time.Duration) stats.Snapshot {
	snap := s.Rec.Snapshot()
	snap.Footprint = s.Det.Footprint()
	s.Sampler.ObserveSnapshot(snap, wall)
	return snap
}
