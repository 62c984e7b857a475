package detect

import (
	"fmt"
	"path"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"spd3/internal/sample"
	"spd3/internal/stats"
)

// RaceKind classifies a detected race by the order and kinds of the two
// conflicting accesses, matching the paper's read-write / write-read /
// write-write terminology in Algorithms 1 and 2.
type RaceKind uint8

const (
	ReadWrite  RaceKind = iota // earlier read, current write (Algorithm 1)
	WriteWrite                 // earlier write, current write (Algorithm 1)
	WriteRead                  // earlier write, current read  (Algorithm 2)
)

func (k RaceKind) String() string {
	switch k {
	case ReadWrite:
		return "read-write"
	case WriteWrite:
		return "write-write"
	case WriteRead:
		return "write-read"
	default:
		return fmt.Sprintf("RaceKind(%d)", uint8(k))
	}
}

// Race describes one detected data race: two conflicting accesses to the
// same element of an instrumented region that may happen in parallel.
type Race struct {
	Kind   RaceKind
	Region string // label passed to NewShadow
	Index  int    // element index within the region

	// PrevStep and CurStep identify the two conflicting steps using
	// detector-specific step identifiers (DPST node IDs for SPD3, task
	// IDs for the baselines). They are informational.
	PrevStep string
	CurStep  string
}

func (r Race) String() string {
	return fmt.Sprintf("%s race on %s[%d] between %s and %s",
		r.Kind, r.Region, r.Index, r.PrevStep, r.CurStep)
}

// key is the deduplication key: one report per (kind, region, element).
type key struct {
	kind   RaceKind
	region string
	index  int
}

// Sink collects race reports from a detector. It is safe for concurrent
// use. Depending on configuration it either records the first race and
// requests a halt (the paper's semantics) or deduplicates and keeps going
// (needed to benchmark Eraser, whose false positives would otherwise stop
// every run). An OnRace callback switches the sink from buffering to
// streaming: distinct races are delivered to the callback instead of the
// races slice, so arbitrarily long runs never accumulate reports.
type Sink struct {
	// gate is the word every region's accessor (Cells.At) tests: zero
	// means check, gateStopped that a halt-mode sink has stopped,
	// gateSampled that the sampler decides which checks run.
	gate    atomic.Uint32
	sampler *sample.Sampler

	mu     sync.Mutex
	halt   bool // halt on first race
	sites  bool // append the completing access's file:line to CurStep
	seen   map[key]struct{}
	races  []Race
	capped bool
	limit  int

	onRace func(Race) bool
	st     *stats.Recorder
}

// NewSink returns a race sink. If haltFirst is true the first report
// triggers Halted; otherwise reports are deduplicated up to limit
// (0 means a default of 1024).
func NewSink(haltFirst bool, limit int) *Sink {
	if limit <= 0 {
		limit = 1024
	}
	return &Sink{halt: haltFirst, seen: make(map[key]struct{}), limit: limit}
}

// SetOnRace switches the sink to streaming mode: each distinct race is
// delivered to fn instead of being buffered (Races and RacesSince stay
// empty). fn returning true halts detection like a halt-mode first report.
// fn runs outside the sink's lock and may be invoked concurrently when
// distinct races are detected on different workers at once. Call before
// the run starts; nil restores buffering.
func (s *Sink) SetOnRace(fn func(Race) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onRace = fn
}

// The bits of Sink.gate.
const (
	gateStopped = 1 << iota
	gateSampled
)

// SetSampler makes smp decide which checks every region reporting to the
// sink runs; nil or an Off sampler runs them all. Call it once, before
// the run starts.
func (s *Sink) SetSampler(smp *sample.Sampler) {
	s.sampler = smp
	if smp.Enabled() {
		s.gate.Or(gateSampled)
	}
}

// SetStats points the sink at a recorder for its reported / deduped /
// dropped counters. A nil recorder (the default) is a no-op sink for them.
func (s *Sink) SetStats(rec *stats.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st = rec
}

// SetCaptureSites makes Report append " at file.go:NN" to CurStep: the
// source line of the access that completed the race. Every detector
// reports synchronously from the accessing task's goroutine, so that
// access is still on the stack when the sink is called; the walk costs
// one runtime.Callers per distinct kept race, nothing per access. Call
// before the run starts.
func (s *Sink) SetCaptureSites(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sites = on
}

// memMethod prefixes the function name of every checked container
// method (all have pointer receivers; generic instantiations keep it).
const memMethod = "spd3/internal/mem.(*"

// accessSite returns " at file.go:NN" for the caller of the container
// method the reporting goroutine is in — the first frame above the
// nearest run of container methods, since one may call another
// (Map.Get → Lookup) — or "" when the stack holds none (trace replay,
// hand-driven shadows).
func accessSite() string {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	inMem := false
	for {
		f, more := frames.Next()
		if strings.HasPrefix(f.Function, memMethod) {
			inMem = true
		} else if inMem {
			return fmt.Sprintf(" at %s:%d", path.Base(f.File), f.Line)
		}
		if !more {
			return ""
		}
	}
}

// Report records a race. It returns true when execution should halt.
// A stopped sink records and streams nothing more: a detector that passed
// its Stopped poll before another task's report landed may still call.
func (s *Sink) Report(r Race) bool {
	s.mu.Lock()
	k := key{r.Kind, r.Region, r.Index}
	if _, dup := s.seen[k]; dup {
		st := s.st
		s.mu.Unlock()
		st.Inc(stats.RaceDeduped)
		return s.Stopped()
	}
	if s.Stopped() {
		s.mu.Unlock()
		return true
	}
	s.seen[k] = struct{}{}
	onRace, st := s.onRace, s.st
	if onRace == nil && len(s.races) >= s.limit {
		s.capped = true
		st.Inc(stats.RaceDropped)
	} else {
		if s.sites {
			r.CurStep += accessSite()
		}
		st.Inc(stats.RaceReported)
		if onRace == nil {
			s.races = append(s.races, r)
		}
	}
	halt := s.halt
	if halt {
		s.gate.Or(gateStopped)
	}
	s.mu.Unlock()
	if onRace != nil && onRace(r) {
		halt = true
		s.gate.Or(gateStopped)
	}
	return halt
}

// Stopped reports whether a halt-mode sink has already recorded a race.
// Its bit in the gate word stops every region's checks (Cells.At),
// emulating the paper's "report a race and halt" semantics without
// cancelling the program's execution.
func (s *Sink) Stopped() bool { return s.gate.Load()&gateStopped != 0 }

// Mark returns a cursor for RacesSince: races recorded so far.
func (s *Sink) Mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.races)
}

// RacesSince returns the races recorded after the given Mark cursor,
// sorted like Races. It lets an engine report per-run races while the
// sink (and its deduplication) lives as long as the detector.
func (s *Sink) RacesSince(mark int) []Race {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mark < 0 {
		mark = 0
	}
	if mark > len(s.races) {
		mark = len(s.races)
	}
	out := make([]Race, len(s.races)-mark)
	copy(out, s.races[mark:])
	sortRaces(out)
	return out
}

// Races returns the recorded races sorted by region, index, and kind.
func (s *Sink) Races() []Race {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Race, len(s.races))
	copy(out, s.races)
	sortRaces(out)
	return out
}

func sortRaces(out []Race) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Kind < b.Kind
	})
}

// Empty reports whether no distinct race has been observed (buffered or
// streamed).
func (s *Sink) Empty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen) == 0
}

// Capped reports whether reports were dropped because the limit was hit.
func (s *Sink) Capped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capped
}
