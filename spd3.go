// Package spd3 is a dynamic data-race detection library for structured
// (async/finish) parallel programs, reproducing "Scalable and Precise
// Dynamic Datarace Detection for Structured Parallelism" (Raman, Zhao,
// Sarkar, Vechev, Yahav — PLDI 2012).
//
// The package bundles a structured task runtime (a work-stealing pool or
// sequential depth-first execution), instrumented shared-memory
// containers, and five interchangeable detectors:
//
//   - SPD3 (the paper's contribution): runs in parallel, O(1) space per
//     monitored location, sound and precise for a given input.
//   - ESP-bags: O(1) space but requires sequential depth-first execution.
//   - FastTrack: handles arbitrary fork-join and locks, but pays O(n)
//     space and time in the number of tasks.
//   - Eraser: the lockset heuristic; fast but imprecise.
//   - None: no detection, the measurement baseline.
//
// # Quick start
//
//	eng, err := spd3.New(spd3.Options{Workers: 4, Detector: spd3.SPD3})
//	if err != nil { ... }
//	acc := spd3.NewArray[int](eng, "acc", 1)
//	report, err := eng.Run(func(c *spd3.Ctx) {
//		c.FinishAsync(8, func(c *spd3.Ctx, i int) {
//			acc.Set(c, 0, i) // every task writes acc[0]: a data race
//		})
//	})
//	for _, r := range report.Races {
//		fmt.Println(r) // write-write race on acc[0] ...
//	}
//
// Because SPD3 is sound and precise for a given input, a single quiet run
// certifies that *no* schedule of that input races — and a reported race
// is real in some schedule, never a false alarm.
package spd3

import (
	"errors"
	"fmt"
	"time"

	"spd3/internal/detect"
	_ "spd3/internal/detectors" // register every detector implementation
	"spd3/internal/mem"
	"spd3/internal/sample"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// Sentinel errors returned (wrapped) by New; test with errors.Is.
var (
	// ErrBadWorkers reports a negative Options.Workers.
	ErrBadWorkers = errors.New("spd3: negative worker count")
	// ErrUnknownDetector reports an Options.Detector name absent from
	// the registry.
	ErrUnknownDetector = errors.New("spd3: unknown detector")
	// ErrExecutorMismatch reports an explicit Options.Executor the
	// selected detector cannot run under (e.g. ESPBags with Pool). It is
	// the task runtime's sentinel: the runtime makes that check.
	ErrExecutorMismatch = task.ErrExecutorMismatch
	// ErrBadSampling reports an unparsable Options.Sampling spec or
	// overhead budget.
	ErrBadSampling = errors.New("spd3: invalid sampling configuration")
)

// Ctx is the task context passed to every task body; it provides Async,
// Finish, ParallelFor and friends.
type Ctx = task.Ctx

// Race describes one detected data race.
type Race = detect.Race

// RaceKind classifies a race (read-write, write-write, write-read).
type RaceKind = detect.RaceKind

// Race kinds.
const (
	ReadWrite  = detect.ReadWrite
	WriteWrite = detect.WriteWrite
	WriteRead  = detect.WriteRead
)

// Footprint is the detector's analytic memory accounting.
type Footprint = detect.Footprint

// Array is an instrumented one-dimensional array.
type Array[T any] = mem.Array[T]

// Matrix is an instrumented two-dimensional array.
type Matrix[T any] = mem.Matrix[T]

// Var is an instrumented shared variable.
type Var[T any] = mem.Var[T]

// List is a growable instrumented sequence backed by a growable shadow
// region: no length is declared up front, elements never move, and
// unsynchronized parallel Appends are reported as races on the list's
// length cell.
type List[T any] = mem.List[T]

// Map is an instrumented map backed by a growable shadow region:
// structural mutations (inserting a new key, deleting a present one)
// write a dedicated structure cell and every lookup reads it, so
// unordered parallel inserts — or a lookup unordered with an insert —
// are reported as races, mirroring Go's dynamic map checker.
type Map[K comparable, V any] = mem.Map[K, V]

// Mutex is an instrumented lock (meaningful to FastTrack and Eraser).
type Mutex = mem.Mutex

// Executor selects how tasks are scheduled.
type Executor = task.ExecKind

// Executors.
const (
	// Auto (the default) lets the engine pick: Sequential when the
	// detector requires it (ESPBags), Pool otherwise.
	Auto = task.Auto
	// Pool schedules tasks on a fixed work-stealing worker pool.
	Pool = task.Pool
	// Sequential runs asyncs inline, depth-first (required by ESPBags).
	Sequential = task.Sequential
)

// Detector selects the race-detection algorithm.
type Detector string

// Detectors.
const (
	// None disables detection (the measurement baseline).
	None Detector = "none"
	// SPD3 is the paper's parallel, O(1)-space, precise detector.
	SPD3 Detector = "spd3"
	// ESPBags is the sequential baseline (forces Sequential executor).
	ESPBags Detector = "espbags"
	// FastTrack is the vector-clock baseline.
	FastTrack Detector = "fasttrack"
	// Eraser is the lockset baseline (imprecise).
	Eraser Detector = "eraser"
)

// Detectors lists every registered detector kind, sorted by name. The
// list comes from the detect registry, so detectors added by a new
// algorithm package (one file with an init-time detect.Register call)
// appear here, in the harness tables, and in the cmd tools without
// further wiring.
func Detectors() []Detector {
	names := detect.Names()
	out := make([]Detector, len(names))
	for i, n := range names {
		out[i] = Detector(n)
	}
	return out
}

// Stats is the merged observability snapshot of one Run: shadow-protocol
// outcomes (CAS clean/publish/retry), DMHP walk counts, task
// spawn/steal/inline counts, per-region read/write traffic, and the
// detector's memory footprint. It has a stable String() one-liner, a
// Map() of wire-named scalars, and a JSON form (see stats.Snapshot).
type Stats = stats.Snapshot

// Options configures an Engine.
type Options struct {
	// Workers is the pool size (Pool executor only). Zero means 1.
	Workers int
	// Executor selects the scheduling strategy. The default, Auto,
	// resolves to Pool — or Sequential when the detector requires it
	// (ESPBags). Explicitly selecting an executor the detector cannot
	// run under is an error. Under Sequential every task runs on Run's
	// goroutine, so an SPD3 engine publishes its shadow words without
	// atomics.
	Executor Executor
	// Detector selects the algorithm; default SPD3.
	Detector Detector
	// HaltOnFirstRace reproduces the paper's halt semantics: after the
	// first race, detectors stop checking. When false (default), races
	// are deduplicated per location and execution continues.
	HaltOnFirstRace bool
	// MaxRaces caps recorded races in log mode (default 1024).
	MaxRaces int
	// OnRace, when non-nil, streams each distinct race to the callback
	// instead of buffering it in Report.Races, so arbitrarily long runs
	// never accumulate reports (and MaxRaces does not apply). Returning
	// true halts detection like HaltOnFirstRace does after the first
	// race. The callback runs on the reporting task's goroutine and may
	// be invoked concurrently for distinct races.
	OnRace func(Race) (halt bool)
	// CaptureSites attaches the file:line of the access completing a
	// race to the report. Works with every detector and costs one stack
	// walk per distinct reported race, nothing per access; off by
	// default.
	CaptureSites bool
	// NoStats disables the observability counters (Report.Stats becomes
	// a zero snapshot except for Footprint). Counters are on by default
	// and near-free — hot producers batch in plain integers owned by the
	// goroutine executing the task and flushed into the run's recorder
	// once per worker — so this exists mainly to measure that claim
	// (BenchmarkStatsOverhead runs both ways).
	NoStats bool
	// Sampling configures the dynamic check-sampling subsystem
	// (internal/sample): gate each access's race check behind a cheap
	// probabilistic coin so detection can run inside live serving at a
	// chosen cost. The zero value means off — every check runs, byte-
	// identical to an unsampled engine.
	Sampling SamplingOptions
}

// SamplingOptions selects a check-sampling strategy and, optionally, an
// overhead budget for the sampler's feedback loop.
type SamplingOptions struct {
	// Spec is "mode:rate" — "bernoulli:0.05", "burst:0.1" — or
	// ""/"off" for disabled. See internal/sample for the strategy
	// semantics and the soundness argument (sampling can only miss
	// races, never invent them).
	Spec string
	// OverheadBudget, when nonzero, enables the feedback loop: after every
	// Run it re-estimates the checking overhead from the run's stats
	// counters and wall clock and retunes the rate toward this target
	// fraction (0.05 = 5%). Zero keeps the rate fixed at Spec's.
	OverheadBudget float64
}

// Engine couples a task runtime with a detect session: the detector,
// its race sink and its stats recorder.
type Engine struct {
	rt  *task.Runtime
	ses *detect.Session
}

// New validates opts and builds an Engine. The detector is constructed
// through the detect registry, so any registered name is accepted.
// Invalid options are reported through the typed sentinels
// ErrBadWorkers, ErrUnknownDetector, ErrExecutorMismatch and
// ErrBadSampling, which callers match with errors.Is.
func New(opts Options) (*Engine, error) {
	if opts.Detector == "" {
		opts.Detector = SPD3
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadWorkers, opts.Workers)
	}
	if !detect.Registered(string(opts.Detector)) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDetector, opts.Detector)
	}
	smp, err := sample.Govern(opts.Sampling.Spec, opts.Sampling.OverheadBudget)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSampling, err)
	}
	ses, err := detect.Open(string(opts.Detector), detect.SessionOpts{
		Halt:         opts.HaltOnFirstRace,
		MaxRaces:     opts.MaxRaces,
		OnRace:       opts.OnRace,
		CaptureSites: opts.CaptureSites,
		NoStats:      opts.NoStats,
		Sampler:      smp,
		// The sequential executor runs every task on Run's goroutine.
		Owned: opts.Executor == Sequential,
	})
	if err != nil {
		return nil, err
	}
	rt, err := task.New(task.Config{
		Workers:  opts.Workers,
		Executor: opts.Executor,
		Detector: ses.Det,
		Stats:    ses.Rec,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{rt: rt, ses: ses}, nil
}

// SamplingRate returns the engine's current check-sampling rate: the
// sampler's live (possibly adapted) rate, or 0 when sampling is off.
func (e *Engine) SamplingRate() float64 { return e.ses.Sampler.Rate() }

// Report summarizes one Run.
type Report struct {
	// Races holds the detected races, sorted by location. Empty when
	// Options.OnRace streamed them instead.
	Races []Race
	// Truncated is set when the race limit was hit.
	Truncated bool
	// Stats is the run's merged observability snapshot (zero except for
	// Stats.Footprint when Options.NoStats is set). The detector's
	// memory accounting lives in Stats.Footprint; the deprecated
	// top-level Footprint field it duplicated has been removed.
	Stats Stats
	// Duration is the wall-clock time of the run.
	Duration time.Duration
}

// RaceFree reports whether the run observed no races. For the SPD3 and
// ESPBags detectors this certifies that no schedule of this input races.
// With Options.OnRace set, races are streamed rather than buffered and
// the callback — not this predicate — is the authority.
func (r *Report) RaceFree() bool { return len(r.Races) == 0 }

// Run executes root as the main task under the implicit top-level finish
// and returns the detection report for this run. The returned error
// reflects task panics, not races: every spawned task runs to its end,
// panicked or not, and the error names the first panic and counts the
// rest.
//
// An Engine (with its instrumented containers) may be reused across
// consecutive Runs: later runs are correctly treated as happening after
// earlier ones, and each Report contains only the races first detected
// during that run (duplicate reports for a location already reported in
// an earlier run are suppressed).
func (e *Engine) Run(root func(*Ctx)) (*Report, error) {
	mark := e.ses.Sink.Mark()
	e.ses.Rec.Reset()
	start := time.Now()
	err := e.rt.Run(root)
	elapsed := time.Since(start)
	rep := &Report{
		Races:     e.ses.Sink.RacesSince(mark),
		Truncated: e.ses.Sink.Capped(),
		// The snapshot is also the sampler's one feedback observation
		// per Run: long-lived engines (serving loops, repeated
		// measurements) converge onto the budget.
		Stats:    e.ses.Snapshot(elapsed),
		Duration: elapsed,
	}
	return rep, err
}

// Scope is where a container is allocated, the first argument of every
// container constructor. An *Engine scope is for allocation before Run:
// it happens-before every task, so the container's initializing writes
// are elided. A *Ctx scope is for allocation inside a task body: those
// writes are recorded against the allocating task, so a task that uses
// the container unordered with its creation is reported. Only this
// module's types implement Scope.
type Scope = task.Scope

// Scope makes e an allocation scope for use before Run. It panics while
// Run is in progress: allocation inside a task body goes through the
// task's *Ctx, which records the creation writes an *Engine would drop.
func (e *Engine) Scope() (*task.Runtime, *detect.Task) {
	if e.rt.Running() {
		panic("spd3: container allocated through the *Engine during Run; " +
			"pass the task's *Ctx instead: spd3.NewArray[T](c, name, n)")
	}
	return e.rt.Scope()
}

// NewArray allocates an instrumented array of n elements of type T.
func NewArray[T any](s Scope, name string, n int) *Array[T] {
	return mem.NewArray[T](s, name, n)
}

// NewMatrix allocates an instrumented rows×cols matrix.
func NewMatrix[T any](s Scope, name string, rows, cols int) *Matrix[T] {
	return mem.NewMatrix[T](s, name, rows, cols)
}

// NewVar allocates an instrumented shared variable.
func NewVar[T any](s Scope, name string, init T) *Var[T] {
	return mem.NewVar(s, name, init)
}

// NewList allocates an empty growable instrumented list.
func NewList[T any](s Scope, name string) *List[T] {
	return mem.NewList[T](s, name)
}

// NewMap allocates an empty instrumented map.
func NewMap[K comparable, V any](s Scope, name string) *Map[K, V] {
	return mem.NewMap[K, V](s, name)
}

// NewMutex allocates an instrumented lock.
func NewMutex(s Scope) *Mutex { return mem.NewMutex(s) }

// Cilk provides Cilk-style spawn/sync parallelism as sugar over
// async/finish (§2: async/finish generalizes spawn/sync, so every
// detector works on Cilk programs unchanged). Use RunCilk to enter a
// procedure.
type Cilk = task.Cilk

// RunCilk executes body as a Cilk procedure (with an implicit final
// sync) on the current task.
func RunCilk(c *Ctx, body func(k *Cilk)) { task.RunCilk(c, body) }

// Barrier is a cyclic barrier in the style of the original JGF codes
// (§6.3). SPD3 derives no ordering from barriers — its model is pure
// async/finish — but FastTrack consumes their events (like RoadRunner's
// special barrier handling) and accepts barrier-phased sharing. See
// task.Barrier for executor requirements.
type Barrier = task.Barrier

// NewBarrier allocates a barrier for n participants.
func NewBarrier(e *Engine, n int) *Barrier { return e.rt.NewBarrier(n) }

// Accumulator is an HJ-style finish accumulator: a reduction cell that
// parallel tasks Put into, race-free by construction.
type Accumulator[T any] = mem.Accumulator[T]

// NewAccumulator allocates an accumulator over an associative,
// commutative combine function.
func NewAccumulator[T any](e *Engine, combine func(a, b T) T) *Accumulator[T] {
	return mem.NewAccumulator(e.rt, combine)
}

// RegisterStaticElided records n container access sites whose dynamic
// race checks were removed at compile time by the §5.5 static check
// eliminator (cmd/spd3inst's checkelim post-pass, or spd3vet -fix).
// Optimized packages carry a generated init that calls this once; every
// Report.Stats then exposes the process-wide total under the
// mem.checks_elided_static counter, so the measured dynamic check
// counts can be read against what the optimizer proved away.
func RegisterStaticElided(n int) { stats.AddStaticElided(int64(n)) }
