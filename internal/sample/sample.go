// Package sample is the dynamic half of the check-reduction pairing the
// paper defers to §5.5: where checkelim removes checks that are
// *provably* redundant at compile time, this package gates the residual
// checks behind a cheap probabilistic coin so detection can run inside
// live serving at a chosen cost ("Dynamic Race Detection with O(1)
// Samples" shows a vanishing sampling rate retains most detection
// power).
//
// Two strategies are provided:
//
//   - Bernoulli: one deterministic coin per (region, element). Both
//     sides of a racing pair flip the same coin, so the probability of
//     catching a racy location is the rate r itself, not r².
//   - Burst: check everything for one task step out of N. Epoch 0 —
//     every task's first step — is always inside the burst window, so a
//     fresh detector (each replayed trace segment gets one) samples
//     every task's prologue deterministically regardless of rate; both
//     sides of a race between two tasks' first steps are then always
//     recorded, which is the guarantee CI's sampled smoke relies on.
//     The flip side, visible in the EXPERIMENTS ablation, is that on
//     fine-grained kernels whose tasks never advance past their first
//     step the burst window covers everything and the rate stops
//     biting; burst is the strategy for long-lived tasks.
//
// Decisions are deterministic functions of (seed, location) or
// (task, step index): a replayed trace samples identically every time,
// which is what makes verdicts reproducible and lets CI assert that a
// seeded race is still caught at a 1% rate.
//
// The sampling rate lives in a shared fixed-point cell (Rate) so a
// Governor can retune it online while replays are running; see
// governor.go.
//
// Soundness: a skipped check only *omits* recording an access in the
// shadow word. Every recorded step still really performed its access,
// so any race reported from the surviving recordings is a true race —
// sampling introduces false negatives, never false positives.
package sample

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Mode selects the sampling strategy.
type Mode uint8

const (
	// Off disables sampling: every check runs.
	Off Mode = iota
	// Bernoulli flips one deterministic coin per (region, element).
	Bernoulli
	// Burst checks everything for one task step out of N.
	Burst
)

func (m Mode) String() string {
	switch m {
	case Bernoulli:
		return "bernoulli"
	case Burst:
		return "burst"
	default:
		return "off"
	}
}

// Config is one parsed sampling spec.
type Config struct {
	Mode Mode
	// Rate is the target fraction of checks to run, in (0, 1].
	Rate float64
}

// Parse parses a sampling spec of the form "mode:rate" — e.g.
// "bernoulli:0.05", "burst:0.1" — or "off"/"" for disabled. The rate
// must be in (0, 1].
func Parse(spec string) (Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return Config{Mode: Off}, nil
	}
	mode, rateStr, ok := strings.Cut(spec, ":")
	if !ok {
		return Config{}, fmt.Errorf("sample: spec %q: want mode:rate (e.g. bernoulli:0.05) or off", spec)
	}
	var m Mode
	switch mode {
	case "bernoulli":
		m = Bernoulli
	case "burst":
		m = Burst
	default:
		return Config{}, fmt.Errorf("sample: unknown mode %q (have bernoulli, burst, off)", mode)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil {
		return Config{}, fmt.Errorf("sample: spec %q: bad rate: %v", spec, err)
	}
	if !(rate > 0 && rate <= 1) { // also refuses NaN
		return Config{}, fmt.Errorf("sample: spec %q: rate must be in (0, 1]", spec)
	}
	return Config{Mode: m, Rate: rate}, nil
}

// ParseBudget parses an overhead budget: "5%" or "0.05" both mean a 5%
// target; "" means no budget (governor disabled). The result must be in
// (0, 1] when nonzero.
func ParseBudget(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("sample: bad overhead budget %q: %v", s, err)
	}
	if pct {
		v /= 100
	}
	if !(v > 0 && v <= 1) { // also refuses NaN
		return 0, fmt.Errorf("sample: overhead budget %q out of (0%%, 100%%]", s)
	}
	return v, nil
}

// rateBits is the fixed-point precision of the shared rate cell.
const rateBits = 16

// MinRate is the floor the governor never adapts below, so a sampler
// under budget pressure still observes a sliver of the run.
const MinRate = 1.0 / (1 << (rateBits - 4))

// Rate is a shared fixed-point sampling rate. Samplers load it on the
// hot path; the governor stores into it from its feedback loop.
type Rate struct{ v atomic.Int64 }

// Store sets the rate, clamped to [MinRate, 1]; NaN stores MinRate.
func (r *Rate) Store(f float64) {
	if !(f >= MinRate) {
		f = MinRate
	}
	if f > 1 {
		f = 1
	}
	r.v.Store(int64(f * (1 << rateBits)))
}

// Load returns the rate as a float in [MinRate, 1].
func (r *Rate) Load() float64 { return float64(r.v.Load()) / (1 << rateBits) }

// load16 returns the fixed-point threshold compared against a 16-bit
// hash slice on the hot path.
func (r *Rate) load16() int64 { return r.v.Load() }

// TaskState is per-task sampling state (detect.Task.Sample). The driver
// announces each new step with Step; Admit keeps the current epoch's
// burst-window decision and a one-entry location-coin memo so the
// sampled-out path is a predictable compare-and-branch.
type TaskState struct {
	steps   uint64 // Step calls so far
	burstAt uint64 // steps+1 when burst was decided; 0 before the first decision
	memoKey uint64
	burst   bool
	memoOK  bool
}

// Step announces that the task entered a new step. A task's first step
// is epoch 0 whether or not it was announced, so a state that never saw a
// Step samples like one that saw exactly one.
func (st *TaskState) Step() { st.steps++ }

// Sampler decides, per access, whether the race check runs. A nil
// Sampler admits everything. Samplers are cheap handles onto a shared
// Rate cell; Governor.Sampler hands out one per replay.
type Sampler struct {
	mode Mode
	rate *Rate
	seed uint64
}

// New returns a sampler with its own (fixed) rate cell. Use
// Governor.Sampler for a governed one.
func New(cfg Config) *Sampler {
	s := &Sampler{mode: cfg.Mode, rate: &Rate{}, seed: defaultSeed}
	s.rate.Store(cfg.Rate)
	return s
}

// NewSeeded is New with an explicit coin seed. Production paths use New
// (the fixed seed is what makes replay verdicts reproducible); the
// harness varies the seed across runs to measure ensemble detection
// probability rather than one fixed coin assignment.
func NewSeeded(cfg Config, seed uint64) *Sampler {
	s := New(cfg)
	s.seed = defaultSeed ^ mix(seed)
	return s
}

// defaultSeed makes location coins deterministic across runs and
// processes, so a replayed trace samples — and detects — identically.
const defaultSeed = 0x5bd1e995a4f0c3b7

// Enabled reports whether the sampler gates anything; nil-safe.
func (s *Sampler) Enabled() bool { return s != nil && s.mode != Off }

// Mode returns the strategy; nil-safe.
func (s *Sampler) Mode() Mode {
	if s == nil {
		return Off
	}
	return s.mode
}

// RateValue returns the current rate; nil-safe.
func (s *Sampler) RateValue() float64 {
	if s == nil {
		return 0
	}
	return s.rate.Load()
}

// burstPeriod derives the burst window period from the current rate:
// one sampled step out of period.
func (s *Sampler) burstPeriod() int64 {
	r := s.rate.load16()
	if r <= 0 {
		r = 1
	}
	p := int64(1<<rateBits) / r
	if p < 1 {
		p = 1
	}
	return p
}

// Admit reports whether the check for element idx of the given shadow
// region should run. The decision is deterministic per (seed, location)
// for Bernoulli and per task-step epoch for Burst: the first Admit of an
// epoch decides its window, in or out, from the rate at that moment.
// Epoch 0 — every task's first step — is always sampled, so fresh
// detectors deterministically check each task's prologue. Callers tally
// the outcome themselves (detect.Cells counts into the executing
// goroutine's Tally). Nil receivers admit everything.
func (s *Sampler) Admit(st *TaskState, region uint64, idx int) bool {
	if s == nil {
		return true
	}
	switch s.mode {
	case Burst:
		if st.burstAt != st.steps+1 {
			st.burstAt = st.steps + 1
			e := max(st.steps, 1) - 1
			st.burst = e%uint64(s.burstPeriod()) == 0
		}
		return st.burst
	case Off:
		return true
	}
	key := region<<32 ^ uint64(uint32(idx))
	if key == st.memoKey {
		return st.memoOK
	}
	ok := int64(mix(key^s.seed)&((1<<rateBits)-1)) < s.rate.load16()
	st.memoKey, st.memoOK = key, ok
	return ok
}

// mix is a 64-bit finalizer (splitmix64-style) turning a location key
// into a uniform coin.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
