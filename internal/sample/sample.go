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
// A Sampler holds its rate as an atomic fixed-point field. With an
// overhead budget it also runs the feedback loop that retunes that rate
// online (governor.go), and one Sampler is shared by every session it
// gates: Admit reads only the immutable mode and seed and the atomic
// rate, so replays in flight see a new rate on their next access.
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
	"sync"
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
// target; "" means no budget (the rate stays fixed), so a written zero
// is refused. The range check is the one Govern applies.
func ParseBudget(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("sample: bad overhead budget %q: %v", s, err)
	}
	if strings.HasSuffix(s, "%") {
		v /= 100
	}
	if v == 0 {
		return 0, fmt.Errorf("sample: overhead budget %q is zero; leave it empty for a fixed rate", s)
	}
	if err := checkBudget(v); err != nil {
		return 0, err
	}
	return v, nil
}

// rateBits is the fixed-point precision of a sampler's rate.
const rateBits = 16

// MinRate is the floor the feedback loop never adapts below, so a
// sampler under budget pressure still observes a sliver of the run.
const MinRate = 1.0 / (1 << (rateBits - 4))

// TaskState is per-task sampling state (detect.Task.Sample). The driver
// announces each new step with Step; Admit keeps the current epoch's
// burst-window decision and a one-entry location-coin memo so the
// sampled-out path is a predictable compare-and-branch.
type TaskState struct {
	steps   uint64 // Step calls so far
	memoKey uint64 // the location whose coin is memoised
	// decided is steps+1 of the epoch whose burst window was decided (0
	// before the first decision), shifted left by epochShift, with the
	// window's decision in burstIn and memoKey's coin in memoIn: three
	// words keep the state, and so detect.Task, a size class smaller.
	decided uint64
}

const (
	burstIn    = 1 << 0 // the decided burst window checks
	memoIn     = 1 << 1 // memoKey's coin checks
	epochShift = 2
)

// Step announces that the task entered a new step. A task's first step
// is epoch 0 whether or not it was announced, so a state that never saw a
// Step samples like one that saw exactly one.
func (st *TaskState) Step() { st.steps++ }

// Sampler decides, per access, whether the race check runs. A nil
// Sampler admits everything. One Sampler is shared by every session it
// gates; with a budget it also retunes its rate (governor.go).
type Sampler struct {
	mode Mode
	seed uint64
	rate atomic.Int64 // fixed point with rateBits fraction bits, in [MinRate, 1]

	budget  float64    // overhead budget; 0 keeps the rate fixed
	mu      sync.Mutex // serializes Observe's read-modify-write of rate
	observe int64      // observations applied
}

// New returns a sampler at cfg's fixed rate. Govern returns one that
// holds an overhead budget.
func New(cfg Config) *Sampler {
	s := &Sampler{mode: cfg.Mode, seed: defaultSeed}
	s.setRate(cfg.Rate)
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

// Rate returns the current (possibly adapted) rate; 0 for nil.
func (s *Sampler) Rate() float64 {
	if s == nil {
		return 0
	}
	return float64(s.rate.Load()) / (1 << rateBits)
}

// setRate stores f clamped to [MinRate, 1]; NaN stores MinRate.
func (s *Sampler) setRate(f float64) {
	if !(f >= MinRate) {
		f = MinRate
	}
	s.rate.Store(int64(min(f, 1) * (1 << rateBits)))
}

// burstPeriod derives the burst window period from the current rate:
// one sampled step out of period.
func (s *Sampler) burstPeriod() int64 {
	r := s.rate.Load()
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
		if st.decided>>epochShift != st.steps+1 {
			st.decided = (st.steps+1)<<epochShift | st.decided&memoIn
			if e := max(st.steps, 1) - 1; e%uint64(s.burstPeriod()) == 0 {
				st.decided |= burstIn
			}
		}
		return st.decided&burstIn != 0
	case Off:
		return true
	}
	key := region<<32 ^ uint64(uint32(idx))
	if key == st.memoKey {
		return st.decided&memoIn != 0
	}
	ok := int64(mix(key^s.seed)&((1<<rateBits)-1)) < s.rate.Load()
	st.memoKey, st.decided = key, st.decided&^memoIn
	if ok {
		st.decided |= memoIn
	}
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
