package sample

import (
	"fmt"
	"time"

	"spd3/internal/stats"
)

// defaultCheckNS is the modeled cost of one admitted race check when no
// better estimate exists: a 4–7-hop DMHP query plus the shadow-word
// protocol, measured at roughly this order on the dense kernels
// (EXPERIMENTS.md). The feedback loop only needs it to be the right
// order of magnitude — it corrects the rest.
const defaultCheckNS = 120.0

// Observation is one feedback sample: the gate outcomes and the wall
// clock of the replayed (or executed) span that produced them.
type Observation struct {
	Checked, Skipped int64
	Wall             time.Duration
}

// Govern parses spec and returns a sampler for it that holds the given
// overhead budget (a fraction; 0 keeps the rate fixed at spec's), or nil
// when spec is off. It is the one path from a spec and a budget to a
// gate and the one place the budget is range-checked — before the off
// return, so an off spec with a bad budget is still refused.
func Govern(spec string, budget float64) (*Sampler, error) {
	if err := checkBudget(budget); err != nil {
		return nil, err
	}
	cfg, err := Parse(spec)
	if err != nil || cfg.Mode == Off {
		return nil, err
	}
	s := New(cfg)
	s.budget = budget
	return s, nil
}

// checkBudget refuses an overhead budget outside [0, 1], NaN included.
func checkBudget(b float64) error {
	if !(b >= 0 && b <= 1) {
		return fmt.Errorf("sample: overhead budget %v out of [0, 1]", b)
	}
	return nil
}

// Observations returns how many feedback samples have been applied.
func (s *Sampler) Observations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observe
}

// Observe applies one feedback sample and retunes the rate with a
// damped multiplicative step:
//
//	modeled check time = checked × defaultCheckNS
//	estimated overhead = modeled check time / (wall − modeled check time)
//	rate ← rate × clamp(budget/overhead, ½, 2)
//
// No-op on a nil sampler, without a budget, or when the observation is
// empty.
func (s *Sampler) Observe(o Observation) {
	if s == nil || s.budget <= 0 || o.Wall <= 0 || o.Checked+o.Skipped <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	checkNS := defaultCheckNS * float64(o.Checked)
	wallNS := float64(o.Wall.Nanoseconds())
	base := wallNS - checkNS
	// The model can overshoot the measured wall clock (cheap checks,
	// warm caches); never let the estimated base drop below a tenth of
	// the wall so one bad sample cannot crater the rate.
	if base < wallNS/10 {
		base = wallNS / 10
	}
	overhead := checkNS / base
	adj := 2.0
	if overhead > 0 {
		adj = s.budget / overhead
		if adj > 2 {
			adj = 2
		} else if adj < 0.5 {
			adj = 0.5
		}
	}
	s.setRate(s.Rate() * adj)
	s.observe++
}

// ObserveSnapshot applies the sampling-relevant counters of a merged
// stats snapshot as one observation over the given wall clock; nil-safe.
func (s *Sampler) ObserveSnapshot(snap stats.Snapshot, wall time.Duration) {
	s.Observe(Observation{
		Checked: snap.Get(stats.SampleChecked),
		Skipped: snap.Get(stats.SampleSkipped),
		Wall:    wall,
	})
}
