package sample

import (
	"sync"
	"time"

	"spd3/internal/stats"
)

// defaultCheckNS is the modeled cost of one admitted race check when no
// better estimate exists: a 4–7-hop DMHP query plus the shadow-word
// protocol, measured at roughly this order on the dense kernels
// (EXPERIMENTS.md). The governor only needs it to be the right order of
// magnitude — the feedback loop corrects the rest.
const defaultCheckNS = 120.0

// Observation is one feedback sample for the governor: the gate
// outcomes and the wall clock of the replayed (or executed) span that
// produced them.
type Observation struct {
	Checked, Skipped int64
	Wall             time.Duration
}

// Governor holds a sampling rate on target to a user-set overhead
// budget. It owns the shared Rate cell its Samplers load on the hot
// path and retunes it after every observation with a damped
// multiplicative step:
//
//	estimated overhead = modeled check time / (wall − modeled check time)
//	rate ← rate × clamp(budget/overhead, ½, 2)
//
// The check-time model is checked × cost-per-check. A zero budget
// turns the feedback loop off and the Governor degrades to a fixed-rate
// sampler factory.
type Governor struct {
	cfg    Config
	budget float64
	rate   Rate

	mu      sync.Mutex
	observe int64 // observations applied (for tests and gauges)
}

// NewGovernor returns a governor for the given strategy and overhead
// budget (a fraction; 0 disables adaptation). The initial rate is
// cfg.Rate.
func NewGovernor(cfg Config, budget float64) *Governor {
	g := &Governor{cfg: cfg, budget: budget}
	g.rate.Store(cfg.Rate)
	return g
}

// Sampler returns a sampler bound to the governor's shared rate cell.
// Each replay should take a fresh one (TaskState is per-task anyway;
// the handle itself is stateless), but sharing one is also safe.
func (g *Governor) Sampler() *Sampler {
	return &Sampler{mode: g.cfg.Mode, rate: &g.rate, seed: defaultSeed}
}

// Mode returns the governed strategy.
func (g *Governor) Mode() Mode { return g.cfg.Mode }

// Rate returns the current (possibly adapted) sampling rate.
func (g *Governor) Rate() float64 { return g.rate.Load() }

// Budget returns the overhead budget fraction (0 when fixed-rate).
func (g *Governor) Budget() float64 { return g.budget }

// Observations returns how many feedback samples have been applied.
func (g *Governor) Observations() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.observe
}

// Observe applies one feedback sample and retunes the shared rate.
// No-op when the budget is zero or the observation is empty.
func (g *Governor) Observe(o Observation) {
	if g.budget <= 0 || o.Wall <= 0 || o.Checked+o.Skipped <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
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
		adj = g.budget / overhead
		if adj > 2 {
			adj = 2
		} else if adj < 0.5 {
			adj = 0.5
		}
	}
	g.rate.Store(g.rate.Load() * adj)
	g.observe++
}

// ObserveSnapshot applies the sampling-relevant counters of a merged
// stats snapshot as one observation over the given wall clock.
func (g *Governor) ObserveSnapshot(s stats.Snapshot, wall time.Duration) {
	g.Observe(Observation{
		Checked: s.Get(stats.SampleChecked),
		Skipped: s.Get(stats.SampleSkipped),
		Wall:    wall,
	})
}
