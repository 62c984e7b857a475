package sample_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"spd3/internal/sample"
	"spd3/internal/stats"
)

// heavy is an observation whose modeled check cost dwarfs the wall
// clock: overhead far above any budget, so the governor should back the
// rate off at the maximum damped step (halving).
var heavy = sample.Observation{Checked: 1_000_000, Wall: 10 * time.Millisecond}

// light is an observation with almost no admitted checks over a long
// wall: overhead far below budget, so the rate should double.
var light = sample.Observation{Checked: 10, Skipped: 1_000_000, Wall: time.Second}

// governed returns Govern's sampler for spec and budget.
func governed(t *testing.T, spec string, budget float64) *sample.Sampler {
	t.Helper()
	s, err := sample.Govern(spec, budget)
	if err != nil || s == nil {
		t.Fatalf("Govern(%q, %v): no sampler, err %v", spec, budget, err)
	}
	return s
}

func TestGovernorBacksOffOverBudget(t *testing.T) {
	g := governed(t, "bernoulli:1", 0.05)
	g.Observe(heavy)
	if got := g.Rate(); got != 0.5 {
		t.Errorf("after one over-budget observation: rate = %v, want 0.5 (max damped step)", got)
	}
	g.Observe(heavy)
	if got := g.Rate(); got != 0.25 {
		t.Errorf("after two: rate = %v, want 0.25", got)
	}
	if got := g.Observations(); got != 2 {
		t.Errorf("Observations = %d, want 2", got)
	}
}

func TestGovernorRampsUpUnderBudget(t *testing.T) {
	g := governed(t, "bernoulli:0.1", 0.05)
	g.Observe(light)
	if got := g.Rate(); got < 0.19 || got > 0.21 {
		t.Errorf("after one under-budget observation: rate = %v, want ~0.2 (doubling cap)", got)
	}
	// The ramp is capped at 1.
	for i := 0; i < 8; i++ {
		g.Observe(light)
	}
	if got := g.Rate(); got != 1 {
		t.Errorf("rate ramped to %v, want clamp at 1", got)
	}
}

func TestGovernorRateFloor(t *testing.T) {
	g := governed(t, "bernoulli:1", 0.01)
	for i := 0; i < 64; i++ {
		g.Observe(heavy)
	}
	if got := g.Rate(); got != sample.MinRate {
		t.Errorf("rate adapted to %v, want floor at MinRate %v", got, sample.MinRate)
	}
}

// TestGovernorZeroBudget: budget 0 turns the feedback loop off; the
// sampler keeps its configured rate.
func TestGovernorZeroBudget(t *testing.T) {
	g := governed(t, "bernoulli:0.25", 0)
	g.Observe(heavy)
	if got := g.Rate(); got != 0.25 {
		t.Errorf("zero-budget governor moved the rate to %v", got)
	}
	if got := g.Observations(); got != 0 {
		t.Errorf("zero-budget governor counted %d observations", got)
	}
}

func TestGovernorIgnoresEmptyObservations(t *testing.T) {
	g := governed(t, "bernoulli:0.5", 0.05)
	g.Observe(sample.Observation{Wall: time.Second})                // no gate outcomes
	g.Observe(sample.Observation{Checked: 100, Skipped: 100})       // no wall clock
	g.Observe(sample.Observation{Checked: 100, Wall: -time.Second}) // negative wall
	if got := g.Rate(); got != 0.5 {
		t.Errorf("empty observations moved the rate to %v", got)
	}
	if got := g.Observations(); got != 0 {
		t.Errorf("empty observations counted: %d", got)
	}
}

// TestGovern: an off spec is no sampler, and the budget is checked
// before that early return.
func TestGovern(t *testing.T) {
	for _, spec := range []string{"", "off"} {
		if s, err := sample.Govern(spec, 0.05); s != nil || err != nil {
			t.Errorf("Govern(%q, 0.05) = %v, %v; want nil, nil", spec, s, err)
		}
	}
	for _, budget := range []float64{-0.1, 1.5, math.NaN()} {
		for _, spec := range []string{"off", "bernoulli:0.5"} {
			if _, err := sample.Govern(spec, budget); err == nil {
				t.Errorf("Govern(%q, %v) accepted the budget", spec, budget)
			}
		}
	}
	if _, err := sample.Govern("coin:0.5", 0); err == nil {
		t.Error("Govern accepted an unknown mode")
	}
}

// TestGovernorSamplerSharesRate: Admit reads the rate the feedback loop
// stores, so every session holding the sampler gates at the adapted rate
// on its next access.
func TestGovernorSamplerSharesRate(t *testing.T) {
	s := governed(t, "bernoulli:1", 0.05)
	admitted := func() float64 {
		var st sample.TaskState
		n := 0
		for i := 0; i < 1<<14; i++ {
			if s.Admit(&st, 9, i) {
				n++
			}
		}
		return float64(n) / (1 << 14)
	}
	if got := admitted(); got != 1 {
		t.Fatalf("at rate 1 admitted %v of the locations, want all", got)
	}
	s.Observe(heavy)
	if got := admitted(); got < 0.47 || got > 0.53 {
		t.Errorf("after adaptation to %v admitted %v of the locations, want ~0.5", s.Rate(), got)
	}
	if s.Mode() != sample.Bernoulli {
		t.Errorf("sampler mode = %v, want bernoulli", s.Mode())
	}
}

// TestSamplerSharedAcrossGoroutines: concurrent sessions admit through
// one sampler while others feed its loop — the daemon's shard replays of
// one (tenant, spec) do exactly this. Run under -race.
func TestSamplerSharedAcrossGoroutines(t *testing.T) {
	s := governed(t, "bernoulli:1", 0.05)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var st sample.TaskState
			for i := 0; i < 1000; i++ {
				st.Step()
				s.Admit(&st, uint64(g), i)
				if i%100 == 0 {
					s.Observe(heavy)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Observations(); got != 40 {
		t.Errorf("Observations = %d, want 40", got)
	}
	if got := s.Rate(); got != sample.MinRate {
		t.Errorf("rate after 40 halvings = %v, want MinRate %v", got, sample.MinRate)
	}
}

// TestObserveSnapshot: the stats-snapshot adapter feeds the same loop.
func TestObserveSnapshot(t *testing.T) {
	rec := stats.New()
	rec.Add(stats.SampleChecked, 1_000_000)
	g := governed(t, "bernoulli:1", 0.05)
	g.ObserveSnapshot(rec.Snapshot(), 10*time.Millisecond)
	if got := g.Rate(); got != 0.5 {
		t.Errorf("rate after snapshot observation = %v, want 0.5", got)
	}
	if got := g.Observations(); got != 1 {
		t.Errorf("Observations = %d, want 1", got)
	}
}

// TestGovernorTrajectoryWithoutWalks pins the cost model, costNS ×
// Checked, to the rates the governor produced at 7ccbfd3 for the same
// sequence when every DMHP query was a fast-path one (the walk penalty
// it had then multiplied the cost by 1): one DMHP path, one trajectory.
func TestGovernorTrajectoryWithoutWalks(t *testing.T) {
	g := governed(t, "bernoulli:1", 0.5)
	for i, step := range []struct {
		o    sample.Observation
		want float64
	}{
		{sample.Observation{Checked: 40_000, Wall: 10 * time.Millisecond}, 0.541656494140625},
		{sample.Observation{Checked: 20_000, Skipped: 20_000, Wall: 8 * time.Millisecond}, 0.631927490234375},
		{sample.Observation{Checked: 5_000, Skipped: 35_000, Wall: 6 * time.Millisecond}, 1},
		{sample.Observation{Checked: 30_000, Skipped: 10_000, Wall: 9 * time.Millisecond}, 0.75},
	} {
		g.Observe(step.o)
		if got := g.Rate(); got != step.want {
			t.Errorf("after observation %d: rate = %v, want %v", i+1, got, step.want)
		}
	}
}
