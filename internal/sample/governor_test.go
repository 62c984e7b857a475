package sample_test

import (
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

func TestGovernorBacksOffOverBudget(t *testing.T) {
	g := sample.NewGovernor(sample.Config{Mode: sample.Bernoulli, Rate: 1}, 0.05)
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
	g := sample.NewGovernor(sample.Config{Mode: sample.Bernoulli, Rate: 0.1}, 0.05)
	g.Observe(light)
	if got := g.Rate(); got < 0.19 || got > 0.21 {
		t.Errorf("after one under-budget observation: rate = %v, want ~0.2 (doubling cap)", got)
	}
	// The ramp is capped at 1 by the rate cell.
	for i := 0; i < 8; i++ {
		g.Observe(light)
	}
	if got := g.Rate(); got != 1 {
		t.Errorf("rate ramped to %v, want clamp at 1", got)
	}
}

func TestGovernorRateFloor(t *testing.T) {
	g := sample.NewGovernor(sample.Config{Mode: sample.Bernoulli, Rate: 1}, 0.01)
	for i := 0; i < 64; i++ {
		g.Observe(heavy)
	}
	if got := g.Rate(); got != sample.MinRate {
		t.Errorf("rate adapted to %v, want floor at MinRate %v", got, sample.MinRate)
	}
}

// TestGovernorZeroBudget: budget 0 turns the feedback loop off; the
// governor is a fixed-rate sampler factory.
func TestGovernorZeroBudget(t *testing.T) {
	g := sample.NewGovernor(sample.Config{Mode: sample.Bernoulli, Rate: 0.25}, 0)
	g.Observe(heavy)
	if got := g.Rate(); got != 0.25 {
		t.Errorf("zero-budget governor moved the rate to %v", got)
	}
	if got := g.Observations(); got != 0 {
		t.Errorf("zero-budget governor counted %d observations", got)
	}
}

func TestGovernorIgnoresEmptyObservations(t *testing.T) {
	g := sample.NewGovernor(sample.Config{Mode: sample.Bernoulli, Rate: 0.5}, 0.05)
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

// TestGovernorSamplerSharesRate: samplers handed out before an
// adaptation see the new rate — the cell is shared, not copied.
func TestGovernorSamplerSharesRate(t *testing.T) {
	g := sample.NewGovernor(sample.Config{Mode: sample.Bernoulli, Rate: 1}, 0.05)
	s := g.Sampler()
	if got := s.RateValue(); got != 1 {
		t.Fatalf("initial sampler rate = %v, want 1", got)
	}
	g.Observe(heavy)
	if got := s.RateValue(); got != 0.5 {
		t.Errorf("sampler rate after adaptation = %v, want 0.5", got)
	}
	if s.Mode() != sample.Bernoulli {
		t.Errorf("sampler mode = %v, want bernoulli", s.Mode())
	}
}

// TestObserveSnapshot: the stats-snapshot adapter feeds the same loop.
func TestObserveSnapshot(t *testing.T) {
	rec := stats.New()
	rec.Add(stats.SampleChecked, 1_000_000)
	g := sample.NewGovernor(sample.Config{Mode: sample.Bernoulli, Rate: 1}, 0.05)
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
	g := sample.NewGovernor(sample.Config{Mode: sample.Bernoulli, Rate: 1}, 0.5)
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
