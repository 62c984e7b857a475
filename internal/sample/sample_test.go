package sample_test

import (
	"math"
	"testing"

	"spd3/internal/sample"
)

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want sample.Config
		ok   bool
	}{
		{"", sample.Config{Mode: sample.Off}, true},
		{"off", sample.Config{Mode: sample.Off}, true},
		{"  off  ", sample.Config{Mode: sample.Off}, true},
		{"bernoulli:0.05", sample.Config{Mode: sample.Bernoulli, Rate: 0.05}, true},
		{"burst:1", sample.Config{Mode: sample.Burst, Rate: 1}, true},
		{"bernoulli", sample.Config{}, false},
		{"coin:0.5", sample.Config{}, false},
		{"page:0.01", sample.Config{}, false}, // mode removed in PR 13
		{"bernoulli:0", sample.Config{}, false},
		{"bernoulli:-0.1", sample.Config{}, false},
		{"bernoulli:1.5", sample.Config{}, false},
		{"bernoulli:x", sample.Config{}, false},
		{"bernoulli:NaN", sample.Config{}, false}, // ParseFloat accepts it; no comparison with NaN is true
		{"burst:nan", sample.Config{}, false},
		{"bernoulli:Inf", sample.Config{}, false},
	}
	for _, c := range cases {
		got, err := sample.Parse(c.spec)
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q): err = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"", 0, true},
		{"5%", 0.05, true},
		{"0.05", 0.05, true},
		{"100%", 1, true},
		{"1", 1, true},
		{"0", 0, false},
		{"0%", 0, false},
		{"-5%", 0, false},
		{"150%", 0, false},
		{"1.5", 0, false},
		{"x", 0, false},
		{"NaN", 0, false},
		{"nan%", 0, false},
		{"Inf", 0, false},
	}
	for _, c := range cases {
		got, err := sample.ParseBudget(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseBudget(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseBudget(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRateClamp(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{0, sample.MinRate},
		{2, 1},
		{0.5, 0.5},
		{math.NaN(), sample.MinRate},
		{math.Inf(-1), sample.MinRate},
		{math.Inf(1), 1},
	} {
		if got := sample.New(sample.Config{Mode: sample.Bernoulli, Rate: c.in}).Rate(); got != c.want {
			t.Errorf("rate %v: Rate = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestNilSampler pins the nil-receiver contract the hot paths rely on:
// a nil sampler admits everything and never panics.
func TestNilSampler(t *testing.T) {
	var s *sample.Sampler
	var st sample.TaskState
	if s.Enabled() {
		t.Error("nil sampler reports Enabled")
	}
	if s.Mode() != sample.Off {
		t.Errorf("nil sampler Mode = %v, want Off", s.Mode())
	}
	if s.Rate() != 0 {
		t.Errorf("nil sampler Rate = %v, want 0", s.Rate())
	}
	s.Observe(heavy) // no-op, no panic
	st.Step()
	if !s.Admit(&st, 1, 2) {
		t.Error("nil sampler rejected a check")
	}
}

// TestBernoulliDeterminism: the default seed makes decisions identical
// across sampler instances (reproducible replay verdicts); distinct
// NewSeeded seeds give distinct coin assignments.
func TestBernoulliDeterminism(t *testing.T) {
	cfg := sample.Config{Mode: sample.Bernoulli, Rate: 0.25}
	a, b := sample.New(cfg), sample.New(cfg)
	var sa, sb sample.TaskState
	for i := 0; i < 4096; i++ {
		if a.Admit(&sa, 7, i) != b.Admit(&sb, 7, i) {
			t.Fatalf("two New samplers disagree at idx %d", i)
		}
	}
	c := sample.NewSeeded(cfg, 1)
	d := sample.NewSeeded(cfg, 2)
	var sc, sd sample.TaskState
	differ := false
	for i := 0; i < 4096 && !differ; i++ {
		differ = c.Admit(&sc, 7, i) != d.Admit(&sd, 7, i)
	}
	if !differ {
		t.Error("seeds 1 and 2 produced identical coins over 4096 locations")
	}
}

// TestBernoulliRate: the admitted fraction over many locations tracks
// the configured rate.
func TestBernoulliRate(t *testing.T) {
	for _, rate := range []float64{0.05, 0.25, 0.75} {
		s := sample.New(sample.Config{Mode: sample.Bernoulli, Rate: rate})
		var st sample.TaskState
		admitted := 0
		const n = 1 << 14
		for i := 0; i < n; i++ {
			if s.Admit(&st, 3, i) {
				admitted++
			}
		}
		got := float64(admitted) / n
		if got < rate-0.03 || got > rate+0.03 {
			t.Errorf("rate %v: admitted fraction %v", rate, got)
		}
	}
}

func TestRateOneAdmitsEverything(t *testing.T) {
	for _, mode := range []sample.Mode{sample.Bernoulli, sample.Burst} {
		s := sample.New(sample.Config{Mode: mode, Rate: 1})
		var st sample.TaskState
		for i := 0; i < 1024; i++ {
			if !s.Admit(&st, 5, i) {
				t.Errorf("%v at rate 1 rejected idx %d", mode, i)
			}
		}
	}
}

// TestBurstPattern: at rate 0.25 the window period is 4 — epoch 0 is
// sampled, then every fourth epoch.
func TestBurstPattern(t *testing.T) {
	s := sample.New(sample.Config{Mode: sample.Burst, Rate: 0.25})
	var st sample.TaskState
	for e := 0; e < 16; e++ {
		st.Step()
		want := e%4 == 0
		if got := s.Admit(&st, 1, e); got != want {
			t.Errorf("epoch %d: Admit = %v, want %v", e, got, want)
		}
	}
}

// TestBurstLazyStep: Admit on a state that never saw a Step counts as
// epoch 0 — always sampled, so a detector that missed an announcement
// still deterministically checks the prologue.
func TestBurstLazyStep(t *testing.T) {
	s := sample.New(sample.Config{Mode: sample.Burst, Rate: 0.01})
	var st sample.TaskState
	if !s.Admit(&st, 1, 0) {
		t.Error("first epoch not sampled")
	}
}

// TestBurstEveryTaskPrologue: epoch 0 of every fresh task state is
// sampled at any rate — the per-task prologue guarantee that lets CI
// assert a seeded first-step race is caught deterministically.
func TestBurstEveryTaskPrologue(t *testing.T) {
	s := sample.New(sample.Config{Mode: sample.Burst, Rate: 0.01})
	for task := 0; task < 32; task++ {
		var st sample.TaskState
		st.Step()
		if !s.Admit(&st, 1, 0) {
			t.Fatalf("task %d: first epoch not sampled at rate 0.01", task)
		}
	}
}
