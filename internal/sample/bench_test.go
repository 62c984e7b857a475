package sample_test

import (
	"testing"

	"spd3/internal/sample"
)

// The Admit benchmarks price the sampled-out path: this is the cost a
// skipped check still pays, and therefore the floor under the overhead
// any sampling rate can reach (see the EXPERIMENTS ablation).

func BenchmarkAdmitBernoulliMiss(b *testing.B) {
	s := sample.New(sample.Config{Mode: sample.Bernoulli, Rate: 0.01})
	var st sample.TaskState
	n := 0
	for i := 0; i < b.N; i++ {
		// A fresh location every time defeats the one-entry memo — the
		// stencil-sweep access pattern.
		if s.Admit(&st, 1, i) {
			n++
		}
	}
	_ = n
}

func BenchmarkAdmitBernoulliHit(b *testing.B) {
	s := sample.New(sample.Config{Mode: sample.Bernoulli, Rate: 0.01})
	var st sample.TaskState
	n := 0
	for i := 0; i < b.N; i++ {
		if s.Admit(&st, 1, 42) {
			n++
		}
	}
	_ = n
}

func BenchmarkAdmitBurst(b *testing.B) {
	s := sample.New(sample.Config{Mode: sample.Burst, Rate: 0.01})
	var st sample.TaskState
	st.Step()
	n := 0
	for i := 0; i < b.N; i++ {
		if s.Admit(&st, 1, i) {
			n++
		}
	}
	_ = n
}
