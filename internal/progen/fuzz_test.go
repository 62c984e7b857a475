package progen

import (
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/graph"
	"spd3/internal/task"
)

// FuzzSPD3VsOracle lets coverage-guided fuzzing explore generator seeds
// and shape parameters, checking Theorems 2–4 on every program it
// reaches: SPD3's verdict must equal the oracle's all-schedules truth.
func FuzzSPD3VsOracle(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(40))
	f.Add(int64(42), uint8(1), uint8(8), uint8(60))
	f.Add(int64(7), uint8(8), uint8(2), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, vars, depth, stmts uint8) {
		cfg := Config{
			Vars:     int(vars%8) + 1,
			MaxDepth: int(depth%8) + 1,
			MaxStmts: int(stmts%80) + 1,
		}
		p := Generate(seed, cfg)

		o := graph.New()
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: o})
		if err != nil {
			t.Fatal(err)
		}
		if err := Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		want := o.HasRace()

		sink := detect.NewSink(false, 0)
		rt, err = task.New(task.Config{Executor: task.Sequential,
			Detector: core.New(sink, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if err := Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		if got := !sink.Empty(); got != want {
			t.Fatalf("seed %d cfg %+v: spd3 %v, oracle %v\n%s", seed, cfg, got, want, p)
		}
	})
}
