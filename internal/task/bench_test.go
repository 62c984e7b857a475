package task

import (
	"testing"

	"spd3/internal/detect"
)

// BenchmarkSpawnJoin measures raw task overhead: finishes joining empty
// asyncs, the operation whose O(1)-per-event cost §5.3 analyzes. The
// asyncs come in finishes of spawnJoinBatch — the shape every engine
// workload has — so the live records are bounded and ns/op is a steady
// state: under one finish of b.N the pool keeps all b.N records in a
// deque until the body ends, and the reading grows with -benchtime. The
// bare cells run without a detector; the /spd3 cells run the same loop in
// a detect session of SPD3 (as TestSpawnAllocs does), so B/op there is the
// runtime's Ctx plus the detector's three DPST nodes — it has no other
// per-task state.
func BenchmarkSpawnJoin(b *testing.B) {
	const spawnJoinBatch = 1024
	for _, e := range []struct {
		name     string
		detector string
		cfg      Config
	}{
		{"sequential", "", Config{Executor: Sequential}},
		{"pool-1", "", Config{Executor: Pool, Workers: 1}},
		{"pool-4", "", Config{Executor: Pool, Workers: 4}},
		{"sequential/spd3", "spd3", Config{Executor: Sequential}},
		{"pool-1/spd3", "spd3", Config{Executor: Pool, Workers: 1}},
	} {
		b.Run(e.name, func(b *testing.B) {
			cfg := e.cfg
			if e.detector != "" {
				ses, err := detect.Open(e.detector, detect.SessionOpts{})
				if err != nil {
					b.Fatal(err)
				}
				cfg.Detector, cfg.Stats = ses.Det, ses.Rec
			}
			rt, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			err = rt.Run(func(c *Ctx) {
				for left := b.N; left > 0; left -= spawnJoinBatch {
					n := min(left, spawnJoinBatch)
					c.Finish(func(c *Ctx) {
						for i := 0; i < n; i++ {
							c.Async(func(c *Ctx) {})
						}
					})
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFinishNesting measures deep finish scopes.
func BenchmarkFinishNesting(b *testing.B) {
	rt, err := New(Config{Executor: Pool, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	err = rt.Run(func(c *Ctx) {
		for i := 0; i < b.N; i++ {
			c.Finish(func(c *Ctx) {
				c.Async(func(c *Ctx) {})
			})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
