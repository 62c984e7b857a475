package bench

import (
	"math"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// runMonteCarlo prices an asset by geometric-Brownian-motion simulation,
// one path per task (the JGF financial kernel). The four model
// parameters are read-shared; each task writes one result slot; the
// reduction afterwards runs in the main task.
//
// §6.1 note: the paper's fine-grained rewrite of this benchmark contained
// a benign race — repeated parallel assignments of the same value —
// which SPD3 duly reported; RacyMonteCarlo preserves that variant.
func runMonteCarlo(rt *task.Runtime, in Input) (float64, error) {
	paths := in.scaled(4000, 16)
	pathLen := 60
	params := mem.NewArray[float64](rt, "mc.params", 4)
	results := mem.NewArray[float64](rt, "mc.results", paths)

	copy(params.Unchecked(), []float64{100.0 /* S0 */, 0.03 /* mu */, 0.2 /* sigma */, 1.0 / 252 /* dt */})

	err := rt.Run(func(c *task.Ctx) {
		c.ParallelFor(0, paths, in.grain(c, paths), func(c *task.Ctx, p int) {
			s0 := params.Get(c, 0)
			mu := params.Get(c, 1)
			sigma := params.Get(c, 2)
			dt := params.Get(c, 3)
			r := newRNG(uint64(p) + 1)
			logS := math.Log(s0)
			drift := (mu - sigma*sigma/2) * dt
			vol := sigma * math.Sqrt(dt)
			for s := 0; s < pathLen; s++ {
				logS += drift + vol*r.gaussian()
			}
			results.Set(c, p, math.Exp(logS))
		})
		// Reduction in the main task, ordered after the finish.
		sum := 0.0
		for p := 0; p < paths; p++ {
			sum += results.Get(c, p)
		}
		params.Set(c, 0, sum/float64(paths)) // reuse slot 0 as the output
	})
	if err != nil {
		return 0, err
	}
	return params.Unchecked()[0], nil
}
