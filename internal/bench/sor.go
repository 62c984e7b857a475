package bench

import (
	"spd3/internal/mem"
	"spd3/internal/task"
)

// runSOR performs red-black successive over-relaxation on an n×n grid.
// The original JGF kernel synchronized sweeps with a (buggy, §6.3)
// custom barrier; the async/finish version uses one finish per color
// sweep, which is the paper's race-free rewrite. Within a sweep every
// point of one color reads only opposite-color neighbours, so the reads
// are shared and the writes disjoint.
func runSOR(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(64, 8)
	iters := in.scaled(20, 2)
	const omega = 1.25
	g := mem.NewMatrix[float64](rt, "sor.G", n, n)

	// Deterministic initial grid (raw: built by the main task before
	// any parallelism — the paper's main-task check elimination).
	r := newRNG(7)
	raw := g.Unchecked()
	for i := range raw {
		raw[i] = r.float64() * 1e-5
	}

	err := rt.Run(func(c *task.Ctx) {
		for it := 0; it < iters; it++ {
			for color := 0; color < 2; color++ {
				color := color
				c.ParallelFor(1, n-1, in.grain(c, n-2), func(c *task.Ctx, i int) {
					j0 := 1 + (i+color)%2
					for j := j0; j < n-1; j += 2 {
						stencil := omega / 4 * (g.Get(c, i-1, j) + g.Get(c, i+1, j) +
							g.Get(c, i, j-1) + g.Get(c, i, j+1))
						g.Update(c, i, j, func(v float64) float64 {
							return stencil + (1-omega)*v
						})
					}
				})
			}
		}
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range g.Unchecked() {
		sum += v
	}
	return sum, nil
}
