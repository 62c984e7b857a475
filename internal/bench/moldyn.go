package bench

import (
	"math"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// runMolDyn is a Lennard-Jones N-body simulation with velocity-Verlet
// integration. Force computation parallelizes over particles: each task
// reads every position (read-shared) and writes only its own particle's
// force; integration parallelizes with fully disjoint accesses. The JGF
// original accumulated forces into shared arrays guarded by the buggy
// barriers §6.3 discusses; this owner-computes formulation is the
// race-free rewrite.
func runMolDyn(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(128, 8)
	steps := in.scaled(8, 2)
	const (
		dt  = 1e-3
		eps = 1e-12 // softening
	)

	pos := mem.NewMatrix[float64](rt, "moldyn.pos", n, 3)
	vel := mem.NewMatrix[float64](rt, "moldyn.vel", n, 3)
	frc := mem.NewMatrix[float64](rt, "moldyn.frc", n, 3)

	// Initial FCC-ish lattice with small random velocities.
	r := newRNG(67)
	side := int(math.Ceil(math.Cbrt(float64(n))))
	pr, vr := pos.Unchecked(), vel.Unchecked()
	for i := 0; i < n; i++ {
		pr[3*i+0] = float64(i%side) + 0.3*r.float64()
		pr[3*i+1] = float64((i/side)%side) + 0.3*r.float64()
		pr[3*i+2] = float64(i/(side*side)) + 0.3*r.float64()
		for d := 0; d < 3; d++ {
			vr[3*i+d] = 0.1 * (r.float64() - 0.5)
		}
	}

	err := rt.Run(func(c *task.Ctx) {
		for s := 0; s < steps; s++ {
			// Forces: owner-computes over particles.
			c.ParallelFor(0, n, in.grain(c, n), func(c *task.Ctx, i int) {
				var f [3]float64
				xi := [3]float64{pos.Get(c, i, 0), pos.Get(c, i, 1), pos.Get(c, i, 2)}
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					var d [3]float64
					r2 := eps
					for k := 0; k < 3; k++ {
						d[k] = xi[k] - pos.Get(c, j, k)
						r2 += d[k] * d[k]
					}
					inv2 := 1 / r2
					inv6 := inv2 * inv2 * inv2
					mag := 24 * inv2 * inv6 * (2*inv6 - 1)
					if mag > 1e6 {
						mag = 1e6 // clamp blow-ups from the random lattice
					}
					for k := 0; k < 3; k++ {
						f[k] += mag * d[k]
					}
				}
				for k := 0; k < 3; k++ {
					frc.Set(c, i, k, f[k])
				}
			})
			// Integration: disjoint per particle.
			c.ParallelFor(0, n, in.grain(c, n), func(c *task.Ctx, i int) {
				for k := 0; k < 3; k++ {
					v := vel.Get(c, i, k) + dt*frc.Get(c, i, k)
					vel.Set(c, i, k, v)
					pos.Set(c, i, k, pos.Get(c, i, k)+dt*v)
				}
			})
		}
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range pos.Unchecked() {
		sum += v
	}
	return sum, nil
}
