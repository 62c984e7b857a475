package bench

import (
	"fmt"
	"math"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// runLUFact factorizes a dense n×n system with partial pivoting and
// solves A·x = b, validating the residual (the JGF Linpack-derived
// kernel). The trailing-submatrix update parallelizes over rows: every
// task reads the shared pivot row (read-shared — FastTrack's worst case)
// and writes only its own row. In the original JGF code the sweeps were
// separated by the buggy custom barrier §6.3 describes; here each sweep
// is a finish.
func runLUFact(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(64, 4)
	a := mem.NewMatrix[float64](rt, "lufact.A", n, n)
	b := mem.NewArray[float64](rt, "lufact.b", n)
	piv := mem.NewArray[int](rt, "lufact.piv", n)

	// Deterministic well-conditioned system; keep an uninstrumented
	// copy for the residual check.
	r := newRNG(31)
	a0 := make([]float64, n*n)
	b0 := make([]float64, n)
	for i := range a0 {
		a0[i] = r.float64() - 0.5
	}
	for i := 0; i < n; i++ {
		a0[i*n+i] += float64(n) // diagonally dominant
		b0[i] = r.float64()
	}
	copy(a.Unchecked(), a0)
	copy(b.Unchecked(), b0)

	err := rt.Run(func(c *task.Ctx) {
		for k := 0; k < n-1; k++ {
			// Pivot search and row swap: sequential, as in DGEFA.
			p := k
			best := math.Abs(a.Get(c, k, k))
			for i := k + 1; i < n; i++ {
				if v := math.Abs(a.Get(c, i, k)); v > best {
					best, p = v, i
				}
			}
			piv.Set(c, k, p)
			if p != k {
				for j := 0; j < n; j++ {
					akj, apj := a.Get(c, k, j), a.Get(c, p, j)
					a.Set(c, k, j, apj)
					a.Set(c, p, j, akj)
				}
				bk, bp := b.Get(c, k), b.Get(c, p)
				b.Set(c, k, bp)
				b.Set(c, p, bk)
			}
			// Multipliers, then the parallel trailing update.
			pivot := a.Get(c, k, k)
			for i := k + 1; i < n; i++ {
				a.Update(c, i, k, func(v float64) float64 { return v / pivot })
			}
			k := k
			c.ParallelFor(k+1, n, in.grain(c, n-k-1), func(c *task.Ctx, i int) {
				m := a.Get(c, i, k)
				for j := k + 1; j < n; j++ {
					akj := a.Get(c, k, j)
					a.Update(c, i, j, func(v float64) float64 { return v - m*akj })
				}
				mbk := m * b.Get(c, k)
				b.Update(c, i, func(v float64) float64 { return v - mbk })
			})
		}
		// Back substitution (sequential, as in DGESL).
		for i := n - 1; i >= 0; i-- {
			s := b.Get(c, i)
			for j := i + 1; j < n; j++ {
				s -= a.Get(c, i, j) * b.Get(c, j)
			}
			b.Set(c, i, s/a.Get(c, i, i))
		}
	})
	if err != nil {
		return 0, err
	}

	// Residual check against the pristine system.
	x := b.Unchecked()
	worst := 0.0
	for i := 0; i < n; i++ {
		s := -b0[i]
		for j := 0; j < n; j++ {
			s += a0[i*n+j] * x[j]
		}
		if v := math.Abs(s); v > worst {
			worst = v
		}
	}
	if worst > 1e-8 {
		return 0, fmt.Errorf("lufact: residual %g exceeds tolerance", worst)
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return sum, nil
}
