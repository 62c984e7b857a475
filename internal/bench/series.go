package bench

import (
	"math"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// runSeries computes the first n Fourier coefficient pairs of
// f(x) = (x+1)^x on [0,2] by trapezoid integration, one coefficient pair
// per parallel iteration (the JGF Series kernel). Each task's work is
// compute-heavy and its writes are disjoint — the benchmark with the
// least monitoring overhead in Figure 3.
func runSeries(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(256, 8)
	const intervals = 200
	test := mem.NewMatrix[float64](rt, "series.test", 2, n)

	err := rt.Run(func(c *task.Ctx) {
		c.ParallelFor(0, n, in.grain(c, n), func(c *task.Ctx, i int) {
			a, b := seriesCoefficient(i)
			test.Set(c, 0, i, a)
			test.Set(c, 1, i, b)
		})
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range test.Unchecked() {
		sum += v
	}
	return sum, nil
}

// seriesCoefficient integrates f(x)·cos(iπx) and f(x)·sin(iπx) over
// [0,2] with the trapezoid rule. i = 0 yields the constant term pair.
func seriesCoefficient(i int) (a, b float64) {
	const (
		x0, x1 = 0.0, 2.0
		steps  = 200
	)
	dx := (x1 - x0) / steps
	f := func(x float64) float64 { return math.Pow(x+1, x) }
	omega := math.Pi * float64(i)
	fa := func(x float64) float64 { return f(x) * math.Cos(omega*x) }
	fb := func(x float64) float64 { return f(x) * math.Sin(omega*x) }
	a = (fa(x0) + fa(x1)) / 2
	b = (fb(x0) + fb(x1)) / 2
	for k := 1; k < steps; k++ {
		x := x0 + float64(k)*dx
		a += fa(x)
		b += fb(x)
	}
	return a * dx, b * dx
}
