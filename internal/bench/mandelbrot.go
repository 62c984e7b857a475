package bench

import (
	"spd3/internal/mem"
	"spd3/internal/task"
)

// runMandelbrot renders an n×n bitmap of the Mandelbrot set over
// [-1.5,0.5]×[-1,1], one task per scanline. All monitored accesses are
// disjoint writes; the iteration work is task-local.
func runMandelbrot(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(160, 8)
	const maxIter = 50
	img := mem.NewMatrix[uint8](rt, "mandel.img", n, n)

	err := rt.Run(func(c *task.Ctx) {
		c.ParallelFor(0, n, in.grain(c, n), func(c *task.Ctx, y int) {
			ci := 2*float64(y)/float64(n) - 1
			for x := 0; x < n; x++ {
				cr := 2*float64(x)/float64(n) - 1.5
				zr, zi := 0.0, 0.0
				in := uint8(1)
				for it := 0; it < maxIter; it++ {
					zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
					if zr*zr+zi*zi > 4 {
						in = 0
						break
					}
				}
				img.Set(c, y, x, in)
			}
		})
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range img.Unchecked() {
		sum += float64(v)
	}
	return sum, nil
}
