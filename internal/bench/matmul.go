package bench

import (
	"spd3/internal/mem"
	"spd3/internal/task"
)

// runMatmul is the EC2 challenge benchmark: iterative dense C = A·B with
// one task per output row (unchunked) or per row block (chunked). A and B
// are read-shared — the access pattern that blows up FastTrack's read
// metadata and that SPD3's two-reader shadow words handle in O(1).
func runMatmul(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(48, 4)
	a := mem.NewMatrix[float64](rt, "matmul.A", n, n)
	b := mem.NewMatrix[float64](rt, "matmul.B", n, n)
	cm := mem.NewMatrix[float64](rt, "matmul.C", n, n)

	r := newRNG(11)
	for i, raw := 0, a.Unchecked(); i < len(raw); i++ {
		raw[i] = r.float64()
	}
	for i, raw := 0, b.Unchecked(); i < len(raw); i++ {
		raw[i] = r.float64()
	}

	err := rt.Run(func(c *task.Ctx) {
		c.ParallelFor(0, n, in.grain(c, n), func(c *task.Ctx, i int) {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += a.Get(c, i, k) * b.Get(c, k, j)
				}
				cm.Set(c, i, j, s)
			}
		})
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range cm.Unchecked() {
		sum += v
	}
	return sum, nil
}
