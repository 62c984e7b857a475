package bench

import (
	"sort"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// runSparse is the JGF sparse matrix-vector kernel: y += A·x iterated
// over a random CRS matrix, parallel over rows. The value, index, and
// vector arrays are read-shared; each task writes only its own rows of y.
func runSparse(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(2000, 16)
	perRow := 5
	iters := in.scaled(20, 2)
	nnz := n * perRow

	vals := mem.NewArray[float64](rt, "sparse.val", nnz)
	cols := mem.NewArray[int](rt, "sparse.col", nnz)
	x := mem.NewArray[float64](rt, "sparse.x", n)
	y := mem.NewArray[float64](rt, "sparse.y", n)

	r := newRNG(41)
	cr := cols.Unchecked()
	vr := vals.Unchecked()
	for row := 0; row < n; row++ {
		base := row * perRow
		seen := map[int]bool{}
		for k := 0; k < perRow; k++ {
			col := r.intn(n)
			for seen[col] {
				col = r.intn(n)
			}
			seen[col] = true
			cr[base+k] = col
		}
		sort.Ints(cr[base : base+perRow])
		for k := 0; k < perRow; k++ {
			vr[base+k] = r.float64() - 0.5
		}
	}
	for i, raw := 0, x.Unchecked(); i < len(raw); i++ {
		raw[i] = r.float64()
	}

	err := rt.Run(func(c *task.Ctx) {
		for it := 0; it < iters; it++ {
			c.ParallelFor(0, n, in.grain(c, n), func(c *task.Ctx, row int) {
				s := y.Get(c, row)
				base := row * perRow
				for k := 0; k < perRow; k++ {
					s += vals.Get(c, base+k) * x.Get(c, cols.Get(c, base+k))
				}
				y.Set(c, row, s)
			})
		}
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range y.Unchecked() {
		sum += v
	}
	return sum, nil
}
