package bench

import (
	"fmt"
	"math"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// runFFT performs an n-point radix-2 complex FFT followed by the inverse
// transform and checks the round trip. Each stage is a finish whose tasks
// own disjoint butterfly groups; the twiddle factors are read-shared.
func runFFT(rt *task.Runtime, in Input) (float64, error) {
	n := 1
	for n < in.scaled(2048, 64) {
		n <<= 1
	}
	re := mem.NewArray[float64](rt, "fft.re", n)
	im := mem.NewArray[float64](rt, "fft.im", n)

	r := newRNG(59)
	orig := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		orig[2*i] = r.float64() - 0.5
		orig[2*i+1] = r.float64() - 0.5
	}
	reRaw, imRaw := re.Unchecked(), im.Unchecked()
	for i := 0; i < n; i++ {
		reRaw[i] = orig[2*i]
		imRaw[i] = orig[2*i+1]
	}

	err := rt.Run(func(c *task.Ctx) {
		fftPass(c, in, re, im, n, false)
		fftPass(c, in, re, im, n, true)
		// Normalize the inverse in parallel.
		c.ParallelFor(0, n, in.grain(c, n), func(c *task.Ctx, i int) {
			re.Set(c, i, re.Get(c, i)/float64(n))
			im.Set(c, i, im.Get(c, i)/float64(n))
		})
	})
	if err != nil {
		return 0, err
	}
	worst, sum := 0.0, 0.0
	for i := 0; i < n; i++ {
		dr := math.Abs(reRaw[i] - orig[2*i])
		di := math.Abs(imRaw[i] - orig[2*i+1])
		if dr > worst {
			worst = dr
		}
		if di > worst {
			worst = di
		}
		sum += reRaw[i] + imRaw[i]
	}
	if worst > 1e-9 {
		return 0, fmt.Errorf("fft: round-trip error %g exceeds tolerance", worst)
	}
	return sum, nil
}

// fftPass runs one full (forward or inverse) in-place transform.
func fftPass(c *task.Ctx, in Input, re, im *mem.Array[float64], n int, inverse bool) {
	// Bit-reversal permutation, parallel over indices; each swap is
	// performed by the lower index's task, so writes are disjoint.
	c.ParallelFor(0, n, in.grain(c, n), func(c *task.Ctx, i int) {
		j := bitrev(i, n)
		if i < j {
			ri, rj := re.Get(c, i), re.Get(c, j)
			ii, ij := im.Get(c, i), im.Get(c, j)
			re.Set(c, i, rj)
			re.Set(c, j, ri)
			im.Set(c, i, ij)
			im.Set(c, j, ii)
		}
	})
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		groups := n / size
		size := size
		c.ParallelFor(0, groups, in.grain(c, groups), func(c *task.Ctx, g int) {
			base := g * size
			for k := 0; k < half; k++ {
				ang := sign * 2 * math.Pi * float64(k) / float64(size)
				wr, wi := math.Cos(ang), math.Sin(ang)
				i0, i1 := base+k, base+k+half
				ar, ai := re.Get(c, i0), im.Get(c, i0)
				br, bi := re.Get(c, i1), im.Get(c, i1)
				tr := br*wr - bi*wi
				ti := br*wi + bi*wr
				re.Set(c, i0, ar+tr)
				im.Set(c, i0, ai+ti)
				re.Set(c, i1, ar-tr)
				im.Set(c, i1, ai-ti)
			}
		})
	}
}

// bitrev reverses the log2(n) low bits of i.
func bitrev(i, n int) int {
	r := 0
	for m := 1; m < n; m <<= 1 {
		r <<= 1
		if i&m != 0 {
			r |= 1
		}
	}
	return r
}
