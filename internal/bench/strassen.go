package bench

import (
	"fmt"
	"math"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// mview is a square sub-matrix view into an instrumented matrix; all
// element accesses stay monitored.
type mview struct {
	m      *mem.Matrix[float64]
	r0, c0 int
	n      int
}

func (v mview) get(c *task.Ctx, i, j int) float64    { return v.m.Get(c, v.r0+i, v.c0+j) }
func (v mview) set(c *task.Ctx, i, j int, x float64) { v.m.Set(c, v.r0+i, v.c0+j, x) }

// quad returns quadrant (qi, qj) of the view.
func (v mview) quad(qi, qj int) mview {
	h := v.n / 2
	return mview{m: v.m, r0: v.r0 + qi*h, c0: v.c0 + qj*h, n: h}
}

// runStrassen multiplies two n×n matrices with Strassen's recursion,
// spawning the seven half-size products as parallel tasks (the BOTS
// task-recursive shape), and validates against a naive multiply of the
// same data.
func runStrassen(rt *task.Runtime, in Input) (float64, error) {
	n := 16
	for n < in.scaled(64, 16) {
		n <<= 1
	}
	const cutoff = 16

	a := mem.NewMatrix[float64](rt, "strassen.A", n, n)
	b := mem.NewMatrix[float64](rt, "strassen.B", n, n)
	cm := mem.NewMatrix[float64](rt, "strassen.C", n, n)

	r := newRNG(83)
	for i, raw := 0, a.Unchecked(); i < len(raw); i++ {
		raw[i] = r.float64() - 0.5
	}
	for i, raw := 0, b.Unchecked(); i < len(raw); i++ {
		raw[i] = r.float64() - 0.5
	}

	err := rt.Run(func(c *task.Ctx) {
		strassenMul(c, mview{a, 0, 0, n}, mview{b, 0, 0, n}, mview{cm, 0, 0, n}, cutoff)
	})
	if err != nil {
		return 0, err
	}

	// Validate against the naive product on the raw data.
	ar, br, cr := a.Unchecked(), b.Unchecked(), cm.Unchecked()
	worst, sum := 0.0, 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += ar[i*n+k] * br[k*n+j]
			}
			if d := math.Abs(s - cr[i*n+j]); d > worst {
				worst = d
			}
			sum += cr[i*n+j]
		}
	}
	if worst > 1e-8 {
		return 0, fmt.Errorf("strassen: max deviation %g from naive product", worst)
	}
	return sum, nil
}

// strassenMul computes C = A·B. Below the cutoff it multiplies naively;
// above it, it spawns the seven Strassen products as asyncs inside a
// finish — each product task allocates and fills its own operand
// temporaries, so within the finish all writes are disjoint — and then
// combines the quadrants.
func strassenMul(c *task.Ctx, a, b, out mview, cutoff int) {
	n := a.n
	if n <= cutoff {
		naiveMul(c, a, b, out)
		return
	}
	h := n / 2
	rt := c.Runtime()
	// Seven product temporaries, written by the product tasks and read
	// by the combine phase after the finish.
	p := make([]mview, 7)
	for i := range p {
		p[i] = mview{m: mem.NewMatrix[float64](rt, fmt.Sprintf("strassen.P%d", i+1), h, h), n: h}
	}
	a11, a12, a21, a22 := a.quad(0, 0), a.quad(0, 1), a.quad(1, 0), a.quad(1, 1)
	b11, b12, b21, b22 := b.quad(0, 0), b.quad(0, 1), b.quad(1, 0), b.quad(1, 1)

	// Each entry describes one Strassen product: the operand
	// combinations (nil second operand means "single quadrant").
	type operands struct {
		al, ar *mview // A-side: al (+/- ar)
		bl, br *mview // B-side
		asub   bool
		bsub   bool
	}
	spec := []operands{
		{al: &a11, ar: &a22, bl: &b11, br: &b22},             // P1 = (A11+A22)(B11+B22)
		{al: &a21, ar: &a22, bl: &b11},                       // P2 = (A21+A22)B11
		{al: &a11, bl: &b12, br: &b22, bsub: true},           // P3 = A11(B12-B22)
		{al: &a22, bl: &b21, br: &b11, bsub: true},           // P4 = A22(B21-B11)
		{al: &a11, ar: &a12, bl: &b22},                       // P5 = (A11+A12)B22
		{al: &a21, ar: &a11, asub: true, bl: &b11, br: &b12}, // P6 = (A21-A11)(B11+B12)
		{al: &a12, ar: &a22, asub: true, bl: &b21, br: &b22}, // P7 = (A12-A22)(B21+B22)
	}
	c.Finish(func(c *task.Ctx) {
		for i := range spec {
			i := i
			s := spec[i]
			c.Async(func(c *task.Ctx) {
				rt := c.Runtime()
				left := combineOperand(c, rt, s.al, s.ar, s.asub, h, i, "L")
				right := combineOperand(c, rt, s.bl, s.br, s.bsub, h, i, "R")
				strassenMul(c, left, right, p[i], cutoff)
			})
		}
	})
	// Combine: C11 = P1+P4-P5+P7, C12 = P3+P5, C21 = P2+P4,
	// C22 = P1-P2+P3+P6.
	c11, c12, c21, c22 := out.quad(0, 0), out.quad(0, 1), out.quad(1, 0), out.quad(1, 1)
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			p1 := p[0].get(c, i, j)
			p2 := p[1].get(c, i, j)
			p3 := p[2].get(c, i, j)
			p4 := p[3].get(c, i, j)
			p5 := p[4].get(c, i, j)
			p6 := p[5].get(c, i, j)
			p7 := p[6].get(c, i, j)
			c11.set(c, i, j, p1+p4-p5+p7)
			c12.set(c, i, j, p3+p5)
			c21.set(c, i, j, p2+p4)
			c22.set(c, i, j, p1-p2+p3+p6)
		}
	}
}

// combineOperand materializes l (+/- r) into a fresh temporary owned by
// the calling task, or returns *l directly when there is no second
// operand.
func combineOperand(c *task.Ctx, rt *task.Runtime, l, r *mview, sub bool, h, prod int, side string) mview {
	if r == nil {
		return *l
	}
	t := mview{m: mem.NewMatrix[float64](rt, fmt.Sprintf("strassen.T%d%s", prod+1, side), h, h), n: h}
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			if sub {
				t.set(c, i, j, l.get(c, i, j)-r.get(c, i, j))
			} else {
				t.set(c, i, j, l.get(c, i, j)+r.get(c, i, j))
			}
		}
	}
	return t
}

// naiveMul is the cutoff base case.
func naiveMul(c *task.Ctx, a, b, out mview) {
	n := a.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a.get(c, i, k) * b.get(c, k, j)
			}
			out.set(c, i, j, s)
		}
	}
}
