package main

// The benchmark owns its input programs: three kernels written against
// the public spd3 API, each in the forms the cost ladder needs (plain
// slices run sequentially, plain slices under async/finish, instrumented
// containers) plus a deliberately racy twin whose exact race set follows
// from the kernel's parameters. Nothing here comes from internal/bench,
// so editing that package cannot move a benchmark number.

import (
	"math"

	"spd3"
	"spd3/internal/mem"
	"spd3/internal/task"
)

// rng is splitmix64: a few lines the benchmark owns, so seeded inputs
// stay byte-identical across Go releases.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func subSeed(seed uint64, salt uint64) rng {
	r := rng(seed ^ salt*0x9e3779b97f4a7c15)
	r.next()
	return r
}

// host is where a kernel allocates its containers and runs: a public
// spd3.Engine, or a bare task.Runtime driving a trace.Recorder (the one
// configuration the public API cannot express). The container and Ctx
// types are the same either way, so one kernel body serves both.
type host struct {
	eng *spd3.Engine
	rt  *task.Runtime
}

func newArray[T any](h host, name string, n int) *spd3.Array[T] {
	if h.eng != nil {
		return spd3.NewArray[T](h.eng, name, n)
	}
	return mem.NewArray[T](h.rt, name, n)
}

func newMatrix[T any](h host, name string, rows, cols int) *spd3.Matrix[T] {
	if h.eng != nil {
		return spd3.NewMatrix[T](h.eng, name, rows, cols)
	}
	return mem.NewMatrix[T](h.rt, name, rows, cols)
}

// run executes root and returns the engine's report (nil on a bare
// runtime, which has no sink).
func (h host) run(root func(*spd3.Ctx)) (*spd3.Report, error) {
	if h.eng != nil {
		return h.eng.Run(root)
	}
	return nil, h.rt.Run(root)
}

// raceKey is the identity a race is compared by — the detector's own
// deduplication key.
type raceKey struct {
	Kind   string
	Region string
	Index  int
}

// counts is a kernel's own tally of the work it asks for, derived from
// its parameters; the instrumented run's Report.Stats must agree.
type counts struct {
	reads, writes, spawns int64
}

// fault perturbs a kernel into one of its racy forms. The zero value is
// the clean kernel.
type fault struct {
	on   bool
	a, b int // kernel-specific coordinates of the seeded fault
}

// ---- stencil -------------------------------------------------------

// stencil is red-black successive over-relaxation on an n×n grid: each
// sweep is two finish phases (one per colour) with one async per
// interior row; a cell update reads its four neighbours and
// read-modify-writes itself. Neighbours of a red cell are black, so a
// phase writes one colour and reads the other: race-free.
type stencil struct {
	n, sweeps int
	init      []float64 // n*n seeded start values
}

const stencilOmega = 1.25

func newStencil(n, sweeps int, seed uint64) *stencil {
	r := subSeed(seed, 1)
	s := &stencil{n: n, sweeps: sweeps, init: make([]float64, n*n)}
	for i := range s.init {
		s.init[i] = r.float()
	}
	return s
}

func relax(old, up, down, left, right float64) float64 {
	return stencilOmega*0.25*(up+down+left+right) + (1-stencilOmega)*old
}

func sumBits(v []float64) uint64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return math.Float64bits(s)
}

func (s *stencil) counts() counts {
	cells := int64(s.n-2) * int64(s.n-2) * int64(s.sweeps)
	return counts{reads: 5 * cells, writes: cells, spawns: int64(s.sweeps) * 2 * int64(s.n-2)}
}

// rawRow relaxes the cells of row i whose colour is col, on plain slices.
func (s *stencil) rawRow(g []float64, i, col int) {
	n := s.n
	for j := 1 + (i+1+col)%2; j < n-1; j += 2 {
		k := i*n + j
		g[k] = relax(g[k], g[k-n], g[k+n], g[k-1], g[k+1])
	}
}

func (s *stencil) rawSeq() uint64 {
	g := append([]float64(nil), s.init...)
	for sw := 0; sw < s.sweeps; sw++ {
		for col := 0; col < 2; col++ {
			for i := 1; i < s.n-1; i++ {
				s.rawRow(g, i, col)
			}
		}
	}
	return sumBits(g)
}

// rawTask is the same task structure over plain slices: what the
// program costs under the runtime (and, with Detector SPD3, the DPST)
// before any access is instrumented.
func (s *stencil) rawTask(h host) (uint64, *spd3.Report, error) {
	g := append([]float64(nil), s.init...)
	rep, err := h.run(func(c *spd3.Ctx) {
		for sw := 0; sw < s.sweeps; sw++ {
			for col := 0; col < 2; col++ {
				c.Finish(func(c *spd3.Ctx) {
					for i := 1; i < s.n-1; i++ {
						c.Async(func(*spd3.Ctx) { s.rawRow(g, i, col) })
					}
				})
			}
		}
	})
	return sumBits(g), rep, err
}

// inst is the instrumented kernel. f selects a racy form: with f.on, a
// rogue async joins every red phase and overwrites the black cell
// (f.a, f.b) that the phase's row tasks read.
func (s *stencil) inst(h host, f fault) (uint64, *spd3.Report, error) {
	n := s.n
	g := newMatrix[float64](h, "grid", n, n)
	copy(g.Unchecked(), s.init)
	rep, err := h.run(func(c *spd3.Ctx) {
		for sw := 0; sw < s.sweeps; sw++ {
			for col := 0; col < 2; col++ {
				c.Finish(func(c *spd3.Ctx) {
					for i := 1; i < n-1; i++ {
						c.Async(func(c *spd3.Ctx) {
							for j := 1 + (i+1+col)%2; j < n-1; j += 2 {
								up, down := g.Get(c, i-1, j), g.Get(c, i+1, j)
								left, right := g.Get(c, i, j-1), g.Get(c, i, j+1)
								g.Update(c, i, j, func(old float64) float64 {
									return relax(old, up, down, left, right)
								})
							}
						})
					}
					if f.on && col == 0 {
						c.Async(func(c *spd3.Ctx) { g.Set(c, f.a, f.b, 0) })
					}
				})
			}
		}
	})
	return sumBits(g.Unchecked()), rep, err
}

// rogueFault picks a black interior cell; the rogue task is spawned
// after the row tasks, so in depth-first order the reads precede its
// write and the one race is read-write on that cell.
func (s *stencil) rogueFault(seed uint64) (fault, []raceKey) {
	r := subSeed(seed, 2)
	i := 2 + r.intn(s.n-4)
	j := 2 + r.intn(s.n-4)
	if (i+j)%2 == 0 { // red cells have even i+j; move to the black neighbour
		j--
	}
	return fault{on: true, a: i, b: j}, []raceKey{{"read-write", "grid", i*s.n + j}}
}

// uncoloured is the racy twin: one sweep with no colour separation, so
// row i's task reads rows i±1 while their tasks write them. Depth-first
// order runs the rows top to bottom: cell (i,j) is read by row i-1
// before row i writes it (read-write, rows 2..n-2) and read by row i+1
// after (write-read, rows 1..n-3).
func (s *stencil) uncoloured(h host) (*spd3.Report, error) {
	n := s.n
	g := newMatrix[float64](h, "grid", n, n)
	copy(g.Unchecked(), s.init)
	return h.run(func(c *spd3.Ctx) {
		c.FinishAsync(n-2, func(c *spd3.Ctx, r int) {
			i := r + 1
			for j := 1; j < n-1; j++ {
				up, down := g.Get(c, i-1, j), g.Get(c, i+1, j)
				left, right := g.Get(c, i, j-1), g.Get(c, i, j+1)
				g.Update(c, i, j, func(old float64) float64 {
					return relax(old, up, down, left, right)
				})
			}
		})
	})
}

func (s *stencil) uncolouredRaces() []raceKey {
	n := s.n
	var out []raceKey
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			if i >= 2 {
				out = append(out, raceKey{"read-write", "grid", i*n + j})
			}
			if i <= n-3 {
				out = append(out, raceKey{"write-read", "grid", i*n + j})
			}
		}
	}
	return out
}

// ---- gather --------------------------------------------------------

// gather is repeated sparse matrix-vector multiply, y = A·x with the
// vectors swapping roles each iteration. A has exactly k entries per
// row and is stored ELLPACK-style (entry e of row r at e*rows+r, the
// layout fixed-width sparse formats use), so the k entries a row task
// reads are `rows` elements apart and the x elements it gathers are
// wherever the seeded columns point: consecutive accesses to a region
// rarely share a shadow page.
type gather struct {
	rows, k, iters int
	cols           []int
	vals, x0       []float64
}

func newGather(rows, k, iters int, seed uint64) *gather {
	r := subSeed(seed, 3)
	g := &gather{rows: rows, k: k, iters: iters,
		cols: make([]int, rows*k), vals: make([]float64, rows*k), x0: make([]float64, rows)}
	for i := range g.cols {
		g.cols[i] = r.intn(rows)
		g.vals[i] = r.float() * 2 / float64(k) // row sums average 1: iterates neither blow up nor vanish
	}
	for i := range g.x0 {
		g.x0[i] = r.float()
	}
	return g
}

func (g *gather) counts() counts {
	rowsRun := int64(g.rows) * int64(g.iters)
	return counts{reads: 3 * int64(g.k) * rowsRun, writes: rowsRun, spawns: rowsRun}
}

func (g *gather) rawRow(x, y []float64, r int) {
	sum := 0.0
	for e := 0; e < g.k; e++ {
		sum += g.vals[e*g.rows+r] * x[g.cols[e*g.rows+r]]
	}
	y[r] = sum
}

func (g *gather) rawSeq() uint64 {
	x := append([]float64(nil), g.x0...)
	y := make([]float64, g.rows)
	for it := 0; it < g.iters; it++ {
		for r := 0; r < g.rows; r++ {
			g.rawRow(x, y, r)
		}
		x, y = y, x
	}
	return sumBits(x)
}

func (g *gather) rawTask(h host) (uint64, *spd3.Report, error) {
	x := append([]float64(nil), g.x0...)
	y := make([]float64, g.rows)
	rep, err := h.run(func(c *spd3.Ctx) {
		for it := 0; it < g.iters; it++ {
			c.Finish(func(c *spd3.Ctx) {
				for r := 0; r < g.rows; r++ {
					c.Async(func(*spd3.Ctx) { g.rawRow(x, y, r) })
				}
			})
			x, y = y, x
		}
	})
	return sumBits(x), rep, err
}

// inst is the instrumented kernel. With f.on, row f.b stores its result
// into y[f.a] — the row f.a's own task also writes — in the first
// iteration: a write-write race on that one element under any schedule.
func (g *gather) inst(h host, f fault) (uint64, *spd3.Report, error) {
	rows, k := g.rows, g.k
	cols := newArray[int](h, "cols", rows*k)
	vals := newArray[float64](h, "vals", rows*k)
	x := newArray[float64](h, "x", rows)
	y := newArray[float64](h, "y", rows)
	copy(cols.Unchecked(), g.cols)
	copy(vals.Unchecked(), g.vals)
	copy(x.Unchecked(), g.x0)
	rep, err := h.run(func(c *spd3.Ctx) {
		for it := 0; it < g.iters; it++ {
			c.Finish(func(c *spd3.Ctx) {
				for r := 0; r < rows; r++ {
					c.Async(func(c *spd3.Ctx) {
						sum := 0.0
						for e := 0; e < k; e++ {
							sum += vals.Get(c, e*rows+r) * x.Get(c, cols.Get(c, e*rows+r))
						}
						dst := r
						if f.on && it == 0 && r == f.b {
							dst = f.a
						}
						y.Set(c, dst, sum)
					})
				}
			})
			x, y = y, x
		}
	})
	return sumBits(x.Unchecked()), rep, err
}

func (g *gather) sharedRowFault(seed uint64) (fault, []raceKey) {
	r := subSeed(seed, 4)
	a := r.intn(g.rows)
	b := (a + 1 + r.intn(g.rows-1)) % g.rows
	return fault{on: true, a: a, b: b}, []raceKey{{"write-write", "y", a}}
}

// ---- spawn ---------------------------------------------------------

// spawnTree is Cilk-style fib(n) with one result slot per call: the call
// tree is numbered in preorder, every call writes its own slot and an
// inner call reads its two children's. The leaves carry seeded values,
// so the root's value is base0·F(n-1) + base1·F(n).
type spawnTree struct {
	n            int
	base0, base1 int64
	calls        []int // calls[m] = size of fib(m)'s call tree
}

func newSpawnTree(n int, seed uint64) *spawnTree {
	r := subSeed(seed, 5)
	t := &spawnTree{n: n, base0: int64(1 + r.intn(1000)), base1: int64(1 + r.intn(1000)), calls: make([]int, n+1)}
	for m := range t.calls {
		t.calls[m] = 1
		if m >= 2 {
			t.calls[m] += t.calls[m-1] + t.calls[m-2]
		}
	}
	return t
}

func (t *spawnTree) counts() counts {
	total := int64(t.calls[t.n])
	inner := (total - 1) / 2 // every inner call has exactly two children
	return counts{reads: 2 * inner, writes: total, spawns: total - 1}
}

func (t *spawnTree) leaf(m int) int64 {
	if m == 0 {
		return t.base0
	}
	return t.base1
}

func (t *spawnTree) rawSeq() uint64 {
	var fib func(m int) int64
	fib = func(m int) int64 {
		if m < 2 {
			return t.leaf(m)
		}
		return fib(m-1) + fib(m-2)
	}
	return uint64(fib(t.n))
}

func (t *spawnTree) rawTask(h host) (uint64, *spd3.Report, error) {
	res := make([]int64, t.calls[t.n])
	var fib func(k *spd3.Cilk, m, slot int)
	fib = func(k *spd3.Cilk, m, slot int) {
		if m < 2 {
			res[slot] = t.leaf(m)
			return
		}
		s1, s2 := slot+1, slot+1+t.calls[m-1]
		k.Spawn(func(k *spd3.Cilk) { fib(k, m-1, s1) })
		k.Spawn(func(k *spd3.Cilk) { fib(k, m-2, s2) })
		k.Sync()
		res[slot] = res[s1] + res[s2]
	}
	rep, err := h.run(func(c *spd3.Ctx) {
		spd3.RunCilk(c, func(k *spd3.Cilk) { fib(k, t.n, 0) })
	})
	return uint64(res[0]), rep, err
}

// inst is the instrumented kernel. With f.on no call syncs before
// reading its children's slots, so every slot but the root's is read by
// the parent while its writer may still run: in depth-first order the
// child's write comes first, a write-read race on each.
func (t *spawnTree) inst(h host, f fault) (uint64, *spd3.Report, error) {
	res := newArray[int64](h, "res", t.calls[t.n])
	var fib func(k *spd3.Cilk, m, slot int)
	fib = func(k *spd3.Cilk, m, slot int) {
		c := k.Ctx()
		if m < 2 {
			res.Set(c, slot, t.leaf(m))
			return
		}
		s1, s2 := slot+1, slot+1+t.calls[m-1]
		k.Spawn(func(k *spd3.Cilk) { fib(k, m-1, s1) })
		k.Spawn(func(k *spd3.Cilk) { fib(k, m-2, s2) })
		if !f.on {
			k.Sync()
		}
		res.Set(c, slot, res.Get(c, s1)+res.Get(c, s2))
	}
	rep, err := h.run(func(c *spd3.Ctx) {
		spd3.RunCilk(c, func(k *spd3.Cilk) { fib(k, t.n, 0) })
	})
	return uint64(res.Unchecked()[0]), rep, err
}

func (t *spawnTree) noSyncRaces() []raceKey {
	out := make([]raceKey, 0, t.calls[t.n]-1)
	for s := 1; s < t.calls[t.n]; s++ {
		out = append(out, raceKey{"write-read", "res", s})
	}
	return out
}
