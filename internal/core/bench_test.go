package core

import (
	"testing"

	"spd3/internal/detect"
	"spd3/internal/dpst"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// shadowAtDepth builds a detector state where the accessing steps sit
// depth finish-levels below the root, so the per-access DMHP walks cost
// O(depth) — the §5.3 "characteristic of the application" overhead.
func shadowAtDepth(b *testing.B, depth int,
	body func(c *task.Ctx, sh detect.Shadow)) {
	b.Helper()
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		b.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", 64, 8))
	var nest func(c *task.Ctx, left int)
	nest = func(c *task.Ctx, left int) {
		if left == 0 {
			body(c, sh)
			return
		}
		c.Finish(func(c *task.Ctx) { nest(c, left-1) })
	}
	if err := rt.Run(func(c *task.Ctx) { nest(c, depth) }); err != nil {
		b.Fatal(err)
	}
	if !sink.Empty() {
		b.Fatal("benchmark program raced")
	}
}

// BenchmarkShadowWrite measures the Algorithm 1 fast path: repeated
// writes by the owning step (w == s short-circuit).
func BenchmarkShadowWriteSameStep(b *testing.B) {
	shadowAtDepth(b, 4, func(c *task.Ctx, sh detect.Shadow) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sh.Write(c.Task(), 0)
		}
	})
}

// BenchmarkShadowReadSteadyState measures the read-shared steady state
// (two recorded readers, no update — the paper's motivating hot path for
// the §5.4 snapshot protocol) at several tree depths.
func BenchmarkShadowReadSteadyState(b *testing.B) {
	for _, depth := range []int{2, 8, 24} {
		depth := depth
		b.Run(itoa(depth), func(b *testing.B) {
			shadowAtDepth(b, depth, func(c *task.Ctx, sh detect.Shadow) {
				// Install two parallel readers.
				c.Finish(func(c *task.Ctx) {
					c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
					c.Async(func(c *task.Ctx) { sh.Read(c.Task(), 0) })
				})
				c.Finish(func(c *task.Ctx) {
					c.Async(func(c *task.Ctx) {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							sh.Read(c.Task(), 0)
						}
					})
				})
			})
		})
	}
}

// sweepCells applies op, a shadow's Read or Write, n times in c's task,
// cycling over the first cells cells.
func sweepCells(c *task.Ctx, op func(t *detect.Task, i int), cells, n int) {
	for i := 0; i < n; i++ {
		op(c.Task(), i%cells)
	}
}

// BenchmarkShadowReadThirdReader measures a read that changes nothing and
// cannot be answered short of Algorithm 2's last case: the 64 cells hold an
// ordered writer and two parallel readers, and a third reader, parallel
// with both and inside the subtree under their LCA, sweeps them — three
// walks a read.
func BenchmarkShadowReadThirdReader(b *testing.B) {
	shadowAtDepth(b, 4, func(c *task.Ctx, sh detect.Shadow) {
		sweepCells(c, sh.Write, 64, 64)
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sweepCells(c, sh.Read, 64, 64) })
			c.Async(func(c *task.Ctx) { sweepCells(c, sh.Read, 64, 64) })
			c.Async(func(c *task.Ctx) {
				b.ResetTimer()
				sweepCells(c, sh.Read, 64, b.N)
			})
		})
	})
}

// BenchmarkShadowReadClosedPhase measures reads of what a closed top-level
// finish recorded — the phase structure of the stencil's own cells and of
// gather's read-shared arrays: every phase is a top-level finish in which
// two tasks each read a page of cells written in the first phase, so the
// first meets w, r1 and r2 from closed phases and supersedes the readers,
// and the second meets w from a closed phase and the first as r1.
func BenchmarkShadowReadClosedPhase(b *testing.B) {
	const page = 4096
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		b.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", page, 8))
	if err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { sweepCells(c, sh.Write, page, page) })
		})
		b.ResetTimer()
		for n := 0; n < b.N; n += 2 * page {
			c.Finish(func(c *task.Ctx) {
				for r := 0; r < 2; r++ {
					c.Async(func(c *task.Ctx) { sweepCells(c, sh.Read, page, page) })
				}
			})
		}
	}); err != nil {
		b.Fatal(err)
	}
	if !sink.Empty() {
		b.Fatal("benchmark program raced")
	}
}

// BenchmarkShadowUpdate measures the stencil's memory actions: red-black
// relaxation of a 66×66 grid, each phase a top-level finish with an async
// per interior row, in which every cell of the phase's colour is read at
// its four neighbours and then updated (detect.Update) — four reads and a
// read-modify-write, one op. A neighbour was written in the phase before
// and is read by three row tasks of this one, so the reads meet parallel
// readers of their own phase; the update meets its cell's readers from the
// phase before, which the watermark answers.
func BenchmarkShadowUpdate(b *testing.B) {
	const n = 66
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		b.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("grid", n*n, 8))
	left := b.N
	if err := rt.Run(func(c *task.Ctx) {
		b.ResetTimer()
		for col := 0; left > 0; col ^= 1 {
			c.Finish(func(c *task.Ctx) {
				for i := 1; i < n-1 && left > 0; i++ {
					c.Async(func(c *task.Ctx) {
						t := c.Task()
						for j := 1 + (i+1+col)%2; j < n-1 && left > 0; j, left = j+2, left-1 {
							k := i*n + j
							sh.Read(t, k-n)
							sh.Read(t, k+n)
							sh.Read(t, k-1)
							sh.Read(t, k+1)
							detect.Update(sh, t, k)
						}
					})
				}
			})
		}
	}); err != nil {
		b.Fatal(err)
	}
	if !sink.Empty() {
		b.Fatal("benchmark program raced")
	}
}

// BenchmarkTaskBoundary measures the O(1) DPST maintenance per async
// (three node insertions).
func BenchmarkTaskBoundary(b *testing.B) {
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	if err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Async(func(c *task.Ctx) {})
			}
		})
	}); err != nil {
		b.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkShadowSparse is the paged-shadow evaluation: dense vs
// clustered-sparse access patterns on one large region. Each
// sub-benchmark pre-touches its full pattern (materializing the
// footprint), reports the resulting shadow bytes as a metric, then times
// steady-state writes over the pattern. The claim under test: on the
// sparse pattern the shadow costs a small fraction of the dense one
// (only touched pages exist).
func BenchmarkShadowSparse(b *testing.B) {
	const (
		elems     = 10_000_000
		pageCells = 4096 // shadow.PageSize
	)
	// Clustered sparse pattern: ~1% of the pages, one full page per
	// cluster. A uniform-random 1% of *elements* would touch every page
	// and show no paging benefit — sparseness that pays is page-granular.
	sparseIdx := func() []int {
		clusters := elems / pageCells / 100
		stride := elems / clusters
		idxs := make([]int, 0, clusters*pageCells)
		for k := 0; k < clusters; k++ {
			base := (k * stride) &^ (pageCells - 1)
			for i := 0; i < pageCells; i++ {
				idxs = append(idxs, base+i)
			}
		}
		return idxs
	}
	denseIdx := func() []int {
		idxs := make([]int, elems)
		for i := range idxs {
			idxs[i] = i
		}
		return idxs
	}
	for _, pattern := range []struct {
		name string
		idxs func() []int
	}{{"dense", denseIdx}, {"sparse", sparseIdx}} {
		b.Run(pattern.name, func(b *testing.B) {
			sink := detect.NewSink(false, 0)
			d := New(sink, nil)
			rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
			if err != nil {
				b.Fatal(err)
			}
			sh := d.NewShadow(detect.Spec("x", elems, 8))
			idxs := pattern.idxs()
			if err := rt.Run(func(c *task.Ctx) {
				t := c.Task()
				for _, i := range idxs {
					sh.Write(t, i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sh.Write(t, idxs[i%len(idxs)])
				}
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(d.Footprint().ShadowBytes), "shadow-B")
		})
	}
}

// BenchmarkShadowPublish measures the update stage, the memory actions
// that do change the word, one sub-benchmark per kind of change:
//
//	write           Algorithm 1 replacing an ordered previous writer
//	read-supersede  Algorithm 2 replacing the recorded readers with one
//	                ordered after them
//	read-second     Algorithm 2 recording a second, parallel reader
//
// each on one cell (the line stays in L1, so the figure is the protocol's
// instructions) and sweeping a 4096-cell page (64 KiB of 16-byte words).
// The steps are hand-built so that two tasks can alternate on a cell
// without a runtime in between: under one finish, a step, an async with
// its step, and the continuation step — the continuation is parallel with
// the async's step — and, after the finish, a step ordered after all
// three. read-second needs r1 set and r2 empty before every timed read,
// which on one cell would put the timer toggles inside the loop; it is
// measured on the sweep only, where an untimed pass re-arms the page.
// Each runs on the shared detector and, under owned/, on an owned one,
// whose publishes are plain stores.
func BenchmarkShadowPublish(b *testing.B) {
	const sweep = 4096
	sink := detect.NewSink(false, 0)
	d := New(sink, nil)
	run := d.tree.NewChildFrom(nil, 0, dpst.FinishNode)
	fin := d.tree.NewChildFrom(nil, run, dpst.FinishNode)
	var local detect.Local
	taskAt := func(scope uint32) *detect.Task {
		return &detect.Task{Step: d.tree.NewChildFrom(nil, scope, dpst.StepNode), L: &local}
	}
	first := taskAt(fin)
	async := d.tree.NewChildFrom(nil, fin, dpst.AsyncNode)
	par := taskAt(async)
	cont := taskAt(fin) // parallel with par, ordered after first
	after := taskAt(run)
	// alternate times op by two mutually ordered tasks in turn, so every
	// call finds the other's step recorded and publishes its own.
	alternate := func(op func(sh detect.Shadow, t *detect.Task, i int)) func(b *testing.B, cells int) {
		return func(b *testing.B, cells int) {
			sh := d.NewShadow(detect.Spec("x", sweep, 8))
			pair := [2]*detect.Task{first, after}
			b.ResetTimer()
			for n := 0; n < b.N; {
				t := pair[(n/cells)&1]
				for i := 0; i < cells && n < b.N; i, n = i+1, n+1 {
					op(sh, t, i)
				}
			}
		}
	}
	// published fails a sub-benchmark in which some timed action left the
	// word as it was: it timed the no-change path, not the update stage.
	published := func(b *testing.B) {
		if local.Tally[stats.CASClean] != 0 || local.Tally[stats.CASPublish] == 0 {
			b.Fatalf("%d actions left the word unchanged, %d published", local.Tally[stats.CASClean], local.Tally[stats.CASPublish])
		}
	}
	for _, prefix := range []string{"", "owned/"} {
		d.owned = prefix != ""
		for _, bench := range []struct {
			name string
			run  func(b *testing.B, cells int)
		}{
			{"write", alternate(func(sh detect.Shadow, t *detect.Task, i int) { sh.Write(t, i) })},
			{"read-supersede", alternate(func(sh detect.Shadow, t *detect.Task, i int) { sh.Read(t, i) })},
		} {
			for _, c := range []struct {
				name  string
				cells int
			}{{"/cell", 1}, {"/sweep", sweep}} {
				b.Run(prefix+bench.name+c.name, func(b *testing.B) {
					local.Tally = [stats.NumBatched]int64{}
					bench.run(b, c.cells)
					published(b)
				})
			}
		}
		b.Run(prefix+"read-second/sweep", func(b *testing.B) {
			sh := d.NewShadow(detect.Spec("x", sweep, 8))
			local.Tally = [stats.NumBatched]int64{}
			for n := 0; n < b.N; {
				b.StopTimer()
				for i := 0; i < sweep; i++ {
					sh.Read(after, i) // supersedes (cont, par)
					sh.Read(cont, i)  // supersedes after: r1 = cont, r2 empty
				}
				b.StartTimer()
				for i := 0; i < sweep && n < b.N; i, n = i+1, n+1 {
					sh.Read(par, i)
				}
			}
			published(b)
		})
	}
	if !sink.Empty() {
		b.Fatal("benchmark program raced")
	}
}
