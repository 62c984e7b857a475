package core

import (
	"testing"

	"spd3/internal/detect"
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
