// Package bench implements the paper's 15-benchmark evaluation suite
// (Table 1): eight Java Grande Forum kernels, four Barcelona OpenMP Task
// Suite programs, two Shootout benchmarks, and the EC2 MatMul challenge —
// all rewritten as async/finish programs over the structured task runtime
// with instrumented shared memory — and the deliberately racy programs
// behind the paper's §6.1 and §6.3 findings. One table lists them all.
//
// Following §6, every data-parallel loop exists in two decompositions:
//
//   - unchunked: one async per iteration — the fine-grained form used for
//     the SPD3 scalability study (Figure 3) and the ESP-bags comparison
//     (Figure 4);
//   - chunked: one async per worker — the coarse-grained form used for
//     the apples-to-apples Eraser/FastTrack comparison (Table 2/3,
//     Figures 5/6), mirroring the one-thread-per-core JGF originals.
//
// Each benchmark validates itself: Run returns a checksum that tests pin
// against an independently computed reference, so the suite cannot
// silently degenerate while still "running".
package bench

import (
	"fmt"

	"spd3/internal/task"
)

// Input selects a benchmark configuration.
type Input struct {
	// Scale multiplies the default problem size; 1.0 is the default
	// laptop-scale size, smaller values shrink test/bench runs.
	Scale float64
	// Chunked selects the coarse one-chunk-per-worker loop
	// decomposition instead of one-async-per-iteration.
	Chunked bool
}

// Benchmark is one program of the corpus.
type Benchmark struct {
	// Name is the Table 1 benchmark name, or the racy program's name.
	Name string
	// Source is the originating suite ("JGF §2", "JGF §3", "BOTS",
	// "Shootout", "EC2"), or "racy" for the deliberately racy programs.
	Source string
	// Desc is the Table 1 description.
	Desc string
	// Args is the paper's input-size annotation.
	Args string
	// JGF marks the eight Java Grande benchmarks used in the
	// Table 2/3 tool comparison.
	JGF bool
	// NeedsParallel marks programs using blocking barriers, which the
	// sequential executor cannot run.
	NeedsParallel bool
	// Run executes the benchmark on rt and returns its checksum.
	Run func(rt *task.Runtime, in Input) (float64, error)
}

// racy is the Source of the deliberately racy programs.
const racy = "racy"

// table is the whole corpus: Table 1's fifteen benchmarks in paper
// order, then the racy programs behind the §6.1 and §6.3 findings, which
// SPD3 is expected to report on.
var table = []*Benchmark{
	{Name: "Series", Source: "JGF §2", Desc: "Fourier coefficient analysis", Args: "(C)", JGF: true, Run: runSeries},
	{Name: "LUFact", Source: "JGF §2", Desc: "LU factorisation", Args: "(C)", JGF: true, Run: runLUFact},
	{Name: "SOR", Source: "JGF §2", Desc: "Successive over-relaxation", Args: "(C)", JGF: true, Run: runSOR},
	{Name: "Crypt", Source: "JGF §2", Desc: "IDEA encryption", Args: "(C)", JGF: true, Run: runCrypt},
	{Name: "Sparse", Source: "JGF §2", Desc: "Sparse matrix multiplication", Args: "(C)", JGF: true, Run: runSparse},
	{Name: "MolDyn", Source: "JGF §3", Desc: "Molecular dynamics simulation", Args: "(B)", JGF: true, Run: runMolDyn},
	{Name: "MonteCarlo", Source: "JGF §3", Desc: "Monte Carlo simulation", Args: "(B)", JGF: true, Run: runMonteCarlo},
	{Name: "RayTracer", Source: "JGF §3", Desc: "3D ray tracer", Args: "(B)", JGF: true, Run: runRayTracer},
	{Name: "FFT", Source: "BOTS", Desc: "Fast Fourier transformation", Args: "(large)", Run: runFFT},
	{Name: "Health", Source: "BOTS", Desc: "Simulates a country health system", Args: "(large)", Run: runHealth},
	{Name: "NQueens", Source: "BOTS", Desc: "N Queens problem", Args: "(14)", Run: runNQueens},
	{Name: "Strassen", Source: "BOTS", Desc: "Matrix multiply with Strassen's method", Args: "(large)", Run: runStrassen},
	{Name: "Fannkuch", Source: "Shootout", Desc: "Indexed access to tiny integer sequence", Args: "(10M)", Run: runFannkuch},
	{Name: "Mandelbrot", Source: "Shootout", Desc: "Generate Mandelbrot set portable bitmap", Args: "(8000)", Run: runMandelbrot},
	{Name: "Matmul", Source: "EC2", Desc: "Matrix multiplication (iterative)", Args: "(1000^2)", Run: runMatmul},
	{Name: "RacyMonteCarlo", Source: racy, Run: runRacyMonteCarlo,
		Desc: "benign race: parallel tasks repeatedly assign the same value (§6.1)"},
	{Name: "BuggyBarrier", Source: racy, Run: runBuggyBarrier,
		Desc: "JGF-style hand-rolled barrier via unsynchronized flag array (§6.3)"},
	{Name: "BarrierSOR", Source: racy, Run: runBarrierSOR, NeedsParallel: true,
		Desc: "original JGF shape: persistent tasks + real barriers; race-free for FastTrack+barrier events, reported by SPD3 (§6.3)"},
}

// filter returns the table's programs that keep accepts, in table order.
func filter(keep func(*Benchmark) bool) []*Benchmark {
	var out []*Benchmark
	for _, b := range table {
		if keep(b) {
			out = append(out, b)
		}
	}
	return out
}

// All returns the Table 1 suite in paper order.
func All() []*Benchmark { return filter(func(b *Benchmark) bool { return b.Source != racy }) }

// JGF returns the eight Java Grande benchmarks (the Table 2/3 subset).
func JGF() []*Benchmark { return filter(func(b *Benchmark) bool { return b.JGF }) }

// Racy returns the deliberately racy programs.
func Racy() []*Benchmark { return filter(func(b *Benchmark) bool { return b.Source == racy }) }

// ByName looks any program of the corpus up by name.
func ByName(name string) (*Benchmark, error) {
	for _, b := range table {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q", name)
}

// scaled resizes a default dimension by in.Scale (rounded to nearest),
// with a floor of lo.
func (in Input) scaled(n, lo int) int {
	s := in.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n)*s + 0.5)
	if v < lo {
		v = lo
	}
	return v
}

// grain returns the loop grain for n iterations under this input: 1 for
// the unchunked (fine-grained) decomposition, one chunk per worker for
// the chunked one.
func (in Input) grain(c *task.Ctx, n int) int {
	if in.Chunked {
		return c.ChunkGrain(n)
	}
	return 1
}
