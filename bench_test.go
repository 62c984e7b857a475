// Benchmarks regenerating the paper's evaluation artifacts as testing.B
// targets — one benchmark function per table/figure, with sub-benchmarks
// per (program, tool, workers) cell:
//
//	go test -bench=Fig3 -benchmem          # Figure 3 cells
//	go test -bench=. -benchmem             # everything
//
// Each cell reports ns/op for one full benchmark run; slowdowns are the
// ratios of the matching base/detector cells. Memory-oriented cells
// (Table 3, Figure 6) additionally report the detector's analytic
// footprint as the custom metric "shadow-MB". cmd/experiments prints the
// same data as the paper's ready-made tables.
package spd3

import (
	"testing"

	"spd3/internal/bench"
	"spd3/internal/detect"
	"spd3/internal/harness"
	"spd3/internal/task"
)

// benchScale keeps full-matrix `go test -bench=.` runs tractable; raise
// it (or use cmd/experiments -scale) for steadier numbers.
const benchScale = 0.5

// cell runs one benchmark configuration b.N times.
func cell(b *testing.B, bm *bench.Benchmark, tool harness.Tool, workers int, chunked bool) {
	in := bench.Input{Scale: benchScale, Chunked: chunked}
	b.ReportAllocs()
	var foot int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ses := harness.Open(tool, detect.SessionOpts{})
		rt, err := task.New(task.Config{Executor: task.Auto, Workers: workers, Detector: ses.Det, Stats: ses.Rec})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bm.Run(rt, in); err != nil {
			b.Fatal(err)
		}
		foot = ses.Det.Footprint().Total()
	}
	b.ReportMetric(float64(foot)/(1<<20), "shadow-MB")
}

// BenchmarkFig3 regenerates Figure 3's cells: every benchmark, unchunked,
// base vs SPD3, across the worker sweep.
func BenchmarkFig3(b *testing.B) {
	for _, bm := range bench.All() {
		for _, workers := range []int{1, 4, 16} {
			for _, tool := range []harness.Tool{harness.Base, harness.SPD3} {
				b.Run(bm.Name+"/"+string(tool)+"/w"+itoa(workers), func(b *testing.B) {
					cell(b, bm, tool, workers, false)
				})
			}
		}
	}
}

// BenchmarkFig4 regenerates Figure 4's cells: ESP-bags (sequential) vs
// SPD3 (parallel) on every benchmark, against the parallel base.
func BenchmarkFig4(b *testing.B) {
	for _, bm := range bench.All() {
		for _, tool := range []harness.Tool{harness.Base, harness.ESPBags, harness.SPD3} {
			b.Run(bm.Name+"/"+string(tool), func(b *testing.B) {
				cell(b, bm, tool, 16, false)
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2's cells: the JGF subset, chunked,
// under Eraser, FastTrack, and SPD3 at 16 workers.
func BenchmarkTable2(b *testing.B) {
	for _, bm := range bench.JGF() {
		for _, tool := range []harness.Tool{harness.Base, harness.Eraser, harness.FastTrack, harness.SPD3} {
			b.Run(bm.Name+"/"+string(tool), func(b *testing.B) {
				cell(b, bm, tool, 16, true)
			})
		}
	}
}

// BenchmarkTable3 regenerates Table 3's cells; read the shadow-MB metric
// for the memory comparison.
func BenchmarkTable3(b *testing.B) {
	for _, bm := range bench.JGF() {
		for _, tool := range []harness.Tool{harness.Eraser, harness.FastTrack, harness.SPD3} {
			b.Run(bm.Name+"/"+string(tool), func(b *testing.B) {
				cell(b, bm, tool, 16, true)
			})
		}
	}
}

// BenchmarkFig5 regenerates Figure 5's cells: chunked Crypt across the
// worker sweep under every tool.
func BenchmarkFig5(b *testing.B) {
	bm, err := bench.ByName("Crypt")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		for _, tool := range []harness.Tool{harness.Base, harness.Eraser, harness.FastTrack, harness.SPD3} {
			b.Run(string(tool)+"/w"+itoa(workers), func(b *testing.B) {
				cell(b, bm, tool, workers, true)
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6's cells: chunked LUFact across the
// worker sweep; read the shadow-MB metric.
func BenchmarkFig6(b *testing.B) {
	bm, err := bench.ByName("LUFact")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		for _, tool := range []harness.Tool{harness.Eraser, harness.FastTrack, harness.SPD3} {
			b.Run(string(tool)+"/w"+itoa(workers), func(b *testing.B) {
				cell(b, bm, tool, workers, true)
			})
		}
	}
}

// BenchmarkStatsOverhead is the instrument of the <5% observability
// budget: default SPD3 against the same detector with the stats recorder
// disabled (Options.NoStats), on the two monitoring-heavy kernels.
func BenchmarkStatsOverhead(b *testing.B) {
	for _, name := range []string{"SOR", "LUFact"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, tool := range []harness.Tool{harness.SPD3, harness.SPD3NoStats} {
			b.Run(name+"/"+string(tool), func(b *testing.B) {
				cell(b, bm, tool, 4, false)
			})
		}
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
