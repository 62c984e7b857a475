package shadow

import "testing"

// BenchmarkCellOfInterleaved times CellOf, ns per lookup, on the page
// sequences of three inner loops over 16-byte cells: the sparse gather
// (gatherStream: diagonals four pages apart, x over four pages), the
// five-point stencil (stencilStream: one region, a three-row window) and a
// matrix product (a row of A, a column of B, a cell of C).
func BenchmarkCellOfInterleaved(b *testing.B) {
	type cell [2]uint64
	const rows, k, n = 4 * PageSize, 16, 512
	var matmul []access // regions A, B, C
	for j := 0; j < 64; j++ {
		for e := 0; e < n; e++ {
			matmul = append(matmul, access{0, 3*n + e}, access{1, e*n + j})
		}
		matmul = append(matmul, access{2, 3*n + j})
	}
	for _, s := range []struct {
		name   string
		bounds []int // one region each
		seq    []access
	}{
		{"gather", []int{rows * k, rows * k, rows, rows}, gatherStream(k, rows, 1024, rows)},
		{"stencil", []int{n * n}, stencilStream(n, 33)},
		{"matmul", []int{n * n, n * n, n * n}, matmul},
	} {
		b.Run(s.name, func(b *testing.B) {
			regions := make([]*Pages[cell], len(s.bounds))
			for i, bound := range s.bounds {
				regions[i] = New[cell](bound)
			}
			var pc PageCache
			for _, a := range s.seq { // allocate the pages outside the timed loop
				regions[a.region].CellOf(&pc, a.index)
			}
			pc.TakeCounts()
			sum := uint64(0)
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i++ {
				a := s.seq[k]
				sum += regions[a.region].CellOf(&pc, a.index)[0]
				if k++; k == len(s.seq) {
					k = 0
				}
			}
			b.StopTimer()
			hits, misses := pc.TakeCounts()
			b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
			if sum != 0 {
				b.Fatal("a fresh cell read non-zero")
			}
		})
	}
}
