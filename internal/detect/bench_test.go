package detect

import (
	"fmt"
	"testing"

	"spd3/internal/stats"
)

// BenchmarkCountAccess times the region-traffic count, ns per counted
// access, with a loop going round 1, 3 and 12 regions: one container, the
// sparse gather's inner loop (vals, cols, x), and more regions than the
// block's first allocation covers.
func BenchmarkCountAccess(b *testing.B) {
	for _, n := range []int{1, 3, 12} {
		b.Run(fmt.Sprintf("%dregions", n), func(b *testing.B) {
			rec := stats.New()
			gs := newRegions(rec, n)
			l := Local{}
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i++ {
				l.CountAccess(gs[k], i&15 == 0)
				if k++; k == n {
					k = 0
				}
			}
			b.StopTimer()
			l.Flush(rec)
			if snap := rec.Snapshot(); snap.Reads+snap.Writes != int64(b.N) {
				b.Fatalf("counted %d accesses of %d", snap.Reads+snap.Writes, b.N)
			}
		})
	}
}
