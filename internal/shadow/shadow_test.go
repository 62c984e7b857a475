package shadow

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSparseRandomIndexes is the paging property test: hammer random
// sparse indexes (deliberately including page-boundary neighbours) and
// check that every written cell reads back through both the direct and
// the cached path, that untouched cells stay zero, and that only the
// touched pages were allocated.
func TestSparseRandomIndexes(t *testing.T) {
	for _, bound := range []int{-1, 1, PageSize - 1, PageSize, PageSize + 1, 100_000, 1 << 22} {
		bound := bound
		rng := rand.New(rand.NewSource(int64(bound) + 42))
		p := New[int64](bound)
		var pc PageCache

		limit := bound
		if limit < 0 {
			limit = 1 << 30 // growable: exercise far-out indexes
		}
		mirror := map[int]int64{}
		touched := map[int]bool{}
		for k := 0; k < 4000; k++ {
			i := rng.Intn(limit)
			if k%5 == 0 && i >= PageSize {
				// Snap to a page boundary or its neighbour.
				i = (i &^ PageMask) - rng.Intn(2)
			}
			v := rng.Int63()
			if k%2 == 0 {
				*p.Cell(i) = v
			} else {
				*p.CellOf(&pc, i) = v
			}
			mirror[i] = v
			touched[i>>PageShift] = true
		}
		for i, want := range mirror {
			if got := *p.Cell(i); got != want {
				t.Fatalf("bound %d: cell %d = %d, want %d", bound, i, got, want)
			}
			if got := *p.CellOf(&pc, i); got != want {
				t.Fatalf("bound %d: cached cell %d = %d, want %d", bound, i, got, want)
			}
			if j := i + 1; j < limit && mirror[j] == 0 {
				if got := *p.Cell(j); got != 0 {
					t.Fatalf("bound %d: untouched neighbour %d = %d", bound, j, got)
				}
			}
		}
		if pages, _ := p.Allocated(); int(pages) < len(touched) {
			t.Fatalf("bound %d: %d pages allocated, but %d distinct pages touched", bound, pages, len(touched))
		}
	}
}

// TestLazyAllocation pins the tentpole claim: touching k pages of a huge
// region allocates exactly k pages, and cell accounting matches.
func TestLazyAllocation(t *testing.T) {
	const bound = 10 << 20
	p := New[int64](bound)
	var allocated int64
	p.SetOnAlloc(func(cells int) { allocated += int64(cells) })

	for g := 0; g < 25; g++ {
		*p.Cell(g * 100 * PageSize) = 1 // one cell per distinct page
	}
	pages, cells := p.Allocated()
	if pages != 25 {
		t.Fatalf("allocated %d pages, want 25", pages)
	}
	if cells != 25*PageSize {
		t.Fatalf("allocated %d cells, want %d", cells, 25*PageSize)
	}
	if allocated != cells {
		t.Fatalf("onAlloc saw %d cells, accounting says %d", allocated, cells)
	}
}

// TestShortLastPage: a bounded region's last page is clipped to the
// bound, and indexes past the bound panic like a flat slice would.
func TestShortLastPage(t *testing.T) {
	const bound = PageSize + 10
	p := New[int8](bound)
	*p.Cell(bound - 1) = 7
	if _, cells := p.Allocated(); cells != 10 {
		t.Fatalf("clipped page has %d cells, want 10", cells)
	}
	for _, i := range []int{bound, bound + 5000, 3 * PageSize, -1} {
		i := i
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Cell(%d) on bound-%d region did not panic", i, bound)
				}
			}()
			p.Cell(i)
		}()
	}
}

// TestConcurrentPublication hammers random cells from all cores with
// atomic increments: every increment must land exactly once no matter
// which goroutine's page allocation wins the CAS. Run under -race in CI.
func TestConcurrentPublication(t *testing.T) {
	const (
		goroutines = 8
		perG       = 20_000
		span       = 64 * PageSize
	)
	p := New[atomic.Int64](-1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var pc PageCache
			for k := 0; k < perG; k++ {
				// Bias toward boundaries so racing first-touches of the
				// same fresh page are common.
				i := rng.Intn(span) &^ PageMask
				i += rng.Intn(4)
				p.CellOf(&pc, i).Add(1)
			}
		}(int64(g))
	}
	wg.Wait()
	var total int64
	p.Range(func(_ int, cells []atomic.Int64) {
		for i := range cells {
			total += cells[i].Load()
		}
	})
	if want := int64(goroutines * perG); total != want {
		t.Fatalf("lost updates: counted %d, want %d", total, want)
	}
}

// TestPageCacheCounts pins the hit/miss accounting of the dense sweep:
// one miss per page, hits for everything else, and TakeCounts drains.
func TestPageCacheCounts(t *testing.T) {
	const n = 3 * PageSize
	p := New[int64](n)
	var pc PageCache
	for i := 0; i < n; i++ {
		*p.CellOf(&pc, i) = int64(i)
	}
	hits, misses := pc.TakeCounts()
	if misses != 3 {
		t.Fatalf("dense sweep took %d misses, want 3 (one per page)", misses)
	}
	if hits != n-3 {
		t.Fatalf("dense sweep took %d hits, want %d", hits, n-3)
	}
	if h, m := pc.TakeCounts(); h != 0 || m != 0 {
		t.Fatalf("TakeCounts did not drain: %d/%d", h, m)
	}
}

// access is one lookup of a recorded stream: a region's number and a cell.
type access struct{ region, index int }

// gatherStream is the sparse gather's inner loop over rows rows: an
// ELLPACK matrix stored by diagonal, so the k entries of a row lie stride
// cells apart in vals (region 0) and in cols (1), a vector x (2) of xLen
// cells read at seeded random indices and a dense result y (3).
func gatherStream(k, stride, rows, xLen int) []access {
	rng := rand.New(rand.NewSource(7))
	var seq []access
	for r := 0; r < rows; r++ {
		for e := 0; e < k; e++ {
			seq = append(seq, access{0, e*stride + r}, access{1, e*stride + r}, access{2, rng.Intn(xLen)})
		}
		seq = append(seq, access{3, r})
	}
	return seq
}

// stencilStream is the five-point stencil's inner loop over the interior
// of a grid (region 0) of rows rows of n cells: up, down, left, right,
// centre.
func stencilStream(n, rows int) []access {
	var seq []access
	for i := 1; i < rows-1; i++ {
		for j := 1; j < n-1; j++ {
			for _, c := range [...]int{(i-1)*n + j, (i+1)*n + j, i*n + j - 1, i*n + j + 1, i*n + j} {
				seq = append(seq, access{0, c})
			}
		}
	}
	return seq
}

// ellpackCounts drives one cache through gatherStream and returns its
// counts. between runs after each New: the regions' addresses are
// whatever it leaves.
func ellpackCounts(k, stride int, between func()) (hits, misses int64) {
	const rows, xLen = 1500, 4 * PageSize
	var regions []*Pages[int8]
	for _, bound := range []int{k * stride, k * stride, xLen, rows} {
		regions = append(regions, New[int8](bound))
		between()
	}
	var pc PageCache
	for _, a := range gatherStream(k, stride, rows, xLen) {
		regions[a.region].CellOf(&pc, a.index)
	}
	return pc.TakeCounts()
}

// TestPageCacheGatherShape pins the cache by access shape: the gather's
// loop, whose working set fits the cache (engine_gather's 16 + 16 + 4 + 1
// pages, diagonals four pages apart; eight diagonals sixteen pages apart),
// hits at least every other lookup, and takes the very same hits and
// misses wherever the allocator puts the regions — the slot is a function
// of page numbers and id differences, not of addresses. (Sixteen diagonals
// sixteen pages apart read 0.43: pages 144 — a Fibonacci number — apart
// share a slot under the Fibonacci hash.)
func TestPageCacheGatherShape(t *testing.T) {
	var keep [][]byte
	junk := func() {
		for _, n := range []int{24, 448, 100, 3000, 64, 9000} {
			keep = append(keep, make([]byte, n))
		}
	}
	for _, shape := range []struct{ k, pagesApart int }{{16, 4}, {8, 16}} {
		k, stride := shape.k, shape.pagesApart*PageSize
		hits, misses := ellpackCounts(k, stride, func() {})
		if ratio := float64(hits) / float64(hits+misses); ratio < 0.5 {
			t.Errorf("%d diagonals %d pages apart: %d hits, %d misses, ratio %.2f < 0.5", k, shape.pagesApart, hits, misses, ratio)
		}
		if h, m := ellpackCounts(k, stride, junk); h != hits || m != misses {
			t.Errorf("%d diagonals %d pages apart: %d/%d hits/misses, but %d/%d with other allocations between the regions",
				k, shape.pagesApart, hits, misses, h, m)
		}
	}
	runtime.KeepAlive(keep)
}

// TestPageCacheStencilWindow: a three-row window sliding down a grid of
// eight rows to the page — up, down, left, right, centre — crosses three
// page boundaries and takes exactly one miss per distinct page.
func TestPageCacheStencilWindow(t *testing.T) {
	const n, rows = PageSize / 8, 32
	p := New[int64](n * rows)
	var pc PageCache
	seq := stencilStream(n, rows)
	for _, a := range seq {
		p.CellOf(&pc, a.index)
	}
	lookups := int64(len(seq))
	pages, _ := p.Allocated()
	if hits, misses := pc.TakeCounts(); misses != pages || hits != lookups-pages || pages != rows/8 {
		t.Fatalf("%d hits, %d misses over %d lookups of %d pages, want one miss per page", hits, misses, lookups, pages)
	}
}

// TestRange: iteration visits exactly the allocated pages, in ascending
// order, with correct start indexes.
func TestRange(t *testing.T) {
	p := New[int32](-1)
	want := []int{0, 5, 6, 300} // page indexes spread across superblocks
	for _, g := range want {
		*p.Cell(g*PageSize + 3) = int32(g + 1)
	}
	var got []int
	p.Range(func(start int, cells []int32) {
		if start&PageMask != 0 {
			t.Fatalf("page start %d not page-aligned", start)
		}
		if cells[3] != int32(start>>PageShift+1) {
			t.Fatalf("page %d carries %d", start>>PageShift, cells[3])
		}
		got = append(got, start>>PageShift)
	})
	for i, g := range got {
		if g != want[i] {
			t.Fatalf("Range visited %v, want %v", got, want)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Range visited %d pages, want %d", len(got), len(want))
	}
}

// TestDistinctRegionsShareCache: two regions used through one cache must
// not corrupt each other's lookups even when they collide on a slot —
// whether they hold the same cell type or, forced onto one slot, cells of
// different types and sizes.
func TestDistinctRegionsShareCache(t *testing.T) {
	var pc PageCache
	a := New[int64](PageSize)
	b := New[int64](PageSize)
	for i := 0; i < PageSize; i++ {
		*a.CellOf(&pc, i) = int64(i)
		*b.CellOf(&pc, i) = int64(-i)
	}
	for i := 0; i < PageSize; i++ {
		if *a.CellOf(&pc, i) != int64(i) || *b.CellOf(&pc, i) != int64(-i) {
			t.Fatalf("cross-region corruption at %d", i)
		}
	}

	wide := New[[3]int64](-1)
	page := uint64(0) // the page of wide that shares a slot with a's page 0
	for slotOf(wide.id, page) != slotOf(a.id, 0) {
		page++
	}
	pc.TakeCounts()
	const rounds = 100
	for i := 0; i < rounds; i++ {
		w := wide.CellOf(&pc, int(page)<<PageShift+i)
		*w = [3]int64{int64(i), -1, -1}
		if got := *a.CellOf(&pc, i); got != int64(i) {
			t.Fatalf("a[%d] = %d after a write through the colliding %T region", i, got, *w)
		}
		if got := *wide.CellOf(&pc, int(page)<<PageShift+i); got != [3]int64{int64(i), -1, -1} {
			t.Fatalf("wide cell %d = %v", i, got)
		}
		a.CellOf(&pc, i)
	}
	if hits, misses := pc.TakeCounts(); hits != 0 || misses != 4*rounds {
		t.Fatalf("%d hits, %d misses: the two regions were meant to evict each other on every lookup", hits, misses)
	}
}
