package shadow

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
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

// TestCacheSlotsSpread: regions allocated one after the other — what a
// kernel alternates between — land on different cache slots, so a loop
// over two of them hits. The slot hash once read address bits that are
// zero for every Pages, and the four-slot cache was a one-slot cache: an
// alternating loop missed on every access.
func TestCacheSlotsSpread(t *testing.T) {
	const n = 64
	regions := make([]*Pages[int64], n)
	var perSlot [cacheSlots]int
	for i := range regions {
		regions[i] = New[int64](PageSize)
		perSlot[cacheSlot(unsafe.Pointer(regions[i]))]++
	}
	for s, c := range perSlot {
		if c == 0 || c > n/2 {
			t.Fatalf("%d fresh regions map to slots %v: slot %d is unused or takes more than half", n, perSlot, s)
		}
	}
	// The allocator may hand out a recycled address now and then, so
	// "neighbours differ" is asserted for most pairs, not all.
	differ, a, b := 0, -1, -1
	for i := 0; i+1 < n; i++ {
		if cacheSlot(unsafe.Pointer(regions[i])) != cacheSlot(unsafe.Pointer(regions[i+1])) {
			if differ++; a < 0 {
				a, b = i, i+1
			}
		}
	}
	if differ < 3*(n-1)/4 {
		t.Fatalf("only %d of %d consecutively allocated pairs use different slots", differ, n-1)
	}
	var pc PageCache
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		*regions[a].CellOf(&pc, i) += *regions[b].CellOf(&pc, i)
	}
	if hits, misses := pc.TakeCounts(); misses != 2 || hits != 2*rounds-2 {
		t.Fatalf("alternating over two regions: %d hits, %d misses, want %d and 2 (one first touch each)", hits, misses, 2*rounds-2)
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
// not corrupt each other's lookups even when they collide on a slot.
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
}
