// Package shadow provides the paged shadow-memory substrate shared by
// every detector: a two-level, lazily allocated page table of generic
// shadow cells, plus the page cache — one per goroutine that executes
// tasks — that keeps the hot path of a kernel sweeping a few regions at
// one multiply, one compare and one pointer chase.
//
// The paper sizes shadow memory eagerly — one word per monitored element
// at allocation time — which is fine for its dense PLDI kernels but fatal
// for huge, sparse, or growing regions: a 100M-element array that touches
// 1% of its elements would still pay 100% of the shadow RAM. Pages fixes
// the cost model: shadow cells live in fixed-size pages (PageSize cells)
// allocated on first access, so a region pays for exactly the pages it
// touches. The same mechanism makes regions growable — an unbounded page
// index space needs no reallocation, which is what backs mem.List.
//
// # Page table layout
//
// A naive growable page table (a slice of page pointers, copied on grow)
// cannot be published without locks: a concurrent CAS into the old copy
// would be lost. Instead Pages uses a geometric superblock directory, the
// standard lock-free growable-array scheme: a fixed root of dirBlocks
// slots where block s, allocated lazily as one CAS-published slice,
// holds 2^s page slots. Page p lives in block s = floor(log2(p+1)) at
// offset p+1-2^s; both are a couple of bit operations. The root is fixed
// size, so nothing is ever copied or retired, and both block and page
// publication are a single CompareAndSwap: losers drop their allocation
// and adopt the winner's, and a published page is immutable in place, so
// readers can cache raw pointers to it forever.
//
// Page contents are zeroed Go allocations published via atomic pointers,
// so a reader that observes the pointer also observes the zeroed cells;
// every detector's cell type is designed so the zero value means "no
// access recorded".
package shadow

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

const (
	// PageShift is log2 of the page size. 4096 cells per page keeps the
	// lazy-allocation granularity fine enough that a 1-element Var pays
	// one short page, while a page of 16-byte SPD3 shadow words (64 KiB)
	// amortizes its table slot and allocation over thousands of
	// accesses; it also makes the in-page offset a single AND.
	PageShift = 12
	// PageSize is the number of shadow cells per page.
	PageSize = 1 << PageShift
	// PageMask extracts the in-page offset from a cell index.
	PageMask = PageSize - 1
)

// dirBlocks is the size of the fixed directory root. Block s holds 2^s
// page slots, so 52 blocks address 2^52 pages = 2^64 cells — every
// non-negative int index on a 64-bit platform. A negative index shifts
// to a page beyond the last block and panics on the directory bound,
// matching the slice-bounds panic a flat shadow would raise.
const dirBlocks = 52

// Pages is one region's shadow storage: a lock-free two-level table of
// lazily allocated pages of C cells. All methods are safe for concurrent
// use. The zero value is not usable; call New.
type Pages[C any] struct {
	id      uint64 // process-unique, never 0, never reused: the page cache's key
	bound   int64  // cells in the region; -1 = growable (unbounded)
	npages  atomic.Int64
	ncells  atomic.Int64
	onAlloc func(cells int)

	// dir[s] is superblock s: nil until some page in [2^s-1, 2^(s+1)-1)
	// is first touched, then a CAS-published slice of 2^s page slots.
	dir [dirBlocks]atomic.Pointer[[]atomic.Pointer[[]C]]
}

// New returns empty paged storage for a region of bound cells; bound < 0
// means growable (any non-negative index is valid and pages are
// allocated as the region extends).
func New[C any](bound int) *Pages[C] {
	p := &Pages[C]{id: lastID.Add(1), bound: int64(bound)}
	if bound < 0 {
		p.bound = -1
	}
	return p
}

// lastID numbers every Pages of the process, whatever its cell type.
var lastID atomic.Uint64

// Bound returns the region's cell count, or -1 for a growable region.
func (p *Pages[C]) Bound() int { return int(p.bound) }

// SetOnAlloc installs a hook called once per page allocation with the
// page's cell count (pages clipped by the bound are short). Install it
// before the region is accessed; it may be called from any accessing
// goroutine, at most once per page.
func (p *Pages[C]) SetOnAlloc(f func(cells int)) { p.onAlloc = f }

// Allocated returns the number of pages and cells allocated so far.
func (p *Pages[C]) Allocated() (pages, cells int64) {
	return p.npages.Load(), p.ncells.Load()
}

// slot returns the directory slot of page g, allocating (and
// CAS-publishing) its superblock if needed.
func (p *Pages[C]) slot(g uint64) *atomic.Pointer[[]C] {
	s := bits.Len64(g+1) - 1
	blk := p.dir[s].Load()
	if blk == nil {
		fresh := make([]atomic.Pointer[[]C], 1<<uint(s))
		if p.dir[s].CompareAndSwap(nil, &fresh) {
			blk = &fresh
		} else {
			blk = p.dir[s].Load()
		}
	}
	return &(*blk)[g-(1<<uint(s)-1)]
}

// pageRef returns page g's cell slice, allocating and publishing it on
// first touch. The returned pointer is stable for the region's lifetime.
func (p *Pages[C]) pageRef(g uint64) *[]C {
	sl := p.slot(g)
	if ref := sl.Load(); ref != nil {
		return ref
	}
	return p.allocPage(g, sl)
}

func (p *Pages[C]) allocPage(g uint64, sl *atomic.Pointer[[]C]) *[]C {
	n := int64(PageSize)
	if p.bound >= 0 {
		rem := p.bound - int64(g)<<PageShift
		if rem <= 0 {
			panic(fmt.Sprintf("shadow: index out of range for region of %d cells", p.bound))
		}
		if rem < n {
			n = rem // last page of a bounded region is clipped
		}
	}
	pg := make([]C, n)
	if !sl.CompareAndSwap(nil, &pg) {
		return sl.Load() // lost the publication race; adopt the winner
	}
	p.npages.Add(1)
	p.ncells.Add(n)
	if p.onAlloc != nil {
		p.onAlloc(int(n))
	}
	return &pg
}

// Cell returns a pointer to cell i, allocating its page on first touch.
// Out-of-bound or negative indexes panic, mirroring a flat slice.
func (p *Pages[C]) Cell(i int) *C {
	return &(*p.pageRef(uint64(i) >> PageShift))[i&PageMask]
}

// CellOf is Cell through the calling goroutine's page cache: a hit costs
// the slot hash, one id+page compare and one bounds-checked index. pc must
// be owned by the calling goroutine (it is mutated without
// synchronization); the cached page pointers stay valid forever because
// published pages are never moved or freed.
func (p *Pages[C]) CellOf(pc *PageCache, i int) *C {
	if pg := pc.Page(p.id, i); pg != nil {
		return In[C](pg, i)
	}
	g := uint64(i) >> PageShift
	pc.misses++
	ref := p.pageRef(g)
	pc.slots[slotOf(p.id, g)] = pageSlot{id: p.id, page: g, data: unsafe.Pointer(ref)}
	return &(*ref)[i&PageMask]
}

// Key returns the region's page-cache key, for PageCache.Page.
func (p *Pages[C]) Key() uint64 { return p.id }

// Range calls f with every allocated page — the region index of its
// first cell and its cell slice — in ascending page order. Pages
// published concurrently with the iteration may or may not be visited.
func (p *Pages[C]) Range(f func(start int, cells []C)) {
	for s := 0; s < dirBlocks; s++ {
		blk := p.dir[s].Load()
		if blk == nil {
			continue
		}
		first := uint64(1)<<uint(s) - 1
		for off := range *blk {
			if ref := (*blk)[off].Load(); ref != nil {
				f(int((first+uint64(off))<<PageShift), *ref)
			}
		}
	}
}

// The page cache is direct-mapped on (region id, page): the page number
// is spread by a multiplicative (Fibonacci) hash, so the pages one region
// walks at any stride — a row-major sweep, an ELLPACK diagonal — keep
// apart, and the region's id is added to the result, so regions created
// one after the other and indexed in lockstep (A/B/C, vals/cols) sit in
// neighbouring slots instead of on top of each other. Whether two entries
// collide therefore depends on their page numbers and on the difference
// of their ids alone: a run's hit/miss split does not move with how many
// regions the process created before it, nor with where the allocator put
// them. 64 slots hold the working set of the widest committed inner loop
// (the sparse gather: 16 + 16 + 4 + 1 pages); EXPERIMENTS.md "Check-path
// caches" has the hit ratios at 16, 32 and 64.
const (
	cacheBits  = 6
	cacheSlots = 1 << cacheBits
	pageHash   = 0x9E3779B97F4A7C15 // 2^64 / φ
)

// slotOf is the cache slot of page g of the region numbered id.
func slotOf(id, g uint64) uint64 {
	return (g*pageHash>>(64-cacheBits) + id) & (cacheSlots - 1)
}

// PageCache is a small direct-mapped cache of (region, page) → page
// pointer, embedded in the scratch block of each goroutine that executes
// tasks (detect.Local.PC) and threaded through the shadow hot path. Only
// that goroutine touches it, so it is unsynchronized, and an entry serves
// whichever task runs there next: pages are a region's, not a task's.
// Hits and misses are batched in plain integers; detect.Local.Flush moves
// them into the recorder via TakeCounts.
type PageCache struct {
	slots  [cacheSlots]pageSlot
	hits   int64
	misses int64
}

// pageSlot caches one page of one region. id discriminates regions and
// cell types alike: ids are unique across every Pages[C] instantiation
// and never reused, and a zero slot matches none (ids start at 1), so a
// type-mismatched reinterpretation is impossible — data is only ever read
// back through the C of the Pages that stored it. A miss stores one
// pointer, not two: the key is an integer and needs no write barrier.
type pageSlot struct {
	id   uint64 // Pages.id of the region the entry belongs to
	page uint64
	data unsafe.Pointer // the stable *[]C published in the page table
}

// Page is CellOf's hit path: the page holding cell i of the region keyed
// key (Pages.Key) when pc has it, counting a hit, else nil, counting
// nothing — the caller goes on to CellOf. Unlike CellOf it is not
// generic, so it inlines into a caller that then takes the cell with In.
func (pc *PageCache) Page(key uint64, i int) unsafe.Pointer {
	g := uint64(i) >> PageShift
	sl := &pc.slots[slotOf(key, g)]
	if sl.id != key || sl.page != g {
		return nil
	}
	pc.hits++
	return sl.data
}

// In returns cell i of page, a PageCache.Page result for a Pages[C].
func In[C any](page unsafe.Pointer, i int) *C { return &(*(*[]C)(page))[i&PageMask] }

// TakeCounts returns the batched hit/miss tallies and zeroes them.
func (pc *PageCache) TakeCounts() (hits, misses int64) {
	hits, misses = pc.hits, pc.misses
	pc.hits, pc.misses = 0, 0
	return hits, misses
}
