package detect

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"spd3/internal/shadow"
	"spd3/internal/stats"
)

// Regions is a detector's shadow allocator: every region it hands out
// keeps one cell of type C per element, paged in lazily, and reports to
// the detector's sink. It owns what is the same for every detector — the
// pages, the shadow.pages_allocated count, the analytic shadow bytes, the
// halt poll, the sampling gate and the race report — so a detector is
// left with its events, its cell type and its two per-cell rules. It
// keeps every region it made for as long as the detector lives.
type Regions[C any] struct {
	sink *Sink
	st   *stats.Recorder

	mu  sync.Mutex
	all []*shadow.Pages[C]
}

// NewRegions returns an allocator whose regions report to sink and count
// their pages into rec (nil disables the count).
func NewRegions[C any](sink *Sink, rec *stats.Recorder) *Regions[C] {
	return &Regions[C]{sink: sink, st: rec}
}

// New allocates the region spec describes. No page is allocated until a
// cell of it is first accessed. Regions are numbered 1, 2, … in creation
// order; the number is the region key of the sampler's location coins.
func (r *Regions[C]) New(spec ShadowSpec) Cells[C] {
	p := shadow.New[C](spec.Bound())
	p.SetOnAlloc(func(int) { r.st.Inc(stats.ShadowPagesAllocated) })
	r.mu.Lock()
	r.all = append(r.all, p)
	id := uint64(len(r.all))
	r.mu.Unlock()
	return Cells[C]{gate: &r.sink.gate, pages: p, sink: r.sink, name: spec.Name, id: id}
}

// Bytes is the analytic shadow footprint of every region so far: the
// cells allocated times the size of a cell.
func (r *Regions[C]) Bytes() int64 {
	var cells int64
	for _, p := range r.regions() {
		_, n := p.Allocated()
		cells += n
	}
	var c C
	return cells * int64(unsafe.Sizeof(c))
}

// Range calls f with every allocated cell of every region. Cells allocated
// concurrently with the iteration may or may not be visited.
func (r *Regions[C]) Range(f func(*C)) {
	for _, p := range r.regions() {
		p.Range(func(_ int, cells []C) {
			for i := range cells {
				f(&cells[i])
			}
		})
	}
}

// regions returns the regions allocated so far.
func (r *Regions[C]) regions() []*shadow.Pages[C] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.all
}

// Cells is one instrumented region's shadow: a cell of type C per element.
// A detector's Shadow embeds it and adds the Read and Write rules.
type Cells[C any] struct {
	gate  *atomic.Uint32 // the sink's gate word
	pages *shadow.Pages[C]
	sink  *Sink
	name  string
	id    uint64 // the region's number in its Regions
}

// At returns cell i, found through the page cache of t's scratch block, or
// nil when the check does not run: once a halt-mode sink has stopped — the
// paper's "report a race and halt" without cancelling the program — and
// when the sink's sampler skips it. The rules then check nothing.
//
// With the gate word zero it is CellOf with CellOf's page-cache hit,
// shadow.PageCache.Page, inlined where the detector's package imports
// shadow (core does). At itself cannot inline into a detector's rule: with
// a slow path beside CellOf it makes two calls, each of which Go's inliner
// charges 57 of its budget of 80. So an unsampled access that hits makes
// one call, At, where it made two, CellOf and its slot hash; a set word
// takes the out-of-line gated.
func (c *Cells[C]) At(t *Task, i int) *C {
	if c.gate.Load() != 0 {
		return c.gated(t, i)
	}
	if pg := t.L.PC.Page(c.pages.Key(), i); pg != nil {
		return shadow.In[C](pg, i)
	}
	return c.pages.CellOf(&t.L.PC, i)
}

// gated is At behind a set gate word: nothing after a halt, else the
// sampler's decision, tallied into t's scratch block.
func (c *Cells[C]) gated(t *Task, i int) *C {
	if c.sink.Stopped() {
		return nil
	}
	if !c.sink.sampler.Admit(&t.Sample, c.id, i) {
		t.L.Tally[stats.SampleSkipped]++
		return nil
	}
	t.L.Tally[stats.SampleChecked]++
	return c.pages.CellOf(&t.L.PC, i)
}

// Report records a race on element i between the recorded step prev and
// the accessing step cur, each in the detector's own step notation.
func (c *Cells[C]) Report(kind RaceKind, i int, prev, cur string) {
	c.sink.Report(Race{Kind: kind, Region: c.name, Index: i, PrevStep: prev, CurStep: cur})
}
