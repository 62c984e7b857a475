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
// halt poll and the race report — so a detector is left with its events,
// its cell type and its two per-cell rules. It keeps every region it
// made for as long as the detector lives.
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
// cell of it is first accessed.
func (r *Regions[C]) New(spec ShadowSpec) Cells[C] {
	p := shadow.New[C](spec.Bound())
	p.SetOnAlloc(func(int) { r.st.Inc(stats.ShadowPagesAllocated) })
	r.mu.Lock()
	r.all = append(r.all, p)
	r.mu.Unlock()
	return Cells[C]{stopped: &r.sink.stopped, pages: p, sink: r.sink, name: spec.Name}
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
	stopped *atomic.Bool // the sink's halt flag, held apart so that At inlines
	pages   *shadow.Pages[C]
	sink    *Sink
	name    string
}

// At returns cell i, found through the page cache in l, or nil once a
// halt-mode sink has stopped: the rules then check nothing more, the
// paper's "report a race and halt" without cancelling the program.
func (c *Cells[C]) At(l *Local, i int) *C {
	if c.stopped.Load() {
		return nil
	}
	return c.pages.CellOf(&l.PC, i)
}

// Report records a race on element i between the recorded step prev and
// the accessing step cur, each in the detector's own step notation.
func (c *Cells[C]) Report(kind RaceKind, i int, prev, cur string) {
	c.sink.Report(Race{Kind: kind, Region: c.name, Index: i, PrevStep: prev, CurStep: cur})
}
