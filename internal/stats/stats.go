// Package stats is the runtime observability layer: a low-overhead set
// of counters, a histogram, and per-region access tallies threaded through
// the whole stack — the detector's shadow protocol (internal/core), its
// DMHP walks (internal/dpst via internal/core), the task runtime's
// executors (internal/task), the instrumented containers (internal/mem),
// and the race sink (internal/detect).
//
// The paper's evaluation (§6) is entirely about measured behavior —
// slowdowns, memory per location, scalability — and the per-benchmark
// spread is explained by a handful of hot-path events: how often the
// shadow word's CAS retries, how often a DMHP query walks
// the tree (§5.2), and how work moves between workers. This package
// makes those events visible without ad-hoc printf, cheaply enough to
// stay on by default.
//
// # Design
//
// Counting has two levels. A Recorder is one block of atomic cells — a
// cell per Counter, a row for the histogram, a read/write pair per registered
// Region — that Snapshot copies when asked (the engine asks once, at the
// end of Run). Nothing on a hot path writes it: the layers on the check
// path and the task runtime count in plain integers owned by the goroutine
// that executes tasks (detect.Local: its Tally, page-cache tallies and
// per-region counts), which that goroutine's owner flushes into the
// recorder once — per pool worker, per sequential run, per replay — so
// the steady-state cost of a counter is one non-atomic increment and the
// flushes number O(workers), not O(tasks). What is
// written to the recorder directly is rare by construction: a page
// allocation, a race report, a lost CAS, a daemon request.
//
// A nil *Recorder or *Region is valid and makes every method a no-op;
// Options.NoStats hands nil recorders down the stack and the
// instrumentation vanishes behind a predictable branch.
package stats

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter identifies one global event counter.
type Counter uint8

// Counters. The groups mirror the layers that produce them; the first
// NumBatched of them are the ones that move once per checked access or per
// task.
//
// Accesses and memory actions differ by the read-modify-writes. The
// containers count accesses (Region reads and writes: an Update is one
// of each); the check path counts memory actions, and SPD3 checks an
// Update as one (detect.Update). So, per run, CASClean + CASPublish,
// PageCacheHit + PageCacheMiss and SampleChecked + SampleSkipped each
// come to reads + writes − updates.
const (
	// CASClean counts memory actions on the CAS-published shadow word
	// that completed without needing to update it — the
	// read-shared common case that makes SPD3 scale (§5.4).
	CASClean Counter = iota
	// CASPublish counts memory actions that updated the word (CAS won):
	// one publish per action, an update's included.
	CASPublish
	// CASRetry counts restarts of a memory action after a lost CAS.
	CASRetry
	// DMHPWalk counts §5.2 pointer walks: the DMHP queries against a
	// recorded step that neither the detector's watermark nor the
	// executing goroutine's relation memo (detect.RelMemo) answers.
	DMHPWalk
	// TaskSpawn counts spawned tasks (every Async).
	TaskSpawn
	// TaskSteal counts tasks obtained by stealing from another pool
	// worker's deque.
	TaskSteal
	// TaskInline counts tasks executed by the worker that spawned them
	// (own-deque pops on the pool executor, inline runs on the
	// sequential executor).
	TaskInline
	// PageCacheHit counts shadow-cell lookups served from the executing
	// goroutine's page cache (detect.Local.PC) without touching the page
	// table, in live runs and replays alike. The cache outlives a task —
	// a pool worker's next task finds the pages the last one touched —
	// so only the sum with PageCacheMiss is independent of the executor
	// and the schedule.
	PageCacheHit
	// PageCacheMiss counts shadow-cell lookups that walked the page
	// table (and, on a region's first touch of a page, allocated it).
	PageCacheMiss
	// SampleChecked counts memory actions admitted by the dynamic
	// check-sampling gate (internal/sample, asked by detect.Cells.At).
	// Zero when sampling is off, and after a halt-mode sink has stopped:
	// the gate is then not asked.
	SampleChecked
	// SampleSkipped counts memory actions elided by the sampling gate.
	// checked/(checked+skipped) is the effective sampling rate a run
	// actually experienced, which the governor holds to its budget.
	SampleSkipped

	// RaceReported counts distinct races delivered by the sink.
	RaceReported
	// RaceDeduped counts race reports suppressed as duplicates of an
	// already-reported (kind, region, element).
	RaceDeduped
	// RaceDropped counts distinct races dropped because the sink's
	// buffer limit was hit.
	RaceDropped
	// ShadowPagesAllocated counts shadow pages materialized lazily on
	// first access by the paged substrate (internal/shadow); together
	// with footprint.shadow it shows how sparse a workload's monitored
	// address space really is.
	ShadowPagesAllocated
	// SrvRequests counts HTTP requests accepted by the spd3d analysis
	// daemon (all endpoints).
	SrvRequests
	// SrvAnalyses counts replays the daemon ran to completion (each
	// detector of a differential request counts once).
	SrvAnalyses
	// SrvRejected counts submits (POST /v2/jobs) turned away with 503
	// because the daemon was draining. A full tenant queue is a
	// 429 counted in QuotaDenied.
	SrvRejected
	// SrvCanceled counts submits answered 504: an upload cut short by
	// its client leaving (the trace.ErrCanceled path).
	SrvCanceled
	// SrvStreamedBytes counts trace bytes the daemon's submit endpoint
	// read off the wire — pulled through the body limiter and the
	// splitter into the store, never buffered in full. It is the counter
	// the memory-ceiling smokes and the benchmark read.
	SrvStreamedBytes
	// TraceSegments counts the segments the daemon's submits stored:
	// finish-scope segments cut by the trace splitter, plus one for an
	// upload's unsplit remainder.
	TraceSegments
	// SrvUnsplit counts analyses that abandoned sharding because one
	// finish scope outgrew the segment cap and fell back to a single
	// streamed replay of the remainder.
	SrvUnsplit

	// JobSubmitted counts jobs accepted by POST /v2/jobs.
	JobSubmitted
	// JobDone counts jobs that reached the done state.
	JobDone
	// JobFailed counts jobs that reached the failed state.
	JobFailed
	// JobCanceled counts jobs that reached the canceled state: a DELETE
	// of a live job, client.Analyze's included when its context ends.
	JobCanceled
	// JobResumed counts jobs re-enqueued from the persistent store at
	// daemon startup (they were queued or running when it last stopped).
	JobResumed
	// JobSegmentReplays counts (segment, detector) replay units the job
	// executor started. A unit answered from the segment's verdict
	// record is not a replay and is not counted.
	JobSegmentReplays
	// StorePutBytes counts bytes physically written to the trace
	// store's content-addressed blob area (dedup hits write nothing).
	StorePutBytes
	// StoreDedupHits counts segment spills that found their content
	// hash already stored — an amplified trace's repeated bodies, or a
	// load test re-submitting the same trace, collapse to one blob.
	StoreDedupHits
	// StoreSweptJobs counts job manifests removed by TTL garbage
	// collection.
	StoreSweptJobs
	// StoreSweptBlobs counts unreferenced blobs removed by garbage
	// collection.
	StoreSweptBlobs
	// QuotaDenied counts submissions refused with 429 by a per-tenant
	// quota (queue depth, stored bytes, or the submission token bucket).
	QuotaDenied

	// ChecksElidedStatic counts container access sites whose dynamic
	// race check was removed at compile time by the §5.5 static
	// eliminator (cmd/spd3inst's checkelim post-pass). It is a property
	// of the compiled program, not of one run: rewritten packages
	// register their site count once via AddStaticElided (from a
	// generated init), and Snapshot folds the process-wide total into
	// every snapshot so reports show how much checking the optimizer
	// proved away.
	ChecksElidedStatic

	// NumCounters is the number of Counter values; not itself a
	// counter.
	NumCounters
)

// NumBatched bounds the counters producers batch in plain integers of the
// goroutine that executes tasks (detect.Local.Tally is indexed by them)
// and that detect.Local.Flush alone writes: CASClean through SampleSkipped.
// Every other counter is written straight to the recorder by its producer.
const NumBatched = SampleSkipped + 1

// counterNames are the stable wire names used by Map and the JSON form.
var counterNames = [NumCounters]string{
	CASClean:             "cas.clean",
	CASPublish:           "cas.publish",
	CASRetry:             "cas.retry",
	DMHPWalk:             "dmhp.walk",
	TaskSpawn:            "task.spawn",
	TaskSteal:            "task.steal",
	TaskInline:           "task.inline",
	RaceReported:         "race.reported",
	RaceDeduped:          "race.deduped",
	RaceDropped:          "race.dropped",
	ShadowPagesAllocated: "shadow.pages_allocated",
	PageCacheHit:         "shadow.page_cache_hit",
	PageCacheMiss:        "shadow.page_cache_miss",
	SrvRequests:          "srv.requests",
	SrvAnalyses:          "srv.analyses",
	SrvRejected:          "srv.rejected",
	SrvCanceled:          "srv.canceled",
	SrvStreamedBytes:     "srv.streamed_bytes",
	TraceSegments:        "trace.segments",
	SrvUnsplit:           "srv.unsplit",
	JobSubmitted:         "job.submitted",
	JobDone:              "job.done",
	JobFailed:            "job.failed",
	JobCanceled:          "job.canceled",
	JobResumed:           "job.resumed",
	JobSegmentReplays:    "job.segment_replays",
	StorePutBytes:        "store.put_bytes",
	StoreDedupHits:       "store.dedup_hits",
	StoreSweptJobs:       "store.swept_jobs",
	StoreSweptBlobs:      "store.swept_blobs",
	QuotaDenied:          "quota.denied",
	ChecksElidedStatic:   "mem.checks_elided_static",
	SampleChecked:        "sample.checked",
	SampleSkipped:        "sample.skipped",
}

// staticElided is the process-wide tally of statically elided check
// sites; see ChecksElidedStatic. It lives outside any Recorder because
// the sites are removed before any Engine exists, and it survives
// Recorder.Reset for the same reason.
var staticElided atomic.Int64

// AddStaticElided records n container access sites whose checks were
// removed at compile time. Generated code (cmd/spd3inst's stamped
// zz_spd3opt.go) calls this from an init via spd3.RegisterStaticElided.
func AddStaticElided(n int64) { staticElided.Add(n) }

// String returns the counter's stable wire name.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "counter.unknown"
}

// CASRetryHistName is the stable wire name of the one histogram: the
// distribution of retries per contended shadow-word memory action
// (actions that completed without a retry are counted by
// CASClean/CASPublish, not observed here).
const CASRetryHistName = "cas.retry"

// HistBuckets is the number of power-of-two buckets in the histogram:
// bucket i counts observations v with 2^i <= v < 2^(i+1) (bucket 0
// holds v == 1; the last bucket absorbs everything larger).
const HistBuckets = 8

// HistBucket returns the bucket index for an observed value; values
// below 1 land in bucket 0.
func HistBucket(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) - 1
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Inc adds 1 to counter c. Safe on a nil recorder (no-op).
func (r *Recorder) Inc(c Counter) {
	if r == nil {
		return
	}
	r.counters[c].Add(1)
}

// Add adds n to counter c. Safe on a nil recorder; n == 0 is free.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.counters[c].Add(n)
}

// ObserveCASRetry records one contended action's retry count into the
// cas.retry histogram. Safe on a nil recorder.
func (r *Recorder) ObserveCASRetry(v int64) {
	if r == nil {
		return
	}
	r.casRetry[HistBucket(v)].Add(1)
}

// Region tallies one instrumented memory region's traffic.
type Region struct {
	// Name is the label passed to the instrumented container.
	Name string
	// Elems is the region's element count.
	Elems int

	index         int // dense registration number within the recorder (Index)
	reads, writes atomic.Int64
}

// Index returns the region's registration number: the recorder numbers
// its regions 0, 1, 2, … in the order Region created them, and
// Recorder.Regions()[g.Index()] is g. Producers that batch traffic in their
// own space index it by this number (detect.Local). g must not be nil.
func (g *Region) Index() int { return g.index }

// Add records a batch of accesses. Safe on a nil region; producers
// accumulate in goroutine-owned space first (detect.Local.CountAccess).
func (g *Region) Add(reads, writes int64) {
	if g == nil {
		return
	}
	if reads != 0 {
		g.reads.Add(reads)
	}
	if writes != 0 {
		g.writes.Add(writes)
	}
}

// Counts returns the region's read and write totals.
func (g *Region) Counts() (reads, writes int64) {
	if g == nil {
		return 0, 0
	}
	return g.reads.Load(), g.writes.Load()
}

// Recorder owns the counters, the histogram and registered regions of one
// engine (or one measurement). A nil *Recorder is a valid no-op sink for
// every method.
type Recorder struct {
	counters [NumCounters]atomic.Int64
	casRetry [HistBuckets]atomic.Int64

	mu      sync.Mutex
	regions []*Region // append-only
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Region registers a new instrumented region with the recorder, numbers
// it (Region.Index) and returns its tally. Returns nil (a valid no-op
// region) on a nil recorder.
func (r *Recorder) Region(name string, elems int) *Region {
	if r == nil {
		return nil
	}
	g := &Region{Name: name, Elems: elems}
	r.mu.Lock()
	g.index = len(r.regions)
	r.regions = append(r.regions, g)
	r.mu.Unlock()
	return g
}

// Regions returns the regions registered so far, indexed by Region.Index.
// The list only grows and an entry never changes, so the caller reads the
// returned slice without the lock; nil on a nil recorder.
func (r *Recorder) Regions() []*Region {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.regions[:len(r.regions):len(r.regions)]
}

// Reset zeroes every counter, histogram, and region tally while keeping
// registered regions. It must only be called while no writer is active
// (the engine calls it at the start of each Run); concurrent increments
// may be lost, not corrupted.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for c := range r.counters {
		r.counters[c].Store(0)
	}
	for b := range r.casRetry {
		r.casRetry[b].Store(0)
	}
	for _, g := range r.Regions() {
		g.reads.Store(0)
		g.writes.Store(0)
	}
}

// Snapshot copies every counter and region into one immutable snapshot.
// It is intended to run once per Run, not on the hot path. A nil recorder
// yields the zero snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for c := range r.counters {
		s.Counters[c] = r.counters[c].Load()
	}
	for b := range r.casRetry {
		s.CASRetryHist[b] = r.casRetry[b].Load()
	}
	s.Counters[ChecksElidedStatic] += staticElided.Load()
	regions := r.Regions()
	s.Regions = make([]RegionSnapshot, 0, len(regions))
	for _, g := range regions {
		reads, writes := g.Counts()
		s.Regions = append(s.Regions, RegionSnapshot{Name: g.Name, Elems: g.Elems, Reads: reads, Writes: writes})
		s.Reads += reads
		s.Writes += writes
	}
	sort.Slice(s.Regions, func(i, j int) bool {
		a, b := s.Regions[i], s.Regions[j]
		ta, tb := a.Reads+a.Writes, b.Reads+b.Writes
		if ta != tb {
			return ta > tb
		}
		return a.Name < b.Name
	})
	return s
}
