package server

import (
	"context"
	"sort"
	"sync"

	"spd3/client"
	"spd3/internal/stats"
)

// shardPool bounds how many segment replays may run at once across the
// whole daemon. It is a semaphore, not a set of resident goroutines:
// each admitted segment runs on its own goroutine and releases the slot
// when the replay finishes, so an idle daemon carries no pool threads.
//
// The blocking acquire is where a backlog waits: a job's executor parks
// here (and on its tenant's narrower semaphore) before each segment
// replay, so queued jobs cost one idle goroutine each, not memory. Only
// executors park: an upload hands each stored segment to its executor
// and reads on, so a full pool never stalls a body.
type shardPool struct {
	sem chan struct{}
}

func newShardPool(workers int) *shardPool {
	return &shardPool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *shardPool) Workers() int { return cap(p.sem) }

// Busy returns how many segment replays are running right now.
func (p *shardPool) Busy() int { return len(p.sem) }

// run executes fn on a pool slot, tracked by wg. It blocks until a slot
// frees up; a done ctx while waiting returns false without running fn.
func (p *shardPool) run(ctx context.Context, wg *sync.WaitGroup, fn func()) bool {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	wg.Add(1)
	go func() {
		defer func() {
			<-p.sem
			wg.Done()
		}()
		fn()
	}()
	return true
}

// raceKey identifies a race across segments the way the sink
// deduplicates within one replay: by kind, region, and element.
type raceKey struct {
	kind   string
	region string
	index  int
}

func keyOf(r client.Race) raceKey { return raceKey{r.Kind, r.Region, r.Index} }

// raceLess is the order of a verdict's races, detect.Sink's: region,
// index, kind.
func raceLess(a, b client.Race) bool {
	if a.Region != b.Region {
		return a.Region < b.Region
	}
	if a.Index != b.Index {
		return a.Index < b.Index
	}
	return a.Kind < b.Kind
}

// mergedVerdict accumulates one detector's per-segment results across
// a job's fan-out (see Job.addRace). The segment boundary invariant
// (everything before a cut happens before everything after it) makes
// the merge a plain union: a trace is racy iff some segment is, and
// every race pairs two accesses inside a single segment, so nothing is
// lost to the cuts. Races recurring across segments (the same program
// point relocated, e.g. by an amplified trace) deduplicate by raceKey.
//
// The merge does not depend on the order replays finish in: a key keeps
// the race of the lowest segment that reported it, and under the cap
// the kept races are the smallest keys in raceLess order, held in a
// bounded max-heap whose top is the next to go.
type mergedVerdict struct {
	seen  map[raceKey]*keptRace // nil: counted, but not among the kept
	kept  raceHeap
	count int // distinct races: the verdict is racy iff count > 0
	stats stats.Snapshot
}

// keptRace is a race the verdict carries and the segment it came from.
type keptRace struct {
	client.Race
	seg int
}

// raceHeap is a max-heap in raceLess order (container/heap).
type raceHeap []*keptRace

func (h raceHeap) Len() int           { return len(h) }
func (h raceHeap) Less(i, k int) bool { return raceLess(h[k].Race, h[i].Race) }
func (h raceHeap) Swap(i, k int)      { h[i], h[k] = h[k], h[i] }
func (h *raceHeap) Push(x any)        { *h = append(*h, x.(*keptRace)) }
func (h *raceHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}

// races returns the kept races, sorted.
func (m *mergedVerdict) races() []client.Race {
	out := make([]client.Race, len(m.kept))
	for i, r := range m.kept {
		out[i] = r.Race
	}
	sort.Slice(out, func(i, k int) bool { return raceLess(out[i], out[k]) })
	return out
}
