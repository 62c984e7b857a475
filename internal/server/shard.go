package server

import (
	"context"
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

// mergedVerdict accumulates one detector's per-segment results across
// a job's fan-out (see Job.addRace). The segment boundary invariant
// (everything before a cut happens before everything after it) makes
// the merge a plain union: a trace is racy iff some segment is, and
// every race pairs two accesses inside a single segment, so nothing is
// lost to the cuts. Races recurring across segments (the same program
// point relocated, e.g. by an amplified trace) deduplicate by raceKey.
type mergedVerdict struct {
	seen   map[raceKey]struct{}
	races  []client.Race
	count  int // distinct races: the verdict is racy iff count > 0
	capped bool
	stats  stats.Snapshot
}
