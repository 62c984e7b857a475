package core

import (
	"sync/atomic"

	"spd3/internal/detect"
	"spd3/internal/dpst"
	"spd3/internal/shadow"
	"spd3/internal/stats"
)

// casShadow implements the §5.4 versioned-snapshot protocol, Lamport's
// solution to the concurrent reading-and-writing problem applied to the
// shadow word. Each cell carries two version counters:
//
//	read stage:    x := start; load w,r1,r2; if end != x, restart
//	compute stage: run Algorithm 1 or 2 on the local snapshot
//	update stage:  CAS(end, x, x+1); store fields; start = x+1
//
// A successful read stage saw start == end == x, i.e. no update was in
// flight and none completed in between (Go's atomics are sequentially
// consistent, providing the fence §5.4 inserts between the field loads and
// the end-version load). The CAS in the update stage fails iff some other
// memory action updated the cell since our snapshot; the whole action then
// restarts. Memory actions that do not update the word — the common case
// when data is read-shared, exactly the pattern that makes FastTrack slow
// — never perform a CAS and proceed fully in parallel.
//
// Note the counter roles: an updater bumps end first and start last, so a
// torn snapshot always fails the end != x comparison.
// Shadow words live in lazily allocated pages (shadow.Pages) resolved
// through the accessing task's page cache.
type casShadow struct {
	d     *Detector
	name  string
	pages *shadow.Pages[casCell]
}

// casCell is one versioned shadow word.
type casCell struct {
	start atomic.Int64
	end   atomic.Int64
	w     atomic.Pointer[dpst.Node]
	r1    atomic.Pointer[dpst.Node]
	r2    atomic.Pointer[dpst.Node]
}

const casCellBytes = 8 + 8 + 24 // two versions + three pointers

// snapshot performs the read stage, spinning until it captures a
// consistent (version, word) pair.
func (c *casCell) snapshot() (int64, word) {
	for {
		x := c.start.Load()
		m := word{w: c.w.Load(), r1: c.r1.Load(), r2: c.r2.Load()}
		if c.end.Load() == x {
			return x, m
		}
	}
}

// publish performs the update stage. It returns false when the CAS lost
// and the memory action must restart from the read stage.
func (c *casCell) publish(x int64, m word) bool {
	if !c.end.CompareAndSwap(x, x+1) {
		return false
	}
	c.w.Store(m.w)
	c.r1.Store(m.r1)
	c.r2.Store(m.r2)
	c.start.Store(x + 1)
	return true
}

// Read is the read memory action: snapshot, Algorithm 2, and — when the
// word changed — publish, restarting from the read stage on a lost CAS.
func (s *casShadow) Read(t *detect.Task, i int) {
	if s.d.sink.Stopped() {
		return
	}
	ts, c := t.State.(*taskState), s.pages.CellOf(&t.PC, i)
	for retries := int64(0); ; retries++ {
		x, m := c.snapshot()
		if m, changed := s.d.readCheck(m, ts, s.name, i); !changed {
			t.Tally.CASClean++
		} else if c.publish(x, m) {
			t.Tally.CASPublish++
		} else {
			continue
		}
		s.countRetries(t, retries)
		return
	}
}

// Write is the write memory action: as Read, with Algorithm 1.
func (s *casShadow) Write(t *detect.Task, i int) {
	if s.d.sink.Stopped() {
		return
	}
	ts, c := t.State.(*taskState), s.pages.CellOf(&t.PC, i)
	for retries := int64(0); ; retries++ {
		x, m := c.snapshot()
		if m, changed := s.d.writeCheck(m, ts, s.name, i); !changed {
			t.Tally.CASClean++
		} else if c.publish(x, m) {
			t.Tally.CASPublish++
		} else {
			continue
		}
		s.countRetries(t, retries)
		return
	}
}

// countRetries tallies the lost CASes of one finished memory action. The
// histogram goes straight to a shard: a retry follows a lost CAS, so the
// atomic add is off the uncontended path.
func (s *casShadow) countRetries(t *detect.Task, n int64) {
	if n > 0 {
		t.Tally.CASRetry += n
		s.d.st.Shard(int(t.ID)).Observe(stats.HistCASRetry, n)
	}
}
