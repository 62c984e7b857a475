package core

import (
	"runtime"
	"sync/atomic"

	"spd3/internal/detect"
	// For the compiler alone: casShadow's instance of detect.Cells.At is
	// compiled in this package, and Go inlines shadow's page-cache hit
	// (shadow.PageCache.Page) into it only where shadow is imported. CI
	// checks that it does; without it a checked access makes one more call.
	_ "spd3/internal/shadow"
	"spd3/internal/stats"
)

// casShadow implements the §5.4 versioned-snapshot protocol, Lamport's
// solution to the concurrent reading-and-writing problem applied to the
// shadow word, at the paper's size: 16 bytes per location, two 64-bit
// words, the recorded steps held as 32-bit DPST arena ids (dpst.Node.ID;
// 0, the root, is never a step and means "empty").
//
//	A = version:32 | w:32        B = r1:32 | r2:32
//
// An even version is stable; an odd one says a reader update is between
// its two stores.
//
//	read stage:    a := A (again while odd); b := B; if A != a, restart
//	compute stage: run Algorithm 1 or 2 on the local snapshot
//	update stage:  a write action changes only w:
//	                   CAS(A, a, (version+2, w'))                — one CAS
//	               a read action changes only r1/r2:
//	                   CAS(A, a, (version+1, w)); B := (r1', r2');
//	                   A := (version+2, w)                       — a CAS and two stores
//	               an update action (a read-modify-write) changes
//	               whatever Algorithm 2 and then 1 change: w alone as a
//	               write action does, else as a read action does, with
//	               w' in the final store of A
//
// A successful read stage saw the same even A on both sides of the B
// load, i.e. no update was in flight and none completed in between (Go's
// atomics are sequentially consistent, providing the fence §5.4 inserts
// between the field loads and the second version load). Every update
// linearises on A: its CAS fails iff some other memory action updated the
// cell since the snapshot, and the whole action then restarts. That is
// why B is never CASed on its own, cheaper though it would be for a read
// action: a read action CASing only B and a parallel write action CASing
// only A would both succeed from the same snapshot, each having checked
// against a word that lacks the other — the write-read race between them
// would go unreported. Memory actions that do not update the word — the
// common case when data is read-shared, exactly the pattern that makes
// FastTrack slow — never perform a CAS and proceed fully in parallel;
// their cost is the read stage's three loads.
//
// Version wrap. The version is 32 bits and moves by 2 per update, so a
// memory action that stalls between its first load of A and its last use
// of that value (the read stage's reload, or the update stage's CAS)
// while a multiple of 2^31 updates of that one cell complete, the last
// leaving the same w, takes the cell for unchanged and may pair a stale B
// with it. It is the exposure the paper's int version counters have, at
// half the period. TestVersionWrapExposure builds that state and watches
// the stale CAS succeed; TestVersionWrapCell and TestVersionWrapChecks pin
// that the wrap itself — 2^32-2 to 0, through the odd 2^32-1 for a read
// action — costs nothing: the protocol and Algorithms 1 and 2 behave as at
// any other version.
//
// Owned. The protocol exists so that parallel tasks can check one cell at
// once. A detector that one goroutine drives from start to end — a trace
// replay, a run under the sequential executor — has no such tasks: no
// other memory action can come between its snapshot and its publish, nor
// see a publish half done. Whether it is owned is fixed when detect.Open
// builds it (detect.FactoryOpts.Owned, Detector.owned) and never changes,
// and task.New refuses an owned detector under a parallel executor, so the
// one goroutine is a fact, not a hope. An owned detector's publish stores
// the very word the shared one would — the next even version, w', r1',
// r2' — with plain stores: no odd version between them, no CAS and so no
// retry. The snapshot, Algorithms 1 and 2 and the tallies are the same on
// both paths (an owned cell's loads are still atomic loads, a plain MOV
// on amd64), so a replay counts cas.clean and cas.publish exactly as a
// live run does, and cas.retry stays 0. The cost of the choice is one
// predictable branch per publish, on a field the memory action already
// reads.
//
// The words live in the region's pages (detect.Cells); a page of cells
// holds no pointers, so the garbage collector never scans shadow memory.
type casShadow struct {
	d *Detector
	detect.Cells[casCell]
}

// casCell is one versioned shadow word; see casShadow for the layout. The
// fields are plain words at offsets 0 and 8, so every cell of a page
// (make([]casCell, n)) is 8-aligned for the 64-bit sync/atomic functions,
// on 32-bit platforms too. Every access goes through those functions but
// an owned detector's publish (see casShadow, "Owned").
type casCell struct {
	a uint64 // version:32 | w:32
	b uint64 // r1:32 | r2:32
}

const (
	versionOne = 1 << 32 // A's version field counts in these

	// snapshotSpins is how many failed read stages a snapshot makes before
	// it yields the processor. A publisher is inside its odd window for
	// two stores, so on a free core a couple of retries outlast it; one
	// that was descheduled there (more workers than cores) will not move
	// until it runs again, and spinning a whole time slice at it is
	// wasted.
	snapshotSpins = 16
)

// load is one attempt at the read stage: the two words, and whether they
// are a consistent pair — A's version even and unchanged across the load
// of B. It is small enough to inline into the memory actions, so the
// uncontended read stage is three loads and a compare with no call.
func (c *casCell) load() (a, b uint64, ok bool) {
	a, b = atomic.LoadUint64(&c.a), atomic.LoadUint64(&c.b)
	return a, b, a&versionOne == 0 && atomic.LoadUint64(&c.a) == a
}

// snapshot performs the read stage after a failed first attempt: it
// repeats load until it captures a consistent pair, yielding the
// processor every snapshotSpins failures.
func (c *casCell) snapshot() (a, b uint64) {
	for spins := 1; ; spins++ {
		if a, b, ok := c.load(); ok {
			return a, b
		}
		if spins%snapshotSpins == 0 {
			runtime.Gosched()
		}
	}
}

// unpack decodes a consistent pair into the word Algorithms 1 and 2 work
// on.
func unpack(a, b uint64) word {
	return word{w: uint32(a), r1: uint32(b >> 32), r2: uint32(b)}
}

// publishWriter performs a write action's update stage: the word
// snapshotted as a gets writer w and the next stable version, in one CAS,
// or, owned, in one plain store. It returns false when the CAS lost and
// the memory action must restart from the read stage.
func (c *casCell) publishWriter(a uint64, w uint32, owned bool) bool {
	next := (a>>32+2)<<32 | uint64(w)
	if owned {
		c.a = next
		return true
	}
	return atomic.CompareAndSwapUint64(&c.a, a, next)
}

// publishReaders performs a read action's update stage: the word
// snapshotted as a becomes m, whose readers are new. A read action's m
// keeps a's writer; an update action's may carry a new one, which the
// final store of A publishes with the next stable version. Owned, it is
// the two final stores, plain. It returns false when the CAS lost and the
// memory action must restart from the read stage.
func (c *casCell) publishReaders(a uint64, m word, owned bool) bool {
	next := (a>>32+2)<<32 | uint64(m.w)
	if owned {
		c.b, c.a = uint64(m.r1)<<32|uint64(m.r2), next
		return true
	}
	if !atomic.CompareAndSwapUint64(&c.a, a, a+versionOne) {
		return false
	}
	atomic.StoreUint64(&c.b, uint64(m.r1)<<32|uint64(m.r2))
	atomic.StoreUint64(&c.a, next)
	return true
}

// Read is the read memory action: snapshot, Algorithm 2, and — when the
// word changed — publish, restarting from the read stage on a lost CAS.
func (s *casShadow) Read(t *detect.Task, i int) {
	c := s.At(t, i)
	if c == nil {
		return
	}
	l, st := t.L, step(t)
	for retries := int64(0); ; retries++ {
		a, b, ok := c.load()
		if !ok {
			a, b = c.snapshot()
		}
		if m, changed := s.d.readCheck(unpack(a, b), l, st, &s.Cells, i); !changed {
			l.Tally[stats.CASClean]++
		} else if c.publishReaders(a, m, s.d.owned) {
			l.Tally[stats.CASPublish]++
		} else {
			continue
		}
		s.countRetries(l, retries)
		return
	}
}

// Write is the write memory action: as Read, with Algorithm 1.
func (s *casShadow) Write(t *detect.Task, i int) {
	c := s.At(t, i)
	if c == nil {
		return
	}
	l, st := t.L, step(t)
	for retries := int64(0); ; retries++ {
		a, b, ok := c.load()
		if !ok {
			a, b = c.snapshot()
		}
		if m, changed := s.d.writeCheck(unpack(a, b), l, st, &s.Cells, i); !changed {
			l.Tally[stats.CASClean]++
		} else if c.publishWriter(a, m.w, s.d.owned) {
			l.Tally[stats.CASPublish]++
		} else {
			continue
		}
		s.countRetries(l, retries)
		return
	}
}

// Update is the update memory action, a checked read-modify-write
// (detect.Updater): one At and one snapshot, Algorithm 2 and then
// Algorithm 1 on it, and at most one publish — the write's one CAS when
// only w changed, else the read's protocol carrying the new w. On the
// snapshot's version it is Read and then Write with nothing between them:
// the same reports, the same word, and the write's queries find the
// read's answers in the relation memo.
func (s *casShadow) Update(t *detect.Task, i int) {
	c := s.At(t, i)
	if c == nil {
		return
	}
	l, st := t.L, step(t)
	for retries := int64(0); ; retries++ {
		a, b, ok := c.load()
		if !ok {
			a, b = c.snapshot()
		}
		m, readers := s.d.readCheck(unpack(a, b), l, st, &s.Cells, i)
		m, writer := s.d.writeCheck(m, l, st, &s.Cells, i)
		if !readers && !writer {
			l.Tally[stats.CASClean]++
		} else if readers && c.publishReaders(a, m, s.d.owned) || !readers && c.publishWriter(a, m.w, s.d.owned) {
			l.Tally[stats.CASPublish]++
		} else {
			continue
		}
		s.countRetries(l, retries)
		return
	}
}

// countRetries tallies the lost CASes of one finished memory action. The
// histogram goes straight to the recorder: a retry follows a lost CAS, so
// the atomic add is off the uncontended path.
func (s *casShadow) countRetries(l *detect.Local, n int64) {
	if n > 0 {
		l.Tally[stats.CASRetry] += n
		s.d.st.ObserveCASRetry(n)
	}
}
