package core

import (
	"sync/atomic"

	"spd3/internal/detect"
	// For the compiler alone: casShadow's instance of detect.Cells.At is
	// compiled in this package, and Go inlines shadow's page-cache hit
	// (shadow.PageCache.Page) into it only where shadow is imported. CI
	// checks that it does; without it a checked access makes one more call.
	_ "spd3/internal/shadow"
	"spd3/internal/stats"
)

// casShadow keeps the paper's shadow word, 16 bytes per location: two
// 64-bit words, the recorded steps held as their 32-bit DPST ids
// (detect.Task.Step; 0, the root, is never a step and means "empty").
//
//	A = w        B = r1:32 | r2:32
//
// Each word has one kind of publisher. Algorithm 1 computes a write's new
// w from w alone, and Algorithm 2 a read's new readers from r1 and r2
// alone; the other word only feeds race reports. So a memory action
// publishes its own word with one CAS and then loads the other:
//
//	write:  a := A; if w must become s, CAS(A, a, s)
//	        b := B; report read-write races against r1 and r2
//	read:   b := B; if the readers must change, CAS(B, b, (r1', r2'))
//	        a := A; report a write-read race against w
//	update: the read, then the write, as one memory action
//
// A lost CAS restarts its half from its load. An action that changes
// nothing — the common case when data is read-shared, the pattern that
// makes FastTrack slow — makes two loads and no CAS.
//
// Why no race is missed rests on three facts.
//
//   - Each word is linearisable on its own. Every change of A is a CAS
//     from the value its decision was computed from, so the values A
//     takes are Algorithm 1's over the writes in the order of their CASes
//     (a write that changes nothing takes its place at its load); B's
//     likewise are Algorithm 2's over the reads.
//   - There is no ABA problem, so no version. A CAS's decision depends only
//     on the value it compares: one that succeeds after its word changed
//     and changed back publishes what it would have had nothing happened.
//   - Each side publishes before it observes the other word. Order the
//     memory actions by those linearisation points. Run sequentially in
//     that order, SPD3 would check each action against the other word as
//     it stood at the action's point; here the action loads it later, and
//     Go's atomics are sequentially consistent. Either nothing was
//     published to that word in between, and the check is the sequential
//     one, or the value loaded was published by an action whose own point
//     lies inside this one's span. Two memory actions that overlap in
//     time belong to parallel steps (a step ordered before another ends
//     before it begins), and a publisher's step is in the value it
//     published (a write's w, a read's r1 or r2), so the check reports
//     that pair: a real race on the same element. Every element the
//     sequential run reports a race on is reported on, and every report
//     is a race. For a read and a parallel write of one cell that both
//     publish, this is the store-buffering litmus test, whose "both miss"
//     outcome sequential consistency forbids (TestPublishThenObserve).
//
// A half that loaded the other word before its own publish would lose
// the third fact: the reader and the writer could each check against a
// word that lacks the other, and their race would go unreported.
//
// Owned. The CAS exists so that parallel tasks can check one cell at
// once. A detector that one goroutine drives from start to end — a trace
// replay, a run under the sequential executor — has no such tasks.
// Whether it is owned is fixed when detect.Open builds it
// (detect.FactoryOpts.Owned, Detector.owned) and never changes, and
// task.New refuses an owned detector under a parallel executor, so the one
// goroutine is a fact, not a hope. An owned detector publishes the very
// word the shared one would with a plain store, so it never retries; its
// loads are still atomic loads, a plain MOV on amd64, and it counts
// cas.clean and cas.publish exactly as a live run does. The cost of the
// choice is one predictable branch per publish, on a field the memory
// action already reads.
//
// The words live in the region's pages (detect.Cells); a page of cells
// holds no pointers, so the garbage collector never scans shadow memory.
type casShadow struct {
	d *Detector
	detect.Cells[casCell]
}

// casCell is one shadow word; see casShadow for the layout. The fields
// are plain words at offsets 0 and 8, so every cell of a page
// (make([]casCell, n)) is 8-aligned for the 64-bit sync/atomic functions,
// on 32-bit platforms too. Every access goes through those functions but
// an owned detector's publish (see casShadow, "Owned").
type casCell struct {
	a uint64 // w
	b uint64 // r1:32 | r2:32
}

// publish replaces the word at p, loaded as old, with next: by one CAS, or,
// owned, by a plain store. It returns false when the CAS lost and the half
// must restart from its load. It inlines into both halves, so a publish
// makes no call.
func publish(p *uint64, old, next uint64, owned bool) bool {
	if owned {
		*p = next
		return true
	}
	return atomic.CompareAndSwapUint64(p, old, next)
}

// write is Algorithm 1 for step s on element i, cell c: A's half, then the
// check against B. It returns whether it published and how many CASes it
// lost.
func (sh *casShadow) write(c *casCell, l *detect.Local, s uint32, i int) (published bool, lost int64) {
	d := sh.d
	for {
		a := atomic.LoadUint64(&c.a)
		w := uint32(a)
		if w == s {
			// The step that owns w rewrote the element: nothing to
			// check and nothing to change.
			return false, lost
		}
		racy, _ := d.relation(l, w, s)
		if !racy && !publish(&c.a, a, uint64(s), d.owned) {
			lost++
			continue
		}
		b := atomic.LoadUint64(&c.b)
		r1, r2 := uint32(b>>32), uint32(b)
		if p, _ := d.relation(l, r1, s); p {
			sh.Report(detect.ReadWrite, i, d.stepName(r1), d.stepName(s))
		}
		if p, _ := d.relation(l, r2, s); p {
			sh.Report(detect.ReadWrite, i, d.stepName(r2), d.stepName(s))
		}
		if racy {
			// A parallel writer stays recorded: w is not replaced.
			sh.Report(detect.WriteWrite, i, d.stepName(w), d.stepName(s))
		}
		return !racy, lost
	}
}

// read is Algorithm 2 for step s on element i, cell c, with the null-reader
// cases made explicit: B's half, then the check against A. It returns
// whether it published and how many CASes it lost.
func (sh *casShadow) read(c *casCell, l *detect.Local, s uint32, i int) (published bool, lost int64) {
	d := sh.d
	for {
		b := atomic.LoadUint64(&c.b)
		r1, r2 := uint32(b>>32), uint32(b)
		if r1 == s || r2 == s {
			// This step is already recorded; re-reading changes nothing.
			// (One of the paper's redundant-check eliminations, §5.5.)
			return false, lost
		}
		p1, c1 := d.relation(l, r1, s)
		p2, c2 := d.relation(l, r2, s)
		switch {
		case !p1 && !p2:
			// s is ordered after every recorded reader (and, by the
			// discard-safety lemma, after every reader they cover): s
			// supersedes them both.
			r1, r2 = s, 0
		case p1 && r2 == 0:
			// Second parallel reader: record it.
			r2 = s
		case p1 && p2 && c1 == c2:
			// Keep the two of {r1, r2, s} whose LCA is highest. c1 and c2
			// are (the ids of) the children of LCA(r1,s) and LCA(r2,s)
			// that r1 and r2 hang under. With s outside the subtree under
			// LCA(r1,r2) the two are one proper ancestor of it, so c1 ==
			// c2, and replacing r1 with s lifts the subtree to cover all
			// three; with s inside, both are at or below LCA(r1,r2) and no
			// child of either holds r1 and r2 together.
			r1 = s
		default:
			// s is parallel with exactly one recorded reader, or inside
			// the subtree under LCA(r1,r2) of two: the invariant already
			// covers it, no update needed.
		}
		next := uint64(r1)<<32 | uint64(r2)
		published = next != b
		if published && !publish(&c.b, b, next, d.owned) {
			lost++
			continue
		}
		w := uint32(atomic.LoadUint64(&c.a))
		if p, _ := d.relation(l, w, s); p {
			sh.Report(detect.WriteRead, i, d.stepName(w), d.stepName(s))
		}
		return published, lost
	}
}

// Read is the read memory action: Algorithm 2, publishing B when the
// readers change.
func (sh *casShadow) Read(t *detect.Task, i int) {
	c := sh.At(t, i)
	if c == nil {
		return
	}
	published, lost := sh.read(c, t.L, t.Step, i)
	sh.count(t.L, published, lost)
}

// Write is the write memory action: Algorithm 1, publishing A when w
// changes.
func (sh *casShadow) Write(t *detect.Task, i int) {
	c := sh.At(t, i)
	if c == nil {
		return
	}
	published, lost := sh.write(c, t.L, t.Step, i)
	sh.count(t.L, published, lost)
}

// Update is the update memory action, a checked read-modify-write
// (detect.Updater): one At, then Read's half and Write's half on the cell —
// the same reports and the same words as Read and then Write, the write's
// queries finding the read's answers in the relation memo. It counts as
// one memory action: clean when neither half published.
func (sh *casShadow) Update(t *detect.Task, i int) {
	c := sh.At(t, i)
	if c == nil {
		return
	}
	readers, lostR := sh.read(c, t.L, t.Step, i)
	writer, lostW := sh.write(c, t.L, t.Step, i)
	sh.count(t.L, readers || writer, lostR+lostW)
}

// count tallies one finished memory action and the CASes it lost. The
// retry histogram goes straight to the recorder: a retry follows a lost
// CAS, so the atomic add is off the uncontended path.
func (sh *casShadow) count(l *detect.Local, published bool, lost int64) {
	if published {
		l.Tally[stats.CASPublish]++
	} else {
		l.Tally[stats.CASClean]++
	}
	if lost > 0 {
		l.Tally[stats.CASRetry] += lost
		sh.d.st.ObserveCASRetry(lost)
	}
}
