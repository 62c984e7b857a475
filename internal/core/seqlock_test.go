package core

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"spd3/internal/detect"
	"spd3/internal/task"
)

// TestCellIsSixteenPointerFreeBytes pins the shadow word at the paper's
// size and keeps it out of the garbage collector's sight: a page of cells
// with no pointer in them is allocated noscan. The two fields are plain
// uint64 words at offsets 0 and 8, so in a page (make([]casCell, n)), whose
// first word the allocator 8-aligns, every cell's words are 8-aligned, as
// the 64-bit sync/atomic functions require on 32-bit platforms.
func TestCellIsSixteenPointerFreeBytes(t *testing.T) {
	if got := unsafe.Sizeof(casCell{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(casCell{}) = %d, want 16", got)
	}
	ty := reflect.TypeOf(casCell{})
	if ty.NumField() != 2 {
		t.Fatalf("casCell has %d fields, want 2", ty.NumField())
	}
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); f.Type != reflect.TypeOf(uint64(0)) || f.Offset != uintptr(8*i) {
			t.Errorf("casCell.%s is a %v at offset %d, want a uint64 at %d: a pointer in the cell makes the GC scan shadow pages, and a misaligned word breaks the 64-bit atomics", f.Name, f.Type, f.Offset, 8*i)
		}
	}
}

// read is the whole read stage: a consistent A and the word it decodes to.
func (c *casCell) read() (uint64, word) {
	a, b := c.snapshot()
	return a, unpack(a, b)
}

// seed puts the cell in a stable state without going through the protocol.
func (c *casCell) seed(version uint32, m word) {
	atomic.StoreUint64(&c.b, uint64(m.r1)<<32|uint64(m.r2))
	atomic.StoreUint64(&c.a, uint64(version)<<32|uint64(m.w))
}

// TestPublishTouchesWhatItSays: a write action is one CAS on A and leaves
// B alone, a read action leaves w alone, each moves the version by 2, and
// a publish from a stale snapshot changes nothing. Owned, each publish
// leaves exactly the words the shared one does, and no odd version: it
// stores the final A directly, as only its own goroutine reads the cell.
func TestPublishTouchesWhatItSays(t *testing.T) {
	for _, owned := range []bool{false, true} {
		var c casCell
		c.seed(0, word{w: 7, r1: 8, r2: 9})
		a, m := c.read()
		if m != (word{7, 8, 9}) || a>>32 != 0 {
			t.Fatalf("owned=%v: snapshot = version %d %v", owned, a>>32, m)
		}
		b := atomic.LoadUint64(&c.b)
		if !c.publishWriter(a, 70, owned) {
			t.Fatalf("owned=%v: uncontended publishWriter lost its CAS", owned)
		}
		if atomic.LoadUint64(&c.b) != b {
			t.Errorf("owned=%v: publishWriter touched B", owned)
		}
		stale := a
		if a, m = c.read(); m != (word{70, 8, 9}) || a>>32 != 2 {
			t.Fatalf("owned=%v: after publishWriter: version %d %v, want 2 {70 8 9}", owned, a>>32, m)
		}
		if !c.publishReaders(a, word{w: 70, r1: 80}, owned) {
			t.Fatalf("owned=%v: uncontended publishReaders lost its CAS", owned)
		}
		if a, m = c.read(); m != (word{70, 80, 0}) || a>>32 != 4 {
			t.Fatalf("owned=%v: after publishReaders: version %d %v, want 4 {70 80 0}", owned, a>>32, m)
		}
		if owned {
			continue
		}
		if c.publishWriter(stale, 1, false) || c.publishReaders(stale, word{r1: 1, r2: 1}, false) {
			t.Error("a publish from a stale snapshot succeeded")
		}
		if a2, m2 := c.read(); a2 != a || m2 != m {
			t.Errorf("a lost publish changed the cell: version %d %v", a2>>32, m2)
		}
	}

	// The owned publishes store the same words as the shared ones from
	// every state, a read action's too: the version is never odd.
	for _, from := range []word{{}, {w: 5}, {w: 5, r1: 6}, {w: 5, r1: 6, r2: 7}} {
		for _, to := range []word{{w: 50}, {w: 5, r1: 60}, {w: 50, r1: 60, r2: 70}} {
			for _, version := range []uint32{0, 2, lastVersion} {
				var shared, owned casCell
				shared.seed(version, from)
				owned.seed(version, from)
				a, _ := shared.read()
				if shared.publishWriter(a, to.w, false) != owned.publishWriter(a, to.w, true) || shared != owned {
					t.Errorf("publishWriter %v → w %d at version %d: shared leaves %+v, owned %+v", from, to.w, version, shared, owned)
				}
				a, _ = shared.read()
				if shared.publishReaders(a, to, false) != owned.publishReaders(a, to, true) || shared != owned {
					t.Errorf("publishReaders %v → %v at version %d+2: shared leaves %+v, owned %+v", from, to, version, shared, owned)
				}
				if owned.a&versionOne != 0 {
					t.Errorf("owned publish left the odd version %d", owned.a>>32)
				}
			}
		}
	}
}

// lastVersion is the last even value of the 32-bit version field: the next
// update wraps it to 0.
const lastVersion = 1<<32 - 2

// TestVersionWrapCell takes one cell across the 32-bit version wrap with
// each kind of update: the version goes 2^32-2 → 0 (a read action by way
// of the odd 2^32-1, which the read stage refuses like any odd version),
// the fields it does not own are untouched, and a snapshot from before
// the wrap is as stale as any other.
func TestVersionWrapCell(t *testing.T) {
	var c casCell
	c.seed(lastVersion, word{w: 5, r1: 6, r2: 7})
	before, _ := c.read()
	if !c.publishWriter(before, 50, false) {
		t.Fatal("publishWriter at the last version lost its CAS")
	}
	if a, m := c.read(); m != (word{50, 6, 7}) || a>>32 != 0 {
		t.Errorf("write action across the wrap: version %d %v, want 0 {50 6 7}", a>>32, m)
	}

	c.seed(lastVersion, word{w: 5, r1: 6, r2: 7})
	atomic.StoreUint64(&c.a, before+versionOne) // a read action between its two stores, at version 2^32-1
	if _, _, ok := c.load(); ok {
		t.Error("the read stage accepted the odd version 2^32-1")
	}
	atomic.StoreUint64(&c.a, before)
	if !c.publishReaders(before, word{w: 5, r1: 60}, false) {
		t.Fatal("publishReaders at the last version lost its CAS")
	}
	a, m := c.read()
	if m != (word{5, 60, 0}) || a>>32 != 0 {
		t.Errorf("read action across the wrap: version %d %v, want 0 {5 60 0}", a>>32, m)
	}
	if c.publishWriter(before, 1, false) || c.publishReaders(before, word{r1: 1, r2: 1}, false) {
		t.Error("a publish from a snapshot taken before the wrap succeeded")
	}
	if a2, m2 := c.read(); a2 != a || m2 != m {
		t.Errorf("a lost publish changed the cell: version %d %v", a2>>32, m2)
	}
}

// TestVersionWrapExposure constructs the exposure seqlock.go documents
// under "Version wrap": a memory action holds a value of A while a
// multiple of 2^31 updates of the cell complete, the last leaving the same
// w. A is then bit-identical to the held value, so the action's CAS
// succeeds against a cell whose readers have moved on. The updates are
// not performed — the cell is put in the state they leave.
func TestVersionWrapExposure(t *testing.T) {
	var c casCell
	c.seed(4, word{w: 5, r1: 6, r2: 7})
	held, m := c.read()
	c.seed(4, word{w: 5, r1: 8, r2: 9}) // 2^31 updates later: same version, same w, other readers
	if now, _ := c.read(); now != held {
		t.Fatalf("the reconstructed A is %#x, the held one %#x: the test does not build the exposure", now, held)
	}
	if !c.publishWriter(held, 50, false) {
		t.Fatal("the stalled action's CAS lost: the exposure is gone, and so should its paragraph in seqlock.go be")
	}
	if _, got := c.read(); m.r1 == got.r1 || got != (word{50, 8, 9}) {
		t.Errorf("after the stalled publish the cell is %v: it checked against readers {6 7} and published over {8 9}", got)
	}
}

// TestVersionWrapChecks runs Algorithms 1 and 2 over cells whose next
// update wraps the version: the write action and the read action that
// cross it record their step, and the parallel accesses that follow are
// checked against what was recorded — one write-read and one read-write
// race, as on a cell at version 0.
func TestVersionWrapChecks(t *testing.T) {
	rt, d, sink := newRT(t, task.Sequential, 1, false)
	sh := d.NewShadow(detect.Spec("x", 2, 8)).(*casShadow)
	tk := &detect.Task{L: new(detect.Local)} // a scratch block of the test's own
	written, read := sh.At(tk, 0), sh.At(tk, 1)
	written.seed(lastVersion, word{})
	read.seed(lastVersion, word{})
	if err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				sh.Write(c.Task(), 0)
				sh.Read(c.Task(), 1)
				id := d.StepOf(c.Task()).ID
				if a, m := written.read(); a>>32 != 0 || m != (word{w: id}) {
					t.Errorf("x[0] after the write across the wrap: version %d %v, want 0 {%d 0 0}", a>>32, m, id)
				}
				if a, m := read.read(); a>>32 != 0 || m != (word{r1: id}) {
					t.Errorf("x[1] after the read across the wrap: version %d %v, want 0 {0 %d 0}", a>>32, m, id)
				}
			})
			c.Async(func(c *task.Ctx) {
				sh.Read(c.Task(), 0)
				sh.Write(c.Task(), 1)
			})
		})
		sh.Write(c.Task(), 0) // ordered after both asyncs
		sh.Write(c.Task(), 1)
	}); err != nil {
		t.Fatal(err)
	}
	races := sink.Races()
	if len(races) != 2 || races[0].Kind != detect.WriteRead || races[0].Index != 0 ||
		races[1].Kind != detect.ReadWrite || races[1].Index != 1 {
		t.Errorf("races across the wrap: %v, want a write-read on x[0] and a read-write on x[1]", races)
	}
	for i, cell := range []*casCell{written, read} {
		// Three updates each: the first async's, the second's, the main task's.
		if a, _ := cell.read(); a>>32 != 4 {
			t.Errorf("x[%d] ends at version %d, want 4 (2^32-2 + 3 updates)", i, a>>32)
		}
	}
}

// TestCellProtocolHammer drives one cell from many goroutines through
// all three kinds of update. The cell walks a chain of states in which the
// triple is written as a unit: (k, k+1, k+2) after a read or an update
// action, and (k+3, k+1, k+2) once a write action has followed it; a read
// action then makes it (k+3, k+4, k+5), and an update action, from the
// first shape, makes it (k+3, k+4, k+5) at once — the read protocol
// carrying the new writer. Every single update is legal from exactly one
// state, so a snapshot that paired an A and a B from states more than one
// update apart — a torn read — fits neither shape, and an update that got
// through on a stale snapshot breaks the chain for everyone after it.
func TestCellProtocolHammer(t *testing.T) {
	const (
		goroutines = 8
		attempts   = 200000
	)
	var c casCell
	c.seed(0, word{w: 1, r1: 2, r2: 3})
	var writes, reads, updates, torn atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			updater := g%3 == 2 // the others write from the first shape
			for i := 0; i < attempts; i++ {
				a, m := c.read()
				switch {
				case m.r2 == m.r1+1 && m.w == m.r1-1 && updater: // (k, k+1, k+2)
					if c.publishReaders(a, word{w: m.r2 + 1, r1: m.r2 + 2, r2: m.r2 + 3}, false) {
						updates.Add(1)
					}
				case m.r2 == m.r1+1 && m.w == m.r1-1:
					if c.publishWriter(a, m.r2+1, false) {
						writes.Add(1)
					}
				case m.r2 == m.r1+1 && m.w == m.r1+2: // (k+3, k+1, k+2)
					if c.publishReaders(a, word{w: m.w, r1: m.w + 1, r2: m.w + 2}, false) {
						reads.Add(1)
					}
				default:
					torn.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Errorf("%d snapshots returned a mixed triple", n)
	}
	w, r, u := writes.Load(), reads.Load(), updates.Load()
	if u == 0 || w+r == 0 || w-r < 0 || w-r > 1 {
		t.Errorf("%d write, %d read and %d update publishes: reads must follow writes one for one, and every kind must publish", w, r, u)
	}
	a, m := c.read()
	if got, want := uint32(a>>32), uint32(2*(w+r+u)); got != want {
		t.Errorf("final version = %d, want %d = 2 x %d successful publishes", got, want, w+r+u)
	}
	// Each publish moved its side three ids up the chain from (1, 2, 3);
	// an update moved both.
	if want := (word{w: uint32(1 + 3*(w+u)), r1: uint32(2 + 3*(r+u)), r2: uint32(3 + 3*(r+u))}); m != want {
		t.Errorf("final word = %v, want %v", m, want)
	}
}

// TestStalledPublisherDoesNotStarveReaders: with one processor, a read
// action descheduled between its CAS and its stores leaves the version
// odd, and a snapshot of that cell can only finish once the publisher runs
// again. The test plays the publisher by hand; the snapshot must yield to
// it rather than spin until the runtime preempts it (10 ms a time), and
// must then return the word the publisher stored.
func TestStalledPublisherDoesNotStarveReaders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 100
	var c casCell
	slow := 0
	for k := uint32(1); k <= rounds; k++ {
		a, _ := c.read()
		if !atomic.CompareAndSwapUint64(&c.a, a, a+versionOne) { // first half of publishReaders
			t.Fatal("uncontended CAS lost")
		}
		var spinning atomic.Bool
		got := make(chan word, 1)
		start := time.Now()
		go func() {
			spinning.Store(true)
			_, m := c.read()
			got <- m
		}()
		for !spinning.Load() {
			runtime.Gosched()
		}
		// The reader now owns the only processor and finds the version
		// odd; this goroutine runs again only when the reader gives way.
		atomic.StoreUint64(&c.b, uint64(k)<<32|uint64(k+1)) // second half of publishReaders
		atomic.StoreUint64(&c.a, a+2*versionOne)
		if m := <-got; m != (word{w: 0, r1: k, r2: k + 1}) {
			t.Fatalf("round %d: snapshot = %v, want the published {0 %d %d}", k, m, k, k+1)
		}
		if time.Since(start) > 5*time.Millisecond {
			slow++
		}
	}
	if slow > rounds/2 {
		t.Errorf("%d of %d snapshots took over 5 ms to get past a stalled publisher: the spin is not yielding", slow, rounds)
	}
}
