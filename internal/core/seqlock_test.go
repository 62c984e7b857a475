package core

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestCellIsSixteenPointerFreeBytes pins the shadow word at the paper's
// size and keeps it out of the garbage collector's sight: a page of cells
// with no pointer in them is allocated noscan.
func TestCellIsSixteenPointerFreeBytes(t *testing.T) {
	if got := unsafe.Sizeof(casCell{}); got != casCellBytes || casCellBytes != 16 {
		t.Fatalf("unsafe.Sizeof(casCell{}) = %d, casCellBytes = %d, want both 16", got, casCellBytes)
	}
	ty := reflect.TypeOf(casCell{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); f.Type != reflect.TypeOf(atomic.Uint64{}) {
			t.Errorf("casCell.%s is a %v, want atomic.Uint64: a pointer in the cell makes the GC scan shadow pages", f.Name, f.Type)
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
	c.b.Store(uint64(m.r1)<<32 | uint64(m.r2))
	c.a.Store(uint64(version)<<32 | uint64(m.w))
}

// TestPublishTouchesWhatItSays: a write action is one CAS on A and leaves
// B alone, a read action leaves w alone, each moves the version by 2, and
// a publish from a stale snapshot changes nothing.
func TestPublishTouchesWhatItSays(t *testing.T) {
	var c casCell
	c.seed(0, word{w: 7, r1: 8, r2: 9})
	a, m := c.read()
	if m != (word{7, 8, 9}) || a>>32 != 0 {
		t.Fatalf("snapshot = version %d %v", a>>32, m)
	}
	b := c.b.Load()
	if !c.publishWriter(a, 70) {
		t.Fatal("uncontended publishWriter lost its CAS")
	}
	if c.b.Load() != b {
		t.Error("publishWriter touched B")
	}
	stale := a
	if a, m = c.read(); m != (word{70, 8, 9}) || a>>32 != 2 {
		t.Fatalf("after publishWriter: version %d %v, want 2 {70 8 9}", a>>32, m)
	}
	if !c.publishReaders(a, 80, 0) {
		t.Fatal("uncontended publishReaders lost its CAS")
	}
	if a, m = c.read(); m != (word{70, 80, 0}) || a>>32 != 4 {
		t.Fatalf("after publishReaders: version %d %v, want 4 {70 80 0}", a>>32, m)
	}
	if c.publishWriter(stale, 1) || c.publishReaders(stale, 1, 1) {
		t.Error("a publish from a stale snapshot succeeded")
	}
	if a2, m2 := c.read(); a2 != a || m2 != m {
		t.Errorf("a lost publish changed the cell: version %d %v", a2>>32, m2)
	}

	// The version field wraps without disturbing w.
	c.seed(1<<32-2, word{w: 5, r1: 6, r2: 7})
	a, _ = c.read()
	if !c.publishWriter(a, 50) {
		t.Fatal("publishWriter at the last version lost its CAS")
	}
	if a, m = c.read(); m != (word{50, 6, 7}) || a>>32 != 0 {
		t.Errorf("across the version wrap: version %d %v, want 0 {50 6 7}", a>>32, m)
	}
}

// TestCellProtocolHammer drives one cell from many goroutines through
// both kinds of update. The cell walks a chain of states in which the
// triple is written as a unit: (k, k+1, k+2) after a read action, and
// (k+3, k+1, k+2) once a write action has followed it; a read action then
// makes it (k+3, k+4, k+5). Every single update is legal from exactly one
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
	var writes, reads, torn atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				a, m := c.read()
				switch {
				case m.r2 == m.r1+1 && m.w == m.r1-1: // (k, k+1, k+2)
					if c.publishWriter(a, m.r2+1) {
						writes.Add(1)
					}
				case m.r2 == m.r1+1 && m.w == m.r1+2: // (k+3, k+1, k+2)
					if c.publishReaders(a, m.w+1, m.w+2) {
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
	w, r := writes.Load(), reads.Load()
	if w+r == 0 || w-r < 0 || w-r > 1 {
		t.Errorf("%d write and %d read publishes: the two must alternate, write first", w, r)
	}
	a, m := c.read()
	if got, want := uint32(a>>32), uint32(2*(w+r)); got != want {
		t.Errorf("final version = %d, want %d = 2 x %d successful publishes", got, want, w+r)
	}
	// Each publish moved its side three ids up the chain from (1, 2, 3).
	if want := (word{w: uint32(1 + 3*w), r1: uint32(2 + 3*r), r2: uint32(3 + 3*r)}); m != want {
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
		if !c.a.CompareAndSwap(a, a+versionOne) { // first half of publishReaders
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
		c.b.Store(uint64(k)<<32 | uint64(k+1)) // second half of publishReaders
		c.a.Store(a + 2*versionOne)
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
