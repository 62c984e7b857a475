package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
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

// words loads both words of c.
func (c *casCell) words() (a, b uint64) {
	return atomic.LoadUint64(&c.a), atomic.LoadUint64(&c.b)
}

// TestPublishTouchesWhatItSays: a write action publishes A alone and a
// read action B alone, an update whichever of the two its halves change,
// and an action that changes nothing — a rewrite, a re-read, a write
// that races with the recorded writer — leaves both. Owned, every action
// leaves exactly the words the shared one does. A publish from a stale
// load changes nothing; an owned one stores without comparing.
func TestPublishTouchesWhatItSays(t *testing.T) {
	var left [2][]casCell
	for k, owned := range []bool{false, true} {
		d := New(detect.NewSink(false, 0), nil)
		d.owned = owned
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		sh := d.NewShadow(detect.Spec("x", 3, 8)).(*casShadow)
		tk := &detect.Task{L: new(detect.Local)} // a scratch block of the test's own
		act := func(c *task.Ctx, what string, op func(*detect.Task, int), i int, movesA, movesB bool) {
			t.Helper()
			cell := sh.At(tk, i)
			a, b := cell.words()
			op(c.Task(), i)
			a2, b2 := cell.words()
			if (a2 != a) != movesA || (b2 != b) != movesB {
				t.Errorf("owned=%v: %s of x[%d] moved A %#x → %#x and B %#x → %#x; want A moved %v, B moved %v", owned, what, i, a, a2, b, b2, movesA, movesB)
			}
		}
		if err := rt.Run(func(c *task.Ctx) {
			c.Finish(func(c *task.Ctx) {
				c.Async(func(c *task.Ctx) {
					act(c, "first read", sh.Read, 0, false, true)
					act(c, "first write", sh.Write, 1, true, false)
					act(c, "first update", sh.Update, 2, true, true)
				})
				c.Async(func(c *task.Ctx) {
					act(c, "second parallel read", sh.Read, 0, false, true)
					act(c, "parallel write", sh.Write, 1, false, false)
					act(c, "parallel update", sh.Update, 2, false, true)
				})
			})
			act(c, "ordered write", sh.Write, 0, true, false)
			act(c, "rewrite", sh.Write, 0, false, false)
			act(c, "ordered read", sh.Read, 1, false, true)
			act(c, "re-read", sh.Read, 1, false, false)
			act(c, "ordered update", sh.Update, 2, true, true)
		}); err != nil {
			t.Fatal(err)
		}
		d.regions.Range(func(c *casCell) { left[k] = append(left[k], *c) })
	}
	if !reflect.DeepEqual(left[0], left[1]) {
		t.Errorf("shared actions leave %+v, owned ones %+v", left[0], left[1])
	}

	var c casCell
	if !publish(&c.a, 0, 7, false) || c.a != 7 {
		t.Fatalf("an uncontended publish lost or left A = %d", c.a)
	}
	if publish(&c.a, 0, 8, false) || c.a != 7 {
		t.Errorf("a publish from a stale load succeeded or changed A to %d", c.a)
	}
	if !publish(&c.b, 99, 5, true) || c.b != 5 {
		t.Errorf("an owned publish did not store: B = %d", c.b)
	}
}

// TestPublishThenObserve is the store-buffering litmus test on the shadow
// word. Pool-2 runs rounds of a finish with two asyncs that meet at a
// bounded spin and then one reads and one writes a fresh cell (the first
// async reads in even rounds and writes in odd ones, since whichever the
// pool starts first tends to act first). Each publishes its own word and
// then loads the other's, so sequential consistency forbids both missing
// the other, and every cell must carry a race. A half that loaded the
// other word before its publish would let both miss when they overlap.
func TestPublishThenObserve(t *testing.T) {
	const rounds = 20000
	racy := make([]atomic.Bool, rounds)
	sink := detect.NewSink(false, 0)
	sink.SetOnRace(func(r detect.Race) bool {
		racy[r.Index].Store(true)
		return false
	})
	d := New(sink, nil)
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 2, Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	sh := d.NewShadow(detect.Spec("x", rounds, 8))
	if err := rt.Run(func(c *task.Ctx) {
		for i := range rounds {
			var arrived atomic.Int32
			meet := func() {
				arrived.Add(1)
				for spins := 0; arrived.Load() < 2 && spins < 1<<16; spins++ {
				}
			}
			first, second := sh.Read, sh.Write
			if i%2 == 1 {
				first, second = second, first
			}
			c.Finish(func(c *task.Ctx) {
				c.Async(func(c *task.Ctx) {
					meet()
					first(c.Task(), i)
				})
				c.Async(func(c *task.Ctx) {
					meet()
					second(c.Task(), i)
				})
			})
		}
	}); err != nil {
		t.Fatal(err)
	}
	missed := 0
	for i := range racy {
		if !racy[i].Load() {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("%d of %d rounds of a parallel read and write reported no race", missed, rounds)
	}
}

// TestHalfPlayedPublishIsObserved plays one side of a parallel read and
// write by hand, up to its publish and no further, and the other side for
// real: on x[0] a read's store of B, then a real Write from a parallel
// step, which must report the read-write race; on x[1] a write's store of
// A, then a real Read, which must report the write-read race.
func TestHalfPlayedPublishIsObserved(t *testing.T) {
	rt, d, sink := newRT(t, task.Sequential, 1, false)
	sh := d.NewShadow(detect.Spec("x", 2, 8)).(*casShadow)
	tk := &detect.Task{L: new(detect.Local)} // a scratch block of the test's own
	x0, x1 := sh.At(tk, 0), sh.At(tk, 1)
	var played, live uint32
	if err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) {
				played = d.StepOf(c.Task())
				atomic.StoreUint64(&x0.b, uint64(played)<<32) // the read's publish
				atomic.StoreUint64(&x1.a, uint64(played))     // the write's publish
			})
			c.Async(func(c *task.Ctx) {
				live = d.StepOf(c.Task())
				sh.Write(c.Task(), 0)
				sh.Read(c.Task(), 1)
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	want := []detect.Race{
		{Kind: detect.ReadWrite, Region: "x", Index: 0, PrevStep: d.stepName(played), CurStep: d.stepName(live)},
		{Kind: detect.WriteRead, Region: "x", Index: 1, PrevStep: d.stepName(played), CurStep: d.stepName(live)},
	}
	if got := sink.Races(); !reflect.DeepEqual(got, want) {
		t.Errorf("races = %v, want %v", got, want)
	}
	for i, w := range [][2]uint64{{uint64(live), uint64(played) << 32}, {uint64(played), uint64(live) << 32}} {
		if a, b := sh.At(tk, i).words(); a != w[0] || b != w[1] {
			t.Errorf("x[%d] = (%#x, %#x), want (%#x, %#x)", i, a, b, w[0], w[1])
		}
	}
}

// TestCellProtocolHammer drives the two words of one cell from many
// goroutines through publish, each word along its own chain: a writer
// moves A from k to k+1, a reader moves B from (k, k+1) to (k+1, k+2),
// and an updater does both, B first. Every publish is legal from exactly
// one value, so one that got through on a stale load breaks its chain for
// everyone after it, and each final word must equal the number of
// successful publishes on it.
func TestCellProtocolHammer(t *testing.T) {
	const (
		goroutines = 8
		attempts   = 200000
	)
	var c casCell
	c.b = 1 // (0, 1)
	var onA, onB, torn atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readers, writer := g%3 != 0, g%3 != 1 // g%3 == 2 updates
			for i := 0; i < attempts; i++ {
				if readers {
					b := atomic.LoadUint64(&c.b)
					if k := b >> 32; uint32(b) != uint32(k)+1 {
						torn.Add(1)
					} else if publish(&c.b, b, (k+1)<<32|(k+2), false) {
						onB.Add(1)
					}
				}
				if writer {
					if a := atomic.LoadUint64(&c.a); publish(&c.a, a, a+1, false) {
						onA.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Errorf("%d loads of B returned readers off the chain", n)
	}
	a, b := c.words()
	nA, nB := onA.Load(), onB.Load()
	if nA == 0 || nB == 0 {
		t.Fatalf("%d publishes on A and %d on B: both chains must move", nA, nB)
	}
	if a != uint64(nA) {
		t.Errorf("final A = %d, want %d successful publishes", a, nA)
	}
	if want := uint64(nB)<<32 | uint64(nB+1); b != want {
		t.Errorf("final B = %#x, want %#x after %d successful publishes", b, want, nB)
	}
}
