package ids

import "testing"

// TestBlockAccounting walks two blocks of one counter through the cases
// of the package comment: one owner's refills extend its block and its
// release hands the remainder back, so its ids are the counter's own; a
// refill after someone else drew starts afresh and loses the remainder,
// as does a release that someone drew past; and Used is exact once every
// block is released.
func TestBlockAccounting(t *testing.T) {
	var c Counter
	var a, b Block
	for want := int64(0); want < 3*BlockSize; want++ {
		if id := a.Next(&c); id != want {
			t.Fatalf("one owner: id %d, want %d", id, want)
		}
	}
	a.Release()
	if c.Len() != 3*BlockSize || c.Used() != 3*BlockSize {
		t.Fatalf("after one owner's release: Len %d, Used %d, want %d", c.Len(), c.Used(), 3*BlockSize)
	}

	first := a.Next(&c) // a holds [768, 1024)
	if id := b.Next(&c); id != first+BlockSize {
		t.Fatalf("second block starts at %d, want %d", id, first+BlockSize)
	}
	if id, ok := a.Take(1, first+BlockSize); ok {
		t.Fatalf("Take above a floor past the block gave %d", id)
	}
	lo, hi, ok := a.Refill(&c, 1)
	if !ok || lo != first+2*BlockSize || hi != lo+BlockSize {
		t.Fatalf("Refill after another draw: [%d, %d) %v, want [%d, %d)", lo, hi, ok, first+2*BlockSize, first+3*BlockSize)
	}
	if id, _ := a.Take(1, first+BlockSize); id != lo {
		t.Fatalf("Take after the refill gave %d, want %d", id, lo)
	}
	b.Release() // a drew past b: b's remainder is lost
	a.Release() // nobody drew past a: handed back
	if want := first + 1 + 1 + 1; c.Used() != want || c.Len() != lo+1 {
		t.Fatalf("after both releases: Len %d, Used %d, want %d and %d ids used", c.Len(), c.Used(), lo+1, want)
	}
}

// TestLimitFallsBackToExactDraws: near the limit a refill draws exactly
// what it needs, and past it nothing.
func TestLimitFallsBackToExactDraws(t *testing.T) {
	c := Counter{Limit: 10}
	var b Block
	if _, _, ok := b.Refill(&c, 4); !ok || b.left != 4 {
		t.Fatalf("Refill of 4 below a limit of 10: ok %v, block [%d, %d)", ok, b.next, b.end())
	}
	if _, _, ok := b.Refill(&c, 7); ok || c.Len() != 4 {
		t.Fatalf("Refill of 7 with 6 left: ok %v, Len %d", ok, c.Len())
	}
	if _, _, ok := b.Refill(&c, 6); !ok || b.next != 0 || b.end() != 10 {
		t.Fatalf("Refill of the last 6: ok %v, block [%d, %d), want it extended to [0, 10)", ok, b.next, b.end())
	}
}

// TestFailedDrawInflatesNothing: a draw that would pass the limit leaves
// the counter as it was even for a draw made at the same time, so one
// owner's exact draws take every id up to the limit while another
// owner's oversized draw keeps failing beside them.
func TestFailedDrawInflatesNothing(t *testing.T) {
	const limit = 1 << 16
	c := Counter{Limit: limit}
	c.Draw(1) // from here on a draw of limit ids cannot fit
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := c.Draw(limit); ok {
				t.Error("a draw past the limit succeeded")
				return
			}
		}
	}()
	<-started
	for want := int64(1); want < limit; want++ {
		if id, ok := c.Draw(1); !ok || id != want {
			t.Errorf("exact draw %d beside a failing one: id %d, ok %v", want, id, ok)
			break
		}
	}
	close(stop)
	<-done
	if _, ok := c.Draw(1); ok || c.Len() != limit {
		t.Fatalf("draw at the limit: ok %v, Len %d, want false and %d", ok, c.Len(), limit)
	}
}
