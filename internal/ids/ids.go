// Package ids hands out unique ids from a shared Counter, one draw at a
// time or in per-owner Blocks: an owner that takes its ids from a
// Block touches the shared counter once per BlockSize ids instead of once
// per id. The DPST's node ids and the task runtime's task and finish ids
// all come from here.
//
// A Block is one goroutine's and unsynchronized. Its ids are its owner's
// in the order the owner takes them, and a refill draws above every id
// the counter has handed out, so the ids one owner takes only ever grow.
// Blocks waste ids: a refill that cannot extend the block (someone drew
// in between) and a release that cannot hand the remainder back count the
// unused remainder as lost. Under one owner nothing is lost — each refill
// extends the block and the release returns what is left — so the ids
// are exactly those of one shared counter.
package ids

import "sync/atomic"

// BlockSize is how many ids a Block draws from its Counter at a time.
const BlockSize = 256

// Counter is a shared source of ids, 0 first.
type Counter struct {
	next atomic.Int64 // the first id not yet handed out
	lost atomic.Int64 // ids handed out in blocks and never used
	// Limit, when positive, is one past the largest id: a draw that would
	// pass it draws nothing. Set it before the counter is shared.
	Limit int64
}

// Len returns the number of ids handed out so far, lost ones included.
func (c *Counter) Len() int64 { return c.next.Load() }

// Used returns the ids handed out and not lost: exact once every block
// drawn from c has been released.
func (c *Counter) Used() int64 { return c.next.Load() - c.lost.Load() }

// Set makes n the next id; for a counter no one draws from yet.
func (c *Counter) Set(n int64) { c.next.Store(n) }

// Draw reserves n consecutive ids and returns the first; ok is false, with
// nothing reserved, when they would pass the limit. Under a limit it
// checks before it publishes (a CAS loop), so a draw that fails never
// inflates the counter under a concurrent one.
func (c *Counter) Draw(n int64) (first int64, ok bool) {
	if c.Limit <= 0 {
		return c.next.Add(n) - n, true
	}
	for {
		cur := c.next.Load()
		if cur+n > c.Limit {
			return 0, false
		}
		if c.next.CompareAndSwap(cur, cur+n) {
			return cur, true
		}
	}
}

// Block is an owner's run [next, next+left) of ids drawn from src. The
// zero value is an empty block. A refill extends a block only when its
// remainder is short of a take, so a remainder stays below two draws: its
// length fits 32 bits, and a Block is three words.
type Block struct {
	src  *Counter
	next int64
	left uint32
}

// Take returns the first of n consecutive ids of b, all above floor; ok is
// false, with nothing taken, when b does not hold them (see Refill).
func (b *Block) Take(n, floor int64) (first int64, ok bool) {
	if id := b.next; id > floor && int64(b.left) >= n {
		b.next, b.left = id+n, b.left-uint32(n)
		return id, true
	}
	return 0, false
}

// Refill draws fresh ids from src so that Take(n, floor) succeeds for any
// floor src handed out and someone used, and returns the range [lo, hi)
// it drew; ok is false, with b unchanged, when src's limit leaves fewer
// than n ids. A refill draws BlockSize ids (at least n), or exactly n
// near the limit. It extends b when the fresh range
// starts where b ends, and otherwise counts b's remainder as lost. Every
// id src handed out before lies below lo, so such a floor lies below b's
// remainder when b is extended (nobody used those ids) and below lo when
// it is not.
func (b *Block) Refill(src *Counter, n int64) (lo, hi int64, ok bool) {
	size := max(n, BlockSize)
	if lo, ok = src.Draw(size); !ok && size > n {
		size = n
		lo, ok = src.Draw(n)
	}
	if !ok {
		return 0, 0, false
	}
	if lo != b.end() || src != b.src {
		b.retire()
		b.src, b.next, b.left = src, lo, 0
	}
	b.left += uint32(size)
	return lo, lo + size, true
}

// Next returns the next id of b, refilling it from src when it is spent;
// for a counter without a limit.
func (b *Block) Next(src *Counter) int64 {
	if id, ok := b.Take(1, -1); ok {
		return id
	}
	b.Refill(src, 1)
	id, _ := b.Take(1, -1)
	return id
}

// Release gives b's remainder back to its counter — with one CAS when
// nobody drew after b, else by counting it as lost — and empties b.
func (b *Block) Release() {
	if b.src != nil && b.left > 0 && !b.src.next.CompareAndSwap(b.end(), b.next) {
		b.retire()
	}
	*b = Block{}
}

// end is one past b's last id.
func (b *Block) end() int64 { return b.next + int64(b.left) }

// retire counts b's remainder as lost.
func (b *Block) retire() {
	if b.src != nil && b.left > 0 {
		b.src.lost.Add(int64(b.left))
	}
}
