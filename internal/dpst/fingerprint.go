// Packed path fingerprints: a constant-time fast path for the DPST
// queries.
//
// The §5.2 LCA walk pointer-chases parent links — O(tree depth) per
// DMHP and cache-hostile, which EXPERIMENTS.md identifies as the
// dominant cost of the detector's hot path. Following the idea of
// compact per-node path encodings (DePa: Westrick, Wang & Acar answer
// order-maintenance queries for fork-join programs from per-vertex
// packed paths in near-constant time), every node is given an immutable
// *fingerprint* of its root path at creation:
//
//	digit(level) = Seq<<2 | Kind     (one 16-bit digit per ancestor)
//
// packed most-significant-first into two inline uint64 words (levels
// 1..8) and, past that depth, a small immutable spill slice of further
// words (4 digits each). Because Seq >= 1 every real digit is nonzero,
// so unused trailing slots (zero) never collide with a path digit.
//
// Two properties make the queries fall out of word arithmetic:
//
//  1. The packing is prefix-preserving: node a is an ancestor of node b
//     iff a's digits are exactly the leading digits of b's fingerprint.
//     Hence the index of the first differing digit — XOR plus a
//     leading-zero count — is the depth of LCA(a, b).
//  2. A digit carries everything Theorem 1 needs about the child of the
//     LCA on each path: its sibling position (Seq, for deciding which
//     side is the left one) and its Kind (is it an async?).
//
// So DMHP and the LCA *depth* need no tree walk at all: one or
// two XORs in the common shallow case, a short word loop for deep
// nodes. The encoding gives up when a digit overflows — a node with
// sibling index above maxDigitSeq marks itself and (transitively) every
// descendant as unencodable — and the queries then fall back to the
// always-correct §5.2 pointer walk. Precision is unaffected either way:
// both paths compute the same relation (see the differential quick
// checks in fingerprint_test.go), only the traversal differs — the same
// argument by which the async-finish vector-clock line of work (Kumar,
// Agrawal & Biswas) answers MHP from per-node metadata without a live
// tree walk.
package dpst

import "math/bits"

const (
	digitBits     = 16                // one path element per digit
	digitsPerWord = 64 / digitBits    // 4
	inlineDigits  = 2 * digitsPerWord // levels encoded in w0/w1
	kindBits      = 2                 // Kind fits in two bits
	kindMask      = 1<<kindBits - 1
	digitMask     = 1<<digitBits - 1
	// maxDigitSeq is the largest sibling index a digit can hold; a
	// node with Seq beyond it (and all its descendants) falls back to
	// the pointer walk.
	maxDigitSeq = 1<<(digitBits-kindBits) - 1 // 16383
)

// fingerprint is the packed root path of a node. All fields are
// immutable after creation; the spill slice is never shared in a
// mutable position (each node owning spill words allocates its own
// copy), so concurrent readers need no synchronization.
//
// Invalidity (a digit overflowed somewhere on the path) is encoded as
// w0 == fpInvalid rather than a separate flag, keeping the struct at
// 40 bytes: all-ones is unreachable for a real path because its digits
// would all carry kind bits 3, and Kind has only three values.
type fingerprint struct {
	w0, w1 uint64   // digits for levels 1..8, most significant first
	spill  []uint64 // digits for levels 9.., 4 per word
}

// fpInvalid marks an unencodable path; see the fingerprint comment.
const fpInvalid = ^uint64(0)

// valid reports whether this fingerprint encodes the full root path.
func (fp *fingerprint) valid() bool { return fp.w0 != fpInvalid }

// digitShift returns the bit shift of digit k within its word
// (MSB-first so that LeadingZeros finds the shallowest difference).
func digitShift(k int) uint { return uint(64 - digitBits*(k+1)) }

// extend returns the fingerprint of a child of a node with fingerprint
// parent, created at the given depth with the given sibling index and
// kind. Spill words are copied, never mutated in place, because the
// parent's fingerprint may already be visible to other tasks.
func (parent *fingerprint) extend(depth, seq int32, kind Kind) fingerprint {
	if !parent.valid() || seq > maxDigitSeq {
		return fingerprint{w0: fpInvalid} // this subtree uses the walk
	}
	d := uint64(seq)<<kindBits | uint64(kind)
	fp := fingerprint{w0: parent.w0, w1: parent.w1, spill: parent.spill}
	i := int(depth) - 1 // digit index of the new level
	switch {
	case i < digitsPerWord:
		fp.w0 |= d << digitShift(i)
	case i < inlineDigits:
		fp.w1 |= d << digitShift(i-digitsPerWord)
	default:
		k := i - inlineDigits
		sp := make([]uint64, k/digitsPerWord+1)
		copy(sp, parent.spill)
		sp[k/digitsPerWord] |= d << digitShift(k%digitsPerWord)
		fp.spill = sp
	}
	return fp
}

// spillWords returns how many spill words this fingerprint owns (0 for
// inline-only paths); used by the tree's analytic byte accounting.
func (fp *fingerprint) spillWords() int64 { return int64(len(fp.spill)) }

// digitAt returns the packed digit of path level i+1 (the child of the
// depth-i ancestor). The caller guarantees i < the node's depth.
func (fp *fingerprint) digitAt(i int) uint64 {
	switch {
	case i < digitsPerWord:
		return fp.w0 >> digitShift(i) & digitMask
	case i < inlineDigits:
		return fp.w1 >> digitShift(i-digitsPerWord) & digitMask
	default:
		k := i - inlineDigits
		return fp.spill[k/digitsPerWord] >> digitShift(k%digitsPerWord) & digitMask
	}
}

func digitSeq(d uint64) int32 { return int32(d >> kindBits) }
func digitKind(d uint64) Kind { return Kind(d & kindMask) }

// firstDiff returns the index of the first digit at which the two
// fingerprints differ, or a value past any real depth when one path is
// a prefix of the other (the caller caps at min depth).
func firstDiff(a, b *fingerprint) int32 {
	if x := a.w0 ^ b.w0; x != 0 {
		return int32(bits.LeadingZeros64(x) / digitBits)
	}
	if x := a.w1 ^ b.w1; x != 0 {
		return int32(digitsPerWord + bits.LeadingZeros64(x)/digitBits)
	}
	la, lb := len(a.spill), len(b.spill)
	n := la
	if lb > n {
		n = lb
	}
	for i := 0; i < n; i++ {
		var wa, wb uint64
		if i < la {
			wa = a.spill[i]
		}
		if i < lb {
			wb = b.spill[i]
		}
		if x := wa ^ wb; x != 0 {
			return int32(inlineDigits + i*digitsPerWord + bits.LeadingZeros64(x)/digitBits)
		}
	}
	return int32(inlineDigits + n*digitsPerWord)
}

// fpRelate answers the structural query for two nodes with valid
// fingerprints: the depth of their LCA, and the packed digits of the
// LCA's child on each node's path (0 when that node *is* the LCA, i.e.
// an ancestor of the other).
func fpRelate(a, b *Node) (lcaDepth int32, da, db uint64) {
	lcaDepth = firstDiff(&a.fp, &b.fp)
	min := a.Depth
	if b.Depth < min {
		min = b.Depth
	}
	if lcaDepth > min {
		lcaDepth = min
	}
	if a.Depth > lcaDepth {
		da = a.fp.digitAt(int(lcaDepth))
	}
	if b.Depth > lcaDepth {
		db = b.fp.digitAt(int(lcaDepth))
	}
	return lcaDepth, da, db
}

// digitsParallel applies Theorem 1 to the two LCA-child digits: the
// steps may run in parallel iff the left child (smaller Seq) is an
// async node. A zero digit means one node was an ancestor of the other:
// never parallel.
func digitsParallel(da, db uint64) bool {
	if da == 0 || db == 0 {
		return false
	}
	left := da
	if digitSeq(db) < digitSeq(da) {
		left = db
	}
	return digitKind(left) == AsyncNode
}
