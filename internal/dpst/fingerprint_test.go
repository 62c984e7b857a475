package dpst

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFingerprintInlineAndSpillDigits pins the encoding: digits land at
// the expected levels across the inline words and the spill slice, and
// carry the node's Seq and Kind.
func TestFingerprintInlineAndSpillDigits(t *testing.T) {
	tr := New()
	n := tr.Root()
	kinds := []Kind{FinishNode, AsyncNode, StepNode}
	var chain []*Node
	for d := 1; d <= 3*inlineDigits; d++ {
		n = tr.NewChild(n, kinds[d%3])
		chain = append(chain, n)
	}
	for _, n := range chain {
		if !n.fp.valid() {
			t.Fatalf("%v at depth %d: fingerprint not ok", n, n.Depth)
		}
		for i := int32(0); i < n.Depth; i++ {
			anc := chain[i] // the depth-(i+1) ancestor-or-self of n
			d := n.fp.digitAt(int(i))
			if digitSeq(d) != anc.Seq || digitKind(d) != anc.Kind {
				t.Fatalf("node depth %d, digit %d = (seq %d, %v), want (%d, %v)",
					n.Depth, i, digitSeq(d), digitKind(d), anc.Seq, anc.Kind)
			}
		}
	}
	// Spill accounting: nodes deeper than inlineDigits own spill words.
	deep := chain[len(chain)-1]
	if got, want := deep.fp.spillWords(), int64((3*inlineDigits-inlineDigits+digitsPerWord-1)/digitsPerWord); got != want {
		t.Fatalf("deepest node owns %d spill words, want %d", got, want)
	}
	if tr.Bytes() <= tr.Len()*NodeBytes {
		t.Fatal("Bytes does not account for spill words")
	}
}

// TestFingerprintOverflowFallsBack: children past the digit capacity
// (Seq > maxDigitSeq) and all their descendants are unencodable, and
// every query still agrees with the pointer walk.
func TestFingerprintOverflowFallsBack(t *testing.T) {
	tr := New()
	wide := tr.NewChild(tr.Root(), FinishNode)
	var last, prev *Node
	for i := 0; i < maxDigitSeq+2; i++ {
		prev = last
		last = tr.NewChild(wide, AsyncNode)
	}
	if prev.Seq != maxDigitSeq+1 || prev.fp.valid() {
		t.Fatalf("node with Seq %d should be unencodable (valid=%v)", prev.Seq, prev.fp.valid())
	}
	if last.fp.valid() {
		t.Fatal("overflowed sibling encodable")
	}
	okNode := tr.NewChild(tr.Root(), AsyncNode)
	if !okNode.fp.valid() {
		t.Fatal("small-seq sibling lost its fingerprint")
	}
	childOfOverflow := tr.NewChild(last, StepNode)
	if childOfOverflow.fp.valid() {
		t.Fatal("descendant of overflowed node must inherit the fallback")
	}
	// Queries across the valid/invalid boundary match the walk.
	pairs := [][2]*Node{
		{prev, last}, {last, okNode}, {childOfOverflow, okNode},
		{childOfOverflow, wide}, {prev, okNode},
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		gp, gd := Relation(a, b)
		wp, wd := relationWalk(a, b)
		if gp != wp || gd != wd {
			t.Errorf("Relation(%v, %v) = (%v, %d), walk says (%v, %d)", a, b, gp, gd, wp, wd)
		}
	}
}

// diffTree grows a randomized tree that deliberately visits the three
// fingerprint regimes: long chains (spill slices past the inline
// threshold), wide fan-out (large sibling indices), and — when overflow
// is requested — nodes whose Seq exceeds a digit, forcing the
// pointer-walk fallback for whole subtrees. maxWide nodes use an
// artificially lowered fan-out cap so the suite stays fast while still
// crossing maxDigitSeq via the dedicated overflow test above.
func diffTree(seed int64, size, chain, fan int) []*Node {
	rng := rand.New(rand.NewSource(seed))
	t := New()
	nodes := []*Node{t.Root()}
	interior := []*Node{t.Root()}
	for len(nodes) < size {
		parent := interior[rng.Intn(len(interior))]
		switch rng.Intn(3) {
		case 0: // grow a chain: push well past the inline digits
			n := parent
			for i := 0; i < chain; i++ {
				kind := AsyncNode
				if i%2 == 1 {
					kind = FinishNode
				}
				n = t.NewChild(n, kind)
				nodes = append(nodes, n)
				interior = append(interior, n)
			}
		case 1: // fan out: drive sibling indices up
			for i := 0; i < fan; i++ {
				kind := AsyncNode
				if i%2 == 0 {
					kind = StepNode
				}
				n := t.NewChild(parent, kind)
				nodes = append(nodes, n)
				if kind != StepNode {
					interior = append(interior, n)
				}
			}
		default:
			n := t.NewChild(parent, StepNode)
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// TestQuickFingerprintAgainstWalk is the differential check the fast
// path rests on: over random trees spanning the inline, spill, and
// deep regimes, the fingerprint implementation of Relation (parallelism
// + LCA depth) must agree with the §5.2 pointer walk on every sampled
// node pair.
func TestQuickFingerprintAgainstWalk(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		nodes := diffTree(seed, 160, 3*inlineDigits, 9)
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		gp, gd := Relation(a, b)
		wp, wd := relationWalk(a, b)
		if gp != wp || gd != wd {
			t.Logf("seed %d: Relation(%v,%v) = (%v,%d), walk (%v,%d)", seed, a, b, gp, gd, wp, wd)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFingerprintSpillExhaustive: on pure deep trees (every node
// past the spill threshold) compare all pairs exhaustively, so the
// word-loop prefix comparison is hit with shared prefixes of every
// length.
func TestQuickFingerprintSpillExhaustive(t *testing.T) {
	tr := New()
	// A trunk of depth 2*inlineDigits with two deep branches hanging
	// off every trunk node.
	trunk := tr.Root()
	var all []*Node
	for d := 0; d < 2*inlineDigits; d++ {
		kind := AsyncNode
		if d%3 == 1 {
			kind = FinishNode
		}
		trunk = tr.NewChild(trunk, kind)
		all = append(all, trunk)
		for b := 0; b < 2; b++ {
			n := tr.NewChild(trunk, AsyncNode)
			all = append(all, n)
			for e := 0; e < 3; e++ {
				n = tr.NewChild(n, StepNode)
				all = append(all, n)
				break // steps are leaves; just one per branch
			}
		}
	}
	for _, a := range all {
		for _, b := range all {
			gp, gd := Relation(a, b)
			wp, wd := relationWalk(a, b)
			if gp != wp || gd != wd {
				t.Fatalf("Relation(%v,%v) = (%v,%d), walk (%v,%d)", a, b, gp, gd, wp, wd)
			}
		}
	}
}
