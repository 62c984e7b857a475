package dpst

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomTree grows a tree by repeatedly attaching children (alternating
// kinds) to random existing interior nodes, returning all nodes.
func randomTree(seed int64, size int) []*Node {
	rng := rand.New(rand.NewSource(seed))
	t := New()
	nodes := []*Node{t.Root()}
	interior := []*Node{t.Root()}
	for len(nodes) < size {
		parent := interior[rng.Intn(len(interior))]
		var kind Kind
		switch rng.Intn(3) {
		case 0:
			kind = AsyncNode
		case 1:
			kind = FinishNode
		default:
			kind = StepNode
		}
		n := t.NewChild(parent, kind)
		nodes = append(nodes, n)
		if kind != StepNode {
			interior = append(interior, n)
		}
	}
	return nodes
}

// naiveLCA finds the least common ancestor by materializing a's ancestor
// set.
func naiveLCA(a, b *Node) *Node {
	anc := map[*Node]bool{}
	for n := a; n != nil; n = n.Parent {
		anc[n] = true
	}
	for n := b; n != nil; n = n.Parent {
		if anc[n] {
			return n
		}
	}
	return nil
}

// childToward returns the child of lca on the path to n (nil when n is
// the lca).
func childToward(lca, n *Node) *Node {
	var prev *Node
	for ; n != nil && n != lca; n = n.Parent {
		prev = n
	}
	_ = n
	return prev
}

// naiveDMHP re-states Theorem 1 from the naive primitives.
func naiveDMHP(a, b *Node) bool {
	if a == nil || b == nil || a == b {
		return false
	}
	l := naiveLCA(a, b)
	ca, cb := childToward(l, a), childToward(l, b)
	if ca == nil || cb == nil {
		return false
	}
	left := ca
	if cb.Seq < ca.Seq {
		left = cb
	}
	return left.Kind == AsyncNode
}

// TestQuickLCAAgainstNaive: Relation's LCA depth must equal the depth of
// the ancestor-set LCA for every node pair of random trees.
func TestQuickLCAAgainstNaive(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		nodes := randomTree(seed, 120)
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		_, d := Relation(a, b)
		return d == naiveLCA(a, b).Depth
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDMHPAgainstNaive: Algorithm 3 must agree with the Theorem 1
// restatement over naive primitives.
func TestQuickDMHPAgainstNaive(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		nodes := randomTree(seed, 120)
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		return dmhp(a, b) == naiveDMHP(a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDMHPSymmetric: DMHP is symmetric and irreflexive on any tree.
func TestQuickDMHPSymmetric(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		nodes := randomTree(seed, 80)
		a := nodes[int(ai)%len(nodes)]
		b := nodes[int(bi)%len(nodes)]
		if a == b {
			return !dmhp(a, b)
		}
		return dmhp(a, b) == dmhp(b, a)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPathInvariants: depth equals root-path length and sibling
// sequence numbers are dense from 1.
func TestQuickPathInvariants(t *testing.T) {
	check := func(seed int64) bool {
		nodes := randomTree(seed, 150)
		maxSeq := map[*Node]int32{}
		for _, n := range nodes {
			d := int32(0)
			for p := n.Parent; p != nil; p = p.Parent {
				d++
			}
			if d != n.Depth {
				return false
			}
			if n.Parent != nil {
				if n.Seq < 1 {
					return false
				}
				if n.Seq > maxSeq[n.Parent] {
					maxSeq[n.Parent] = n.Seq
				}
			}
		}
		counts := map[*Node]int32{}
		for _, n := range nodes {
			if n.Parent != nil {
				counts[n.Parent]++
			}
		}
		for p, c := range counts {
			if maxSeq[p] != c {
				return false // sequence numbers not dense
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
