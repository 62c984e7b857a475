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

// diffTree grows a randomized tree of the shapes randomTree rarely
// reaches: long chains (each case-0 draw descends chain levels) and wide
// fan-out (each case-1 draw appends fan siblings), returning all nodes.
func diffTree(seed int64, size, chain, fan int) []*Node {
	rng := rand.New(rand.NewSource(seed))
	t := New()
	nodes := []*Node{t.Root()}
	interior := []*Node{t.Root()}
	for len(nodes) < size {
		parent := interior[rng.Intn(len(interior))]
		switch rng.Intn(3) {
		case 0:
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
		case 1:
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
			nodes = append(nodes, t.NewChild(parent, StepNode))
		}
	}
	return nodes
}

// wideTree hangs 16 400 asyncs under one finish — sibling indices past
// 16 383 — and a step under each of the last few, plus one async beside
// the finish; it returns the nodes worth querying.
func wideTree() []*Node {
	t := New()
	wide := t.NewChild(t.Root(), FinishNode)
	nodes := []*Node{t.Root(), wide}
	for i := 0; i < 16400; i++ {
		n := t.NewChild(wide, AsyncNode)
		if i < 4 || i >= 16380 {
			nodes = append(nodes, n, t.NewChild(n, StepNode))
		}
	}
	side := t.NewChild(t.Root(), AsyncNode)
	return append(nodes, side, t.NewChild(side, StepNode))
}

var wideNodes = wideTree()

// quickTrees are the inputs of the naive-reference checks: the uniform
// random tree, the deep-chain/fan-out tree, and the very wide one.
func quickTrees(seed int64) [][]*Node {
	return [][]*Node{randomTree(seed, 120), diffTree(seed, 160, 24, 9), wideNodes}
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
	if cb.Seq() < ca.Seq() {
		left = cb
	}
	return left.Kind() == AsyncNode
}

// TestQuickLCAAgainstNaive: Relation's LCA depth must equal the depth of
// the ancestor-set LCA for every node pair of random, deep and wide trees.
func TestQuickLCAAgainstNaive(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		for _, nodes := range quickTrees(seed) {
			a := nodes[int(ai)%len(nodes)]
			b := nodes[int(bi)%len(nodes)]
			if _, d := Relation(a, b); d != naiveLCA(a, b).Depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDMHPAgainstNaive: Algorithm 3 must agree with the Theorem 1
// restatement over naive primitives.
func TestQuickDMHPAgainstNaive(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		for _, nodes := range quickTrees(seed) {
			a := nodes[int(ai)%len(nodes)]
			b := nodes[int(bi)%len(nodes)]
			if dmhp(a, b) != naiveDMHP(a, b) {
				return false
			}
		}
		return true
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
				if n.Seq() < 1 {
					return false
				}
				if n.Seq() > maxSeq[n.Parent] {
					maxSeq[n.Parent] = n.Seq()
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
