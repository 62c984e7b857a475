package dpst

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// seqTree is a test tree that keeps the paper's seq_no beside it: each
// node's position among its siblings, from 1, left to right, recorded as
// the builder inserts it — a sibling order independent of the ids that
// Relation compares. nodes are the ones worth querying.
type seqTree struct {
	t     *Tree
	seq   map[*Node]int32
	kids  map[*Node]int32
	nodes []*Node
}

func newSeqTree() *seqTree {
	t := New()
	return &seqTree{t: t, seq: map[*Node]int32{}, kids: map[*Node]int32{}, nodes: []*Node{t.Root()}}
}

// add inserts a new rightmost child of parent and records its seq_no.
func (b *seqTree) add(parent *Node, kind Kind) *Node {
	n := b.t.NewChild(parent, kind)
	b.kids[parent]++
	b.seq[n] = b.kids[parent]
	return n
}

// randomTree grows a tree by repeatedly attaching children (alternating
// kinds) to random existing interior nodes; every node is worth querying.
func randomTree(seed int64, size int) *seqTree {
	rng := rand.New(rand.NewSource(seed))
	b := newSeqTree()
	interior := []*Node{b.t.Root()}
	for len(b.nodes) < size {
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
		n := b.add(parent, kind)
		b.nodes = append(b.nodes, n)
		if kind != StepNode {
			interior = append(interior, n)
		}
	}
	return b
}

// diffTree grows a randomized tree of the shapes randomTree rarely
// reaches: long chains (each case-0 draw descends chain levels) and wide
// fan-out (each case-1 draw appends fan siblings); every node is worth
// querying.
func diffTree(seed int64, size, chain, fan int) *seqTree {
	rng := rand.New(rand.NewSource(seed))
	b := newSeqTree()
	interior := []*Node{b.t.Root()}
	for len(b.nodes) < size {
		parent := interior[rng.Intn(len(interior))]
		switch rng.Intn(3) {
		case 0:
			n := parent
			for i := 0; i < chain; i++ {
				kind := AsyncNode
				if i%2 == 1 {
					kind = FinishNode
				}
				n = b.add(n, kind)
				b.nodes = append(b.nodes, n)
				interior = append(interior, n)
			}
		case 1:
			for i := 0; i < fan; i++ {
				kind := AsyncNode
				if i%2 == 0 {
					kind = StepNode
				}
				n := b.add(parent, kind)
				b.nodes = append(b.nodes, n)
				if kind != StepNode {
					interior = append(interior, n)
				}
			}
		default:
			b.nodes = append(b.nodes, b.add(parent, StepNode))
		}
	}
	return b
}

// wideTree hangs 16 400 asyncs under one finish — sibling indices past
// 16 383 — and a step under each of the last few, plus one async beside
// the finish; only those ends are worth querying.
func wideTree() *seqTree {
	b := newSeqTree()
	wide := b.add(b.t.Root(), FinishNode)
	b.nodes = append(b.nodes, wide)
	for i := 0; i < 16400; i++ {
		n := b.add(wide, AsyncNode)
		if i < 4 || i >= 16380 {
			b.nodes = append(b.nodes, n, b.add(n, StepNode))
		}
	}
	side := b.add(b.t.Root(), AsyncNode)
	b.nodes = append(b.nodes, side, b.add(side, StepNode))
	return b
}

var wideNodes = wideTree()

// quickTrees are the inputs of the naive-reference checks: the uniform
// random tree, the deep-chain/fan-out tree, and the very wide one.
func quickTrees(seed int64) []*seqTree {
	return []*seqTree{randomTree(seed, 120), diffTree(seed, 160, 24, 9), wideNodes}
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

// naiveDMHP re-states Theorem 1 from the naive primitives, taking left-of
// from the recorded seq_no.
func naiveDMHP(seq map[*Node]int32, a, b *Node) bool {
	if a == nil || b == nil || a == b {
		return false
	}
	l := naiveLCA(a, b)
	ca, cb := childToward(l, a), childToward(l, b)
	if ca == nil || cb == nil {
		return false
	}
	left := ca
	if seq[cb] < seq[ca] {
		left = cb
	}
	return left.Kind() == AsyncNode
}

// TestQuickLCAAgainstNaive: Relation's LCA depth must equal the depth of
// the ancestor-set LCA for every node pair of random, deep and wide trees.
func TestQuickLCAAgainstNaive(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		for _, tr := range quickTrees(seed) {
			a := tr.nodes[int(ai)%len(tr.nodes)]
			b := tr.nodes[int(bi)%len(tr.nodes)]
			if _, d := Relation(a, b); d != naiveLCA(a, b).Depth() {
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
		for _, tr := range quickTrees(seed) {
			a := tr.nodes[int(ai)%len(tr.nodes)]
			b := tr.nodes[int(bi)%len(tr.nodes)]
			if dmhp(a, b) != naiveDMHP(tr.seq, a, b) {
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
		nodes := randomTree(seed, 80).nodes
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

// TestQuickPathInvariants: depth equals root-path length, and under every
// parent the order of ids — what Relation calls left-of — is the order of
// the recorded sequence numbers.
func TestQuickPathInvariants(t *testing.T) {
	check := func(seed int64) bool {
		for _, tr := range []*seqTree{randomTree(seed, 150), diffTree(seed, 160, 24, 9)} {
			for _, n := range tr.nodes {
				d := int32(0)
				for p := n.Parent; p != nil; p = p.Parent {
					d++
				}
				if d != n.Depth() {
					return false
				}
				for _, m := range tr.nodes {
					if m.Parent == n.Parent && (m.ID < n.ID) != (tr.seq[m] < tr.seq[n]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSideRuleMatchesLCADepths holds DMHP's second result to what the
// detector takes from it. Algorithm 2 keeps the two of r1, r2 and a third
// reader s, parallel with both, whose LCA is highest: s replaces r1 when
// LCA(r1, s) lies above LCA(r1, r2), and the detector reads that off the
// sides — side(r1, s) == side(r2, s). On random, deep and wide trees the
// two rules agree for every such triple of steps, the depths taken from
// the ancestor-set LCA; and a side is nil exactly when one node is the
// other or its ancestor.
func TestSideRuleMatchesLCADepths(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, tr := range quickTrees(seed) {
			var steps []*Node
			for _, n := range tr.nodes {
				if n.Kind() == StepNode {
					steps = append(steps, n)
				}
			}
			lcaDepth := map[[2]*Node]int32{}
			for _, a := range tr.nodes {
				for _, b := range tr.nodes {
					l := naiveLCA(a, b)
					lcaDepth[[2]*Node{a, b}] = l.Depth()
					if _, side := DMHP(a, b); (side == nil) != (l == a || l == b) {
						t.Fatalf("seed %d: DMHP(%v, %v) side = %v, LCA %v", seed, a, b, side, l)
					}
				}
			}
			for _, s := range steps {
				var par, sides []*Node // the steps parallel with s, and their sides
				for _, r := range steps {
					if p, side := DMHP(r, s); p {
						par, sides = append(par, r), append(sides, side)
					}
				}
				for i, r1 := range par {
					for j, r2 := range par {
						above := lcaDepth[[2]*Node{r1, s}] < lcaDepth[[2]*Node{r1, r2}]
						if (sides[i] == sides[j]) != above {
							t.Fatalf("seed %d: r1 %v, r2 %v, s %v: same side %v, LCA(r1, s) above LCA(r1, r2) %v",
								seed, r1, r2, s, sides[i] == sides[j], above)
						}
					}
				}
			}
		}
	}
}
