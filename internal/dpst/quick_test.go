package dpst

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// seqTree is a test tree that keeps the paper's seq_no beside it: each
// node's position among its siblings, from 1, left to right, recorded as
// the builder inserts it — a sibling order independent of the ids that
// DMHP compares. nodes are the ones worth querying; recs is the finished
// tree's arena, copied for the naive references.
type seqTree struct {
	t     *Tree
	seq   map[uint32]int32
	kids  map[uint32]int32
	nodes []uint32
	recs  []node
}

// records copies t's arena, so that a naive reference reads plain memory
// and not the arena it checks.
func records(t *Tree) []node {
	recs := make([]node, t.Len())
	for id := range recs {
		recs[id] = t.at(uint32(id))
	}
	return recs
}

func newSeqTree() *seqTree {
	return &seqTree{t: New(), seq: map[uint32]int32{}, kids: map[uint32]int32{}, nodes: []uint32{0}}
}

// add inserts a new rightmost child of parent and records its seq_no.
func (b *seqTree) add(parent uint32, kind Kind) uint32 {
	n := b.t.NewChildFrom(nil, parent, kind)
	b.kids[parent]++
	b.seq[n] = b.kids[parent]
	return n
}

// randomTree grows a tree by repeatedly attaching children (alternating
// kinds) to random existing interior nodes; every node is worth querying.
func randomTree(seed int64, size int) *seqTree {
	rng := rand.New(rand.NewSource(seed))
	b := newSeqTree()
	interior := []uint32{0}
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
	b.recs = records(b.t)
	return b
}

// diffTree grows a randomized tree of the shapes randomTree rarely
// reaches: long chains (each case-0 draw descends chain levels) and wide
// fan-out (each case-1 draw appends fan siblings); every node is worth
// querying.
func diffTree(seed int64, size, chain, fan int) *seqTree {
	rng := rand.New(rand.NewSource(seed))
	b := newSeqTree()
	interior := []uint32{0}
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
	b.recs = records(b.t)
	return b
}

// wideTree hangs 16 400 asyncs under one finish — sibling indices past
// 16 383 — and a step under each of the last few, plus one async beside
// the finish; only those ends are worth querying.
func wideTree() *seqTree {
	b := newSeqTree()
	wide := b.add(0, FinishNode)
	b.nodes = append(b.nodes, wide)
	for i := 0; i < 16400; i++ {
		n := b.add(wide, AsyncNode)
		if i < 4 || i >= 16380 {
			b.nodes = append(b.nodes, n, b.add(n, StepNode))
		}
	}
	side := b.add(0, AsyncNode)
	b.nodes = append(b.nodes, side, b.add(side, StepNode))
	b.recs = records(b.t)
	return b
}

var wideNodes = wideTree()

// quickTrees are the inputs of the naive-reference checks: the uniform
// random tree, the deep-chain/fan-out tree, and the very wide one.
func quickTrees(seed int64) []*seqTree {
	return []*seqTree{randomTree(seed, 120), diffTree(seed, 160, 24, 9), wideNodes}
}

// naiveLCA finds the least common ancestor of a and b in the arena recs
// by materializing a's ancestor set.
func naiveLCA(recs []node, a, b uint32) uint32 {
	anc := map[uint32]bool{0: true}
	for n := a; n != 0; n = recs[n].parent {
		anc[n] = true
	}
	n := b
	for !anc[n] {
		n = recs[n].parent
	}
	return n
}

// childToward returns the child of lca on the path to n (0 when n is the
// lca).
func childToward(recs []node, lca, n uint32) uint32 {
	var prev uint32
	for ; n != lca; n = recs[n].parent {
		prev = n
	}
	return prev
}

// naiveDMHP re-states Theorem 1 from the naive primitives, taking left-of
// from the recorded seq_no.
func naiveDMHP(recs []node, seq map[uint32]int32, a, b uint32) bool {
	if a == b {
		return false
	}
	l := naiveLCA(recs, a, b)
	ca, cb := childToward(recs, l, a), childToward(recs, l, b)
	if ca == 0 || cb == 0 {
		return false
	}
	left := ca
	if seq[cb] < seq[ca] {
		left = cb
	}
	return recs[left].kind() == AsyncNode
}

// TestQuickLCAAgainstNaive: Relation's LCA depth must equal the depth of
// the ancestor-set LCA for every node pair of random, deep and wide trees.
func TestQuickLCAAgainstNaive(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		for _, tr := range quickTrees(seed) {
			a := tr.nodes[int(ai)%len(tr.nodes)]
			b := tr.nodes[int(bi)%len(tr.nodes)]
			if _, d := relation(tr.t, a, b); d != tr.recs[naiveLCA(tr.recs, a, b)].depth() {
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
			if dmhp(tr.t, a, b) != naiveDMHP(tr.recs, tr.seq, a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDMHPExhaustive: on one seeded random tree of 4 096 nodes, every
// pair of steps gets from DMHP the answer and the side that the steps'
// materialized root paths give: the LCA is the last node the two paths
// share, the sides the nodes after it.
func TestDMHPExhaustive(t *testing.T) {
	tr := randomTree(46, 4096)
	paths := map[uint32][]uint32{} // root first
	var steps []uint32
	for _, n := range tr.nodes {
		if tr.t.Kind(n) != StepNode {
			continue
		}
		var path []uint32
		for a := n; a != 0; a = tr.recs[a].parent {
			path = append([]uint32{a}, path...)
		}
		paths[n] = append([]uint32{0}, path...)
		steps = append(steps, n)
	}
	if len(steps) < 1000 {
		t.Fatalf("%d steps, want at least 1000", len(steps))
	}
	for _, a := range steps {
		for _, s := range steps {
			pa, ps := paths[a], paths[s]
			l := 0
			for l+1 < len(pa) && l+1 < len(ps) && pa[l+1] == ps[l+1] {
				l++
			}
			wantPar, wantSide := false, uint32(0)
			if l+1 < len(pa) && l+1 < len(ps) {
				ca, cs := pa[l+1], ps[l+1]
				left := ca
				if tr.seq[cs] < tr.seq[ca] {
					left = cs
				}
				wantPar, wantSide = tr.recs[left].kind() == AsyncNode, ca
			}
			if p, side := tr.t.DMHP(a, s); p != wantPar || side != wantSide {
				t.Fatalf("DMHP(%s, %s) = (%v, %d), the root paths give (%v, %d)", tr.t.Name(a), tr.t.Name(s), p, side, wantPar, wantSide)
			}
		}
	}
}

// TestQuickDMHPSymmetric: DMHP is symmetric and irreflexive on any tree.
func TestQuickDMHPSymmetric(t *testing.T) {
	check := func(seed int64, ai, bi uint16) bool {
		tr := randomTree(seed, 80)
		a := tr.nodes[int(ai)%len(tr.nodes)]
		b := tr.nodes[int(bi)%len(tr.nodes)]
		if a == b {
			return !dmhp(tr.t, a, b)
		}
		return dmhp(tr.t, a, b) == dmhp(tr.t, b, a)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPathInvariants: depth equals root-path length, and under every
// parent the order of ids — what DMHP calls left-of — is the order of
// the recorded sequence numbers.
func TestQuickPathInvariants(t *testing.T) {
	check := func(seed int64) bool {
		for _, tr := range []*seqTree{randomTree(seed, 150), diffTree(seed, 160, 24, 9)} {
			for _, n := range tr.nodes {
				d := int32(0)
				for p := tr.t.Node(n).Parent(); p != nil; p = p.Parent() {
					d++
				}
				if d != tr.t.Depth(n) {
					return false
				}
				for _, m := range tr.nodes {
					if m != 0 && n != 0 && tr.recs[m].parent == tr.recs[n].parent && (m < n) != (tr.seq[m] < tr.seq[n]) {
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
// the ancestor-set LCA; and a side is 0 exactly when one node is the
// other or its ancestor.
func TestSideRuleMatchesLCADepths(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, tr := range quickTrees(seed) {
			var steps []uint32
			for _, n := range tr.nodes {
				if tr.t.Kind(n) == StepNode {
					steps = append(steps, n)
				}
			}
			lcaDepth := map[[2]uint32]int32{}
			for _, a := range tr.nodes {
				for _, b := range tr.nodes {
					l := naiveLCA(tr.recs, a, b)
					lcaDepth[[2]uint32{a, b}] = tr.recs[l].depth()
					if _, side := tr.t.DMHP(a, b); (side == 0) != (l == a || l == b) {
						t.Fatalf("seed %d: DMHP(%d, %d) side = %d, LCA %d", seed, a, b, side, l)
					}
				}
			}
			for _, s := range steps {
				var par, sides []uint32 // the steps parallel with s, and their sides
				for _, r := range steps {
					if p, side := tr.t.DMHP(r, s); p {
						par, sides = append(par, r), append(sides, side)
					}
				}
				for i, r1 := range par {
					for j, r2 := range par {
						above := lcaDepth[[2]uint32{r1, s}] < lcaDepth[[2]uint32{r1, r2}]
						if (sides[i] == sides[j]) != above {
							t.Fatalf("seed %d: r1 %d, r2 %d, s %d: same side %v, LCA(r1, s) above LCA(r1, r2) %v",
								seed, r1, r2, s, sides[i] == sides[j], above)
						}
					}
				}
			}
		}
	}
}
