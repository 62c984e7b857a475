package dpst

import (
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"spd3/internal/ids"
)

// fig1 builds the DPST of the paper's Figure 1 example by hand:
//
//	finish {            // F1 (root)
//	    S1; S2;         // step1
//	    async {         // A1
//	        S3; S4; S5; // step2
//	        async {     // A2
//	            S6;     // step3
//	        }
//	        S7; S8;     // step4
//	    }
//	    S9; S10; S11;   // step5
//	    async {         // A3
//	        S12; S13;   // step6
//	    }
//	}
type fig1 struct {
	t                      *Tree
	f1, a1, a2, a3         uint32
	s1, s2, s3, s4, s5, s6 uint32
}

func buildFig1() fig1 {
	t := New()
	f := fig1{t: t}
	add := func(parent uint32, kind Kind) uint32 { return t.NewChildFrom(nil, parent, kind) }
	f.s1 = add(f.f1, StepNode)
	f.a1 = add(f.f1, AsyncNode)
	f.s2 = add(f.a1, StepNode)
	f.s5 = add(f.f1, StepNode) // continuation of main after A1
	f.a2 = add(f.a1, AsyncNode)
	f.s3 = add(f.a2, StepNode)
	f.s4 = add(f.a1, StepNode) // continuation of A1 after A2
	f.a3 = add(f.f1, AsyncNode)
	f.s6 = add(f.a3, StepNode)
	return f
}

// dmhp is the parallelism half of DMHP: Algorithm 3. A step never runs in
// parallel with itself.
func dmhp(t *Tree, a, b uint32) bool {
	parallel, _ := t.DMHP(a, b)
	return parallel
}

// relation is Relation on the handles of a and b.
func relation(t *Tree, a, b uint32) (bool, int32) { return Relation(t.Node(a), t.Node(b)) }

// siblingRank is the paper's seq_no, which no node stores: n's position
// among its siblings, from 1, left to right (0 for the root), counted over
// the arena.
func siblingRank(t *Tree, n uint32) int32 {
	rank := int32(0)
	for id := uint32(1); id <= n; id++ {
		if t.Parent(id) == t.Parent(n) {
			rank++
		}
	}
	return rank
}

func TestNewChildAssignsStructure(t *testing.T) {
	f := buildFig1()
	if f.t.Depth(f.f1) != 0 || f.t.Root().Parent() != nil || f.t.Kind(f.f1) != FinishNode {
		t.Fatalf("root = depth %d parent %v kind %v", f.t.Depth(f.f1), f.t.Root().Parent(), f.t.Kind(f.f1))
	}
	checks := []struct {
		n      uint32
		parent uint32
		depth  int32
		seq    int32
	}{
		{f.s1, f.f1, 1, 1},
		{f.a1, f.f1, 1, 2},
		{f.s5, f.f1, 1, 3},
		{f.a3, f.f1, 1, 4},
		{f.s2, f.a1, 2, 1},
		{f.a2, f.a1, 2, 2},
		{f.s4, f.a1, 2, 3},
		{f.s3, f.a2, 3, 1},
		{f.s6, f.a3, 2, 1},
	}
	for _, c := range checks {
		if got := f.t.Parent(c.n); got != c.parent {
			t.Errorf("%s: parent = %s, want %s", f.t.Name(c.n), f.t.Name(got), f.t.Name(c.parent))
		}
		if got := f.t.Depth(c.n); got != c.depth {
			t.Errorf("%s: depth = %d, want %d", f.t.Name(c.n), got, c.depth)
		}
		if got := siblingRank(f.t, c.n); got != c.seq {
			t.Errorf("%s: seq = %d, want %d", f.t.Name(c.n), got, c.seq)
		}
	}
	if f.t.Len() != 10 {
		t.Errorf("tree has %d nodes, want 10", f.t.Len())
	}
}

// TestLCA: Relation's second answer is the depth of the least common
// ancestor, in either operand order.
func TestLCA(t *testing.T) {
	f := buildFig1()
	cases := []struct {
		a, b, want uint32
	}{
		{f.s2, f.s5, f.f1},
		{f.s6, f.s5, f.f1},
		{f.s3, f.s4, f.a1},
		{f.s2, f.s3, f.a1},
		{f.s3, f.s6, f.f1},
		{f.s1, f.s1, f.s1},
		{f.s3, f.f1, f.f1},
	}
	for _, c := range cases {
		want := f.t.Depth(c.want)
		if _, got := relation(f.t, c.a, c.b); got != want {
			t.Errorf("Relation(%d, %d) LCA depth = %d, want %d (%d)", c.a, c.b, got, want, c.want)
		}
		if _, got := relation(f.t, c.b, c.a); got != want {
			t.Errorf("Relation(%d, %d) LCA depth = %d, want %d (%d)", c.b, c.a, got, want, c.want)
		}
	}
}

// TestRelateChildren pins the §5.2 walk under DMHP and Relation: the
// child of the LCA on each path, either operand first, and the LCA's
// depth.
func TestRelateChildren(t *testing.T) {
	f := buildFig1()
	for _, c := range []struct {
		a, b, sideA, sideB uint32
		parallel           bool
	}{
		{f.s3, f.s5, f.a1, f.s5, true},
		{f.s3, f.s4, f.a2, f.s4, true},
		{f.s5, f.s6, f.s5, f.a3, false},
		{f.s3, f.f1, 0, 0, false}, // the root: one node is the other's ancestor
		{f.s3, f.a1, 0, 0, false}, // an ancestor below the root
	} {
		if p, side := f.t.DMHP(c.a, c.b); p != c.parallel || side != c.sideA {
			t.Errorf("DMHP(%s, %s) = (%v, %d), want (%v, %d)", f.t.Name(c.a), f.t.Name(c.b), p, side, c.parallel, c.sideA)
		}
		if p, side := f.t.DMHP(c.b, c.a); p != c.parallel || side != c.sideB {
			t.Errorf("DMHP(%s, %s) = (%v, %d), want (%v, %d)", f.t.Name(c.b), f.t.Name(c.a), p, side, c.parallel, c.sideB)
		}
	}
	if _, d := relation(f.t, f.s3, f.s5); d != f.t.Depth(f.f1) {
		t.Errorf("Relation(s3, s5) LCA depth %d, want f1's %d", d, f.t.Depth(f.f1))
	}
}

func TestDMHPPaperExamples(t *testing.T) {
	f := buildFig1()
	// The two worked examples from §3.2.
	if !dmhp(f.t, f.s2, f.s5) {
		t.Error("DMHP(step2, step5) = false, want true (A1 is async)")
	}
	if dmhp(f.t, f.s6, f.s5) {
		t.Error("DMHP(step6, step5) = true, want false (step5 precedes A3)")
	}
}

func TestDMHPMatrix(t *testing.T) {
	f := buildFig1()
	// Full pairwise truth table over the six steps of Figure 1,
	// derived from the program: steps of A1/A2 run in parallel with
	// everything after the A1 spawn except what A1 itself ordered;
	// step5 precedes A3; A3 is parallel with A1's subtree.
	steps := []uint32{f.s1, f.s2, f.s3, f.s4, f.s5, f.s6}
	names := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	want := map[string]bool{
		"s2|s5": true, "s3|s5": true, "s4|s5": true, // A1 subtree vs continuation
		"s2|s6": true, "s3|s6": true, "s4|s6": true, // A1 subtree vs A3
		"s3|s4": true, // A2 vs A1's continuation
	}
	for i, a := range steps {
		for j, b := range steps {
			k1 := names[i] + "|" + names[j]
			k2 := names[j] + "|" + names[i]
			expect := want[k1] || want[k2]
			if got := dmhp(f.t, a, b); got != expect {
				t.Errorf("DMHP(%s, %s) = %v, want %v", names[i], names[j], got, expect)
			}
		}
	}
}

func TestDMHPDegenerate(t *testing.T) {
	f := buildFig1()
	s1 := f.t.Node(f.s1)
	if p, d := Relation(nil, s1); p || d != -1 {
		t.Errorf("Relation(nil, s1) = (%v, %d), want (false, -1)", p, d)
	}
	if p, d := Relation(s1, nil); p || d != -1 {
		t.Errorf("Relation(s1, nil) = (%v, %d), want (false, -1)", p, d)
	}
	if p, d := Relation(nil, nil); p || d != -1 {
		t.Errorf("Relation(nil, nil) = (%v, %d), want (false, -1)", p, d)
	}
	if dmhp(f.t, f.s1, f.s1) {
		t.Error("DMHP(s, s) must be false")
	}
	if p, side := f.t.DMHP(f.s3, f.a1); p || side != 0 {
		t.Errorf("DMHP(s3, its ancestor a1) = (%v, %d), want (false, 0)", p, side)
	}
}

func TestNodeCountFormula(t *testing.T) {
	// §5.3: total nodes = 3*(a+f) - 1 for a async and f finish
	// instances, when every async/finish is followed by a continuation.
	// Figure 1 omits trailing continuations, so check the runtime-built
	// shape instead in package core; here verify the base case: one
	// finish alone has one step child.
	tr := New()
	tr.NewChildFrom(nil, 0, StepNode)
	if got, want := tr.Len(), int64(2); got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
}

// TestNodeIsEightBytes pins the record at what DMHP reads: the parent's
// id and depth with the kind folded in, nothing else and no pointer — so
// the garbage collector never scans a chunk.
func TestNodeIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != NodeBytes || NodeBytes != 8 {
		t.Fatalf("unsafe.Sizeof(node{}) = %d, NodeBytes = %d, want both 8", got, NodeBytes)
	}
	if got := unsafe.Sizeof(chunk{}); got > 64<<10 {
		t.Fatalf("an arena chunk is %d bytes, want at most 64 KiB", got)
	}
}

// TestUnplacedID: an id a block handed out and nobody placed reads as the
// zero record, like the root's; Placed tells them apart, and the handle of
// an unplaced id, like the root's, has no parent.
func TestUnplacedID(t *testing.T) {
	tr := New()
	scope := tr.NewChildFrom(nil, 0, AsyncNode)
	var b ids.Block
	step := tr.NewChildFrom(&b, scope, StepNode)
	tr.NewChildFrom(nil, scope, StepNode) // above the block: its remainder stays unplaced
	b.Release()
	if !tr.Placed(0) || !tr.Placed(scope) || !tr.Placed(step) {
		t.Fatalf("Placed(root, scope, step) = %v, %v, %v; want all true", tr.Placed(0), tr.Placed(scope), tr.Placed(step))
	}
	unplaced := step + 1
	if tr.Placed(unplaced) || int64(unplaced) >= tr.Len() {
		t.Fatalf("id %d, below Len %d and never placed, reads as Placed", unplaced, tr.Len())
	}
	if p := tr.Node(unplaced).Parent(); p != nil {
		t.Errorf("the handle of unplaced id %d has parent %v, want nil", unplaced, p)
	}
	if p := tr.Root().Parent(); p != nil {
		t.Errorf("the root's handle has parent %v, want nil", p)
	}
	if p := tr.Node(step).Parent(); p == nil || p.ID != scope {
		t.Errorf("the handle of step %d has parent %v, want async#%d", step, p, scope)
	}
}

// TestInsertionLeavesPublishedNodesUntouched: a node is written by the
// insertion that creates it and never again — NewChildFrom and SpawnFrom
// under a scope change no byte of the scope or of the children it
// already has.
func TestInsertionLeavesPublishedNodesUntouched(t *testing.T) {
	tr := New()
	scope := tr.NewChildFrom(nil, 0, FinishNode)
	published := []uint32{0, scope, tr.NewChildFrom(nil, scope, StepNode), tr.NewChildFrom(nil, scope, AsyncNode)}
	var before []node
	for _, n := range published {
		before = append(before, tr.at(n))
	}
	var b ids.Block
	tr.NewChildFrom(nil, scope, StepNode)
	tr.SpawnFrom(&b, scope)
	tr.NewChildFrom(&b, scope, FinishNode)
	for i, n := range published {
		if got := tr.at(n); got != before[i] {
			t.Errorf("%s changed under insertion: %+v, was %+v", tr.Name(n), got, before[i])
		}
	}
}

// TestNewChildIsConstantAtDepth: insertion under a depth-512 chain costs
// what it costs near the root — no allocation but the arena's, one chunk
// per chunkNodes calls — whether the id comes from the shared counter or
// from a block. The table is grown up front, past every chunk the test
// fills, so only insertion is counted; TestChunkAllocatedOnce bounds the
// growth.
func TestNewChildIsConstantAtDepth(t *testing.T) {
	for _, depth := range []int{8, 512} {
		for _, blocks := range []bool{false, true} {
			tr := New()
			tr.allocChunk(63)
			parent := uint32(0)
			for i := 0; i < depth; i++ {
				parent = tr.NewChildFrom(nil, parent, FinishNode)
			}
			var b *ids.Block
			if blocks {
				b = new(ids.Block)
			}
			const chunks = 3
			got := testing.AllocsPerRun(1, func() {
				for i := 0; i < chunks*chunkNodes; i++ {
					sinkID = tr.NewChildFrom(b, parent, StepNode)
				}
			})
			if got > chunks {
				t.Errorf("depth %d, block %v: %v allocations in %d chunks of insertions, want at most one per chunk", depth, blocks, got, chunks)
			}
		}
	}
}

// TestNodeResolvesID: ids are creation order from root = 0 on both sides
// of a chunk boundary, each resolves to the record its insertion wrote,
// and a report string is kind#id, from the tree or from a handle.
func TestNodeResolvesID(t *testing.T) {
	tr := New()
	if tr.Root().ID != 0 || tr.Kind(0) != FinishNode || tr.Depth(0) != 0 {
		t.Fatalf("root = %v, depth %d", tr.Root(), tr.Depth(0))
	}
	scope := tr.NewChildFrom(nil, 0, AsyncNode)
	nodes := []uint32{0, scope}
	for i := 0; i < chunkNodes+10; i++ {
		nodes = append(nodes, tr.NewChildFrom(nil, scope, StepNode))
	}
	for i, n := range nodes[2:] {
		if n != uint32(i+2) || tr.Parent(n) != scope || tr.Kind(n) != StepNode || tr.Depth(n) != 2 {
			t.Fatalf("node %d: id %d, %s under %d at depth %d", i+2, n, tr.Name(n), tr.Parent(n), tr.Depth(n))
		}
	}
	if got := tr.Name(nodes[chunkNodes+1]); got != "step#4097" {
		t.Errorf("Name = %q, want step#4097", got)
	}
	if got := tr.Node(scope).String(); got != "async#1" {
		t.Errorf("String() = %q, want async#1", got)
	}
}

// TestSpawnIsThreeNewChildren: SpawnFrom, under one owner, builds what
// §3.1's three insertions build — same ids (hence sibling order),
// parents, depths and kinds — on both sides of a chunk boundary, and once
// its block is released the tree is as long.
func TestSpawnIsThreeNewChildren(t *testing.T) {
	one, three := New(), New()
	s1 := one.NewChildFrom(nil, 0, FinishNode)
	s3 := three.NewChildFrom(nil, 0, FinishNode)
	var b ids.Block
	for i := 0; i < chunkNodes/2; i++ {
		c1, k1 := one.SpawnFrom(&b, s1)
		a1 := one.Parent(c1)
		a3 := three.NewChildFrom(nil, s3, AsyncNode)
		c3 := three.NewChildFrom(nil, a3, StepNode)
		k3 := three.NewChildFrom(nil, s3, StepNode)
		for _, p := range [][2]uint32{{a1, a3}, {c1, c3}, {k1, k3}} {
			got, want := p[0], p[1]
			if got != want || one.at(got) != three.at(want) {
				t.Fatalf("spawn %d: SpawnFrom made %s %+v, NewChildFrom made %s %+v",
					i, one.Name(got), one.at(got), three.Name(want), three.at(want))
			}
		}
		s1, s3 = a1, a3 // nest, so depth and scope vary too
	}
	b.Release()
	if one.Len() != three.Len() || one.Bytes() != three.Bytes() {
		t.Fatalf("Len = %d and Bytes = %d with SpawnFrom, %d and %d with NewChildFrom", one.Len(), one.Bytes(), three.Len(), three.Bytes())
	}
}

// TestArenaConcurrentAlloc: tasks inserting in parallel from the shared
// counter, each under its own scope as the ownership discipline requires,
// across several chunk boundaries: ids are dense and unique, every id
// resolves to the record its insertion wrote, and the accounting is
// exact.
func TestArenaConcurrentAlloc(t *testing.T) {
	const (
		workers = 8
		perTask = 3*chunkNodes/workers + 17 // together: past three chunk boundaries
	)
	tr := New()
	scopes := make([]uint32, workers)
	for w := range scopes {
		scopes[w] = tr.NewChildFrom(nil, 0, AsyncNode)
	}
	made := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := []Kind{StepNode, FinishNode, AsyncNode}[w%3]
			for i := 0; i < perTask; i++ {
				made[w] = append(made[w], tr.NewChildFrom(nil, scopes[w], kind))
			}
		}(w)
	}
	wg.Wait()

	total := int64(1 + workers + workers*perTask)
	if tr.Len() != total || tr.Bytes() != total*NodeBytes {
		t.Fatalf("Len = %d, Bytes = %d, want %d nodes, %d bytes", tr.Len(), tr.Bytes(), total, total*NodeBytes)
	}
	seen := make([]bool, total)
	for w, nodes := range made {
		kind := []Kind{StepNode, FinishNode, AsyncNode}[w%3]
		for i, n := range nodes {
			if int64(n) >= total || seen[n] {
				t.Fatalf("worker %d child %d: id %d out of range or handed out twice", w, i, n)
			}
			seen[n] = true
			if tr.Parent(n) != scopes[w] || tr.Depth(n) != 2 || tr.Kind(n) != kind {
				t.Fatalf("worker %d child %d = {parent %d depth %d kind %v}, want {%d 2 %v}",
					w, i, tr.Parent(n), tr.Depth(n), tr.Kind(n), scopes[w], kind)
			}
			// A scope's children, by id, are in the order their one
			// owner created them: the sibling order DMHP uses.
			if i > 0 && n <= nodes[i-1] {
				t.Fatalf("worker %d: ids not in creation order: %d then %d", w, nodes[i-1], n)
			}
		}
	}
	for id := 0; id <= workers; id++ {
		seen[id] = true // the root and the scopes
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("id %d was never handed out: ids are not dense", id)
		}
	}
}

// chunksAllocated counts the chunks the tree's table lists.
func chunksAllocated(tr *Tree) int {
	n := 0
	tab := *tr.tab.Load()
	for c := range tab {
		if tab[c].Load() != nil {
			n++
		}
	}
	return n
}

// TestIDExhaustionPanics: the insertion that would need a 33-bit id panics
// and says why; the ones before it succeed, touching only the last chunk.
func TestIDExhaustionPanics(t *testing.T) {
	tr := New()
	tr.count.Set(maxNodes - 2)
	func() {
		defer func() {
			if recover() == nil || tr.Len() != maxNodes-2 {
				t.Errorf("SpawnFrom with two ids left: want a panic and nothing inserted; Len = %d", tr.Len())
			}
		}()
		var b ids.Block
		tr.SpawnFrom(&b, 0)
	}()
	for _, want := range []uint32{math.MaxUint32 - 1, math.MaxUint32} {
		if n := tr.NewChildFrom(nil, 0, StepNode); n != want || tr.Parent(n) != 0 || tr.Kind(n) != StepNode {
			t.Fatalf("NewChildFrom near the limit: id = %d, want %d", n, want)
		}
	}
	if got, want := len(*tr.tab.Load()), maxChunks; got != want {
		t.Errorf("the table lists %d chunks, want %d", got, want)
	}
	if chunks := chunksAllocated(tr); chunks != 2 {
		t.Errorf("%d chunks allocated, want 2 (the root's and the last)", chunks)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "dpst:") || !strings.Contains(msg, "2^32 nodes") {
			t.Errorf("panic = %q, want a dpst: message naming the 2^32 node limit", msg)
		}
		if tr.Len() != maxNodes {
			t.Errorf("Len after the refused insertion = %d, want %d", tr.Len(), int64(maxNodes))
		}
	}()
	tr.NewChildFrom(nil, 0, StepNode)
	t.Error("NewChildFrom past 2^32 nodes returned")
}

// TestIDExhaustionPanicsFromBlock is TestIDExhaustionPanics on the block
// path: near 2^32 a refill cannot draw a whole block, so it draws exactly
// the ids the insertion needs, extending the block where it can; the
// insertion that would need a 33-bit id panics the same way, inserting
// nothing.
func TestIDExhaustionPanicsFromBlock(t *testing.T) {
	tr := New()
	tr.count.Set(maxNodes - 4)
	var b ids.Block
	refused := func(what string, insert func()) {
		t.Helper()
		size := tr.Len()
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, "dpst:") || !strings.Contains(msg, "2^32 nodes") {
				t.Errorf("%s: panic = %q, want a dpst: message naming the 2^32 node limit", what, msg)
			}
			if tr.Len() != size {
				t.Errorf("%s: Len = %d after the refused insertion, want %d", what, tr.Len(), size)
			}
		}()
		insert()
		t.Errorf("%s returned", what)
	}
	child, cont := tr.SpawnFrom(&b, 0)
	if tr.Parent(child) != math.MaxUint32-3 || cont != math.MaxUint32-1 || tr.Len() != maxNodes-1 {
		t.Fatalf("SpawnFrom with four ids left: async %d, continuation %d, Len %d", tr.Parent(child), cont, tr.Len())
	}
	refused("SpawnFrom with one id left", func() { tr.SpawnFrom(&b, 0) })
	if n := tr.NewChildFrom(&b, 0, StepNode); n != math.MaxUint32 || tr.Kind(n) != StepNode || tr.Parent(n) != 0 {
		t.Fatalf("NewChildFrom with one id left: id = %d, want %d", n, uint32(math.MaxUint32))
	}
	refused("NewChildFrom past 2^32 nodes", func() { tr.NewChildFrom(&b, 0, StepNode) })
}

// TestDepthExhaustionPanics: depths are 30 bits. Insertions that reach
// depth 2^30 - 1 succeed; one that would need depth 2^30 panics, says why,
// and inserts nothing.
func TestDepthExhaustionPanics(t *testing.T) {
	tr := New()
	parent := tr.NewChildFrom(nil, 0, FinishNode)
	tr.slot(parent).depthKind = (maxDepth-1)<<kindBits | uint32(FinishNode)
	deepest := tr.NewChildFrom(nil, parent, FinishNode)
	if s := tr.NewChildFrom(nil, parent, StepNode); tr.Depth(deepest) != maxDepth || tr.Depth(s) != maxDepth || tr.Parent(s) != parent {
		t.Fatalf("children of a depth 2^30-2 node at depth %d and %d, want %d", tr.Depth(deepest), tr.Depth(s), maxDepth)
	}
	size := tr.Len()
	for name, insert := range map[string]func(){
		"NewChildFrom under the deepest node":    func() { tr.NewChildFrom(nil, deepest, StepNode) },
		"NewChildFrom a block under the deepest": func() { tr.NewChildFrom(new(ids.Block), deepest, StepNode) },
		"SpawnFrom under the deepest node":       func() { tr.SpawnFrom(new(ids.Block), deepest) },
		"SpawnFrom one level above it":           func() { tr.SpawnFrom(new(ids.Block), parent) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "dpst: tree is too deep") || !strings.Contains(msg, "30 bits") {
					t.Errorf("%s: panic = %q, want a dpst: message naming the 30-bit depth limit", name, msg)
				}
				if tr.Len() != size {
					t.Errorf("%s: Len = %d after the refused insertion, want %d", name, tr.Len(), size)
				}
			}()
			insert()
			t.Errorf("%s returned", name)
		}()
	}
}

// TestBytesAccounting: the analytic size is nodes × NodeBytes whatever
// the shape — flat, a deep chain, or fan-out past 16 383 siblings.
func TestBytesAccounting(t *testing.T) {
	flat := New()
	for i := 0; i < 9; i++ {
		flat.NewChildFrom(nil, 0, StepNode)
	}
	if got, want := flat.Bytes(), int64(10*NodeBytes); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	deep := New()
	n := uint32(0)
	for i := 0; i < 512; i++ {
		n = deep.NewChildFrom(nil, n, AsyncNode)
	}
	wide := New()
	for i := 0; i < 16400; i++ {
		wide.NewChildFrom(nil, 0, AsyncNode)
	}
	for name, tr := range map[string]*Tree{"deep": deep, "wide": wide} {
		if tr.Bytes() != tr.Len()*NodeBytes {
			t.Errorf("%s tree: Bytes = %d, want Len %d × %d", name, tr.Bytes(), tr.Len(), NodeBytes)
		}
	}
}
