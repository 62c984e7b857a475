package dpst

import (
	"testing"
	"unsafe"
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
	f1, a1, a2, a3         *Node
	s1, s2, s3, s4, s5, s6 *Node
}

func buildFig1() fig1 {
	t := New()
	f := fig1{t: t, f1: t.Root()}
	f.s1 = t.NewChild(f.f1, StepNode)
	f.a1 = t.NewChild(f.f1, AsyncNode)
	f.s2 = t.NewChild(f.a1, StepNode)
	f.s5 = t.NewChild(f.f1, StepNode) // continuation of main after A1
	f.a2 = t.NewChild(f.a1, AsyncNode)
	f.s3 = t.NewChild(f.a2, StepNode)
	f.s4 = t.NewChild(f.a1, StepNode) // continuation of A1 after A2
	f.a3 = t.NewChild(f.f1, AsyncNode)
	f.s6 = t.NewChild(f.a3, StepNode)
	return f
}

// dmhp is the parallelism half of Relation: Algorithm 3.
func dmhp(a, b *Node) bool {
	parallel, _ := Relation(a, b)
	return parallel
}

func TestNewChildAssignsStructure(t *testing.T) {
	f := buildFig1()
	if f.f1.Depth != 0 || f.f1.Seq != 0 || f.f1.Kind != FinishNode {
		t.Fatalf("root = depth %d seq %d kind %v", f.f1.Depth, f.f1.Seq, f.f1.Kind)
	}
	checks := []struct {
		n      *Node
		parent *Node
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
		if c.n.Parent != c.parent {
			t.Errorf("%v: parent = %v, want %v", c.n, c.n.Parent, c.parent)
		}
		if c.n.Depth != c.depth {
			t.Errorf("%v: depth = %d, want %d", c.n, c.n.Depth, c.depth)
		}
		if c.n.Seq != c.seq {
			t.Errorf("%v: seq = %d, want %d", c.n, c.n.Seq, c.seq)
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
		a, b, want *Node
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
		if _, got := Relation(c.a, c.b); got != c.want.Depth {
			t.Errorf("Relation(%v, %v) LCA depth = %d, want %d (%v)", c.a, c.b, got, c.want.Depth, c.want)
		}
		if _, got := Relation(c.b, c.a); got != c.want.Depth {
			t.Errorf("Relation(%v, %v) LCA depth = %d, want %d (%v)", c.b, c.a, got, c.want.Depth, c.want)
		}
	}
}

// TestRelateChildren pins the §5.2 walk under Relation: the LCA node and
// its child on each path.
func TestRelateChildren(t *testing.T) {
	f := buildFig1()
	lca, ca, cb := relateWalk(f.s3, f.s5)
	if lca != f.f1 || ca != f.a1 || cb != f.s5 {
		t.Errorf("relateWalk(s3, s5) = (%v, %v, %v), want (f1, a1, s5)", lca, ca, cb)
	}
	lca, ca, cb = relateWalk(f.s3, f.f1)
	if lca != f.f1 || ca != f.a1 || cb != nil {
		t.Errorf("relateWalk(s3, f1) = (%v, %v, %v), want (f1, a1, nil)", lca, ca, cb)
	}
}

func TestDMHPPaperExamples(t *testing.T) {
	f := buildFig1()
	// The two worked examples from §3.2.
	if !dmhp(f.s2, f.s5) {
		t.Error("DMHP(step2, step5) = false, want true (A1 is async)")
	}
	if dmhp(f.s6, f.s5) {
		t.Error("DMHP(step6, step5) = true, want false (step5 precedes A3)")
	}
}

func TestDMHPMatrix(t *testing.T) {
	f := buildFig1()
	// Full pairwise truth table over the six steps of Figure 1,
	// derived from the program: steps of A1/A2 run in parallel with
	// everything after the A1 spawn except what A1 itself ordered;
	// step5 precedes A3; A3 is parallel with A1's subtree.
	steps := []*Node{f.s1, f.s2, f.s3, f.s4, f.s5, f.s6}
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
			if got := dmhp(a, b); got != expect {
				t.Errorf("DMHP(%s, %s) = %v, want %v", names[i], names[j], got, expect)
			}
		}
	}
}

func TestDMHPDegenerate(t *testing.T) {
	f := buildFig1()
	if dmhp(nil, f.s1) || dmhp(f.s1, nil) || dmhp(nil, nil) {
		t.Error("DMHP with nil operand must be false")
	}
	if dmhp(f.s1, f.s1) {
		t.Error("DMHP(s, s) must be false")
	}
}

func TestNodeCountFormula(t *testing.T) {
	// §5.3: total nodes = 3*(a+f) - 1 for a async and f finish
	// instances, when every async/finish is followed by a continuation.
	// Figure 1 omits trailing continuations, so check the runtime-built
	// shape instead in package core; here verify the base case: one
	// finish alone has one step child.
	tr := New()
	tr.NewChild(tr.Root(), StepNode)
	if got, want := tr.Len(), int64(2); got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
}

// TestNodeIsThirtyTwoBytes pins the paper's node: parent, depth, seq_no
// and kind, plus the child counter and the report ID, and nothing else.
func TestNodeIsThirtyTwoBytes(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != NodeBytes || NodeBytes != 32 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, NodeBytes = %d, want both 32", got, NodeBytes)
	}
}

// TestNewChildIsConstantAtDepth: insertion under a depth-512 chain costs
// what it costs under the root — one allocation, the node itself.
func TestNewChildIsConstantAtDepth(t *testing.T) {
	tr := New()
	parent := tr.Root()
	for i := 0; i < 512; i++ {
		parent = tr.NewChild(parent, FinishNode)
	}
	if got := testing.AllocsPerRun(100, func() { sinkNode = tr.NewChild(parent, StepNode) }); got != 1 {
		t.Fatalf("NewChild at depth 512: %v allocations per call, want 1", got)
	}
}

// TestBytesAccounting: the analytic size is nodes × NodeBytes whatever
// the shape — flat, a deep chain, or fan-out past 16 383 siblings.
func TestBytesAccounting(t *testing.T) {
	flat := New()
	for i := 0; i < 9; i++ {
		flat.NewChild(flat.Root(), StepNode)
	}
	if got, want := flat.Bytes(), int64(10*NodeBytes); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	deep := New()
	n := deep.Root()
	for i := 0; i < 512; i++ {
		n = deep.NewChild(n, AsyncNode)
	}
	wide := New()
	for i := 0; i < 16400; i++ {
		wide.NewChild(wide.Root(), AsyncNode)
	}
	for name, tr := range map[string]*Tree{"deep": deep, "wide": wide} {
		if tr.Bytes() != tr.Len()*NodeBytes {
			t.Errorf("%s tree: Bytes = %d, want Len %d × %d", name, tr.Bytes(), tr.Len(), NodeBytes)
		}
	}
}
