// Package dpst implements the Dynamic Program Structure Tree of Raman et
// al. (PLDI 2012, §3 and §5.1).
//
// The DPST is an ordered rooted tree built during execution of an
// async/finish program. Interior nodes are dynamic async and finish
// instances; leaves are steps (maximal computation sequences containing no
// task operation). Siblings are ordered left to right by creation order,
// which mirrors the sequential order of the computations in their common
// parent scope.
//
// The tree answers the one query race detection needs, Relation: whether
// two steps may happen in parallel — DMHP, Theorem 1: S1 (left) and S2
// may run in parallel iff the ancestor of S1 that is a child of
// LCA(S1,S2) is an async node — and the depth of their least common
// ancestor, which Algorithm 2 compares to pick the two readers to keep.
// It is answered the way §5.2 does: walk the parent pointers up to the
// LCA, O(distance to the LCA) — four to seven hops for every query the
// committed workloads issue, whatever the tree's depth.
//
// Concurrency. As in the paper's implementation (§5.1), no node field
// requires synchronization: Parent, Depth, Seq, and Kind are written once
// at creation and are immutable afterwards; the child counter of a node is
// only ever advanced by the single task that owns that scope, because a
// task appends new children either under a finish it itself started or
// under its own async node. Nodes become visible to other tasks only via
// the scheduler's task hand-off or the detector's atomic shadow-word
// stores, both of which establish the necessary happens-before edges.
package dpst

import (
	"fmt"
	"sync/atomic"
)

// Kind discriminates DPST node types.
type Kind uint8

const (
	// FinishNode represents a dynamic finish instance, including the
	// implicit finish that encloses main.
	FinishNode Kind = iota
	// AsyncNode represents a dynamic async (task) instance.
	AsyncNode
	// StepNode represents a step; steps are exactly the leaves.
	StepNode
)

func (k Kind) String() string {
	switch k {
	case FinishNode:
		return "finish"
	case AsyncNode:
		return "async"
	case StepNode:
		return "step"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node is one DPST node. All exported fields are immutable after creation
// (§5.1: parent, depth and seq_no are written only on initialization).
type Node struct {
	Parent *Node
	Depth  int32
	Seq    int32 // position among siblings, from 1, left to right
	Kind   Kind

	// nchildren counts this node's children so far. Only the task that
	// owns this scope appends children, so plain (non-atomic) access is
	// safe; see the package comment. (Placed here to share Kind's
	// padding hole; see NodeBytes.)
	nchildren int32

	ID int64 // unique per tree, in creation order; for reports
}

// NodeBytes is the heap size of one Node, used for the analytic
// footprint accounting that reproduces the paper's Table 3: 32 bytes
// with padding (nchildren sits in Kind's padding hole).
const NodeBytes = 32

// String renders a node as e.g. "step#17" for race reports.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s#%d", n.Kind, n.ID)
}

// Tree is a DPST under construction. The zero value is not usable; call
// New.
type Tree struct {
	root  *Node
	count atomic.Int64 // nodes so far; also the next ID
}

// New creates a tree containing only the root finish node, which
// corresponds to the implicit finish enclosing the program's main body.
func New() *Tree {
	t := &Tree{}
	t.root = &Node{Kind: FinishNode, ID: 0}
	t.count.Store(1)
	return t
}

// Root returns the root finish node.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of nodes created so far.
func (t *Tree) Len() int64 { return t.count.Load() }

// Bytes returns the analytic size of the tree in bytes.
func (t *Tree) Bytes() int64 { return t.count.Load() * NodeBytes }

// NewChild appends a new rightmost child of parent and returns it.
// It takes O(1) time and space at any depth — one allocation and one
// shared atomic — and, per the ownership discipline described in the
// package comment, must only be called by the task that owns the parent
// scope.
func (t *Tree) NewChild(parent *Node, kind Kind) *Node {
	parent.nchildren++
	return &Node{
		Parent: parent,
		Depth:  parent.Depth + 1,
		Seq:    parent.nchildren,
		Kind:   kind,
		ID:     t.count.Add(1) - 1,
	}
}

// relateWalk is the §5.2 walk: it returns the least common ancestor of
// the non-nil nodes a and b together with the child of the LCA on each
// side's path (childA is the ancestor-or-self of a that is a direct child
// of the LCA, and likewise childB; nil when that node is itself the LCA,
// an ancestor of the other). It walks the deeper node up to the shallower
// node's depth, then both up in lock step until they meet, so cost is
// linear in the distance from the deeper node to the LCA.
func relateWalk(a, b *Node) (lca, childA, childB *Node) {
	for a.Depth > b.Depth {
		childA, a = a, a.Parent
	}
	for b.Depth > a.Depth {
		childB, b = b, b.Parent
	}
	for a != b {
		childA, a = a, a.Parent
		childB, b = b, b.Parent
	}
	return a, childA, childB
}

// Relation answers, in one query, everything the detector's read and
// write checks need about a pair of nodes: whether they may happen in
// parallel (Algorithm 3 / Theorem 1: iff the child of their LCA on the
// left node's path is an async node) and the depth of their LCA. A step
// never runs in parallel with itself: Relation(a, a) is (false, a.Depth);
// nil (no recorded access) is in parallel with nothing: a nil operand
// yields (false, -1).
func Relation(a, b *Node) (parallel bool, lcaDepth int32) {
	if a == nil || b == nil {
		return false, -1
	}
	lca, ca, cb := relateWalk(a, b)
	if ca == nil || cb == nil {
		return false, lca.Depth
	}
	left := ca
	if cb.Seq < ca.Seq {
		left = cb
	}
	return left.Kind == AsyncNode, lca.Depth
}
