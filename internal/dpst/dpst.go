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
// The tree answers the one query race detection needs, DMHP: whether two
// steps may happen in parallel — Theorem 1: S1 (left) and S2 may run in
// parallel iff the ancestor of S1 that is a child of LCA(S1,S2) is an
// async node — and that child, the side of the LCA the first step is on:
// Algorithm 2 keeps the two readers whose LCA is highest, and a step lies
// outside the subtree under LCA(r1,r2) exactly when r1 and r2 are on the
// same side of it. It is answered the way §5.2 does: walk the parent
// pointers up to the LCA, O(distance to the LCA) — four to seven hops for
// every query the committed workloads issue, whatever the tree's depth.
//
// Storage. A node is 16 bytes — the parent pointer, the id and one word
// holding depth and kind — and lives in a tree-owned arena: fixed-size
// chunks of chunkNodes nodes (64 KiB, four nodes to a cache line and none
// straddling one), allocated on first use, CAS-published into a two-level
// directory and never moved or freed while the tree is reachable. The
// creation counter every insertion bumps is the arena index, so a node's
// ID is both its position in creation order (root = 0, what race reports
// print) and a 32-bit handle that Tree.Node turns back into the node with
// two directory loads — what lets the detector's shadow word record steps
// as ids, not pointers. The paper's seq_no is that same ID: siblings are
// ordered by it. A tree holds at most 2^32 nodes and is at most 2^30 - 1
// deep; the insertion that would exceed either panics.
//
// Concurrency. A node is written once, by the insertion that creates it,
// and never again: an insertion draws fresh ids from the counter, writes
// those arena slots and reads — never writes — its parent, so concurrent
// insertions touch disjoint memory and no node field needs synchronization
// (§5.1). The only shared write is the publication of a fresh chunk, one
// CAS that the loser abandons. Nodes become visible to other tasks only
// via the scheduler's task hand-off or the detector's atomic shadow-word
// stores, both of which establish the necessary happens-before edges (and
// a task that can see an id can see the chunk it indexes: the chunk was
// published before the node was written into it). The paper's ownership
// rule — a task appends children only under a finish it itself started or
// under its own async node — protects no memory here; it is what makes the
// id order of siblings their program order.
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

// Node is one DPST node: what DMHP reads and nothing else. It is immutable
// after the insertion that creates it (§5.1: written only on
// initialization).
type Node struct {
	Parent    *Node
	ID        uint32 // arena index: unique per tree, in creation order, root = 0
	depthKind uint32 // depth<<kindBits | kind
}

const (
	kindBits = 2
	kindMask = 1<<kindBits - 1

	// maxDepth is the deepest a node can be: depths are 30 bits.
	maxDepth = 1<<(32-kindBits) - 1
)

// Kind returns the node's type.
func (n *Node) Kind() Kind { return Kind(n.depthKind & kindMask) }

// Depth returns the length of the node's root path (0 for the root).
func (n *Node) Depth() int32 { return int32(n.depthKind >> kindBits) }

// NodeBytes is the size of one Node, used for the analytic footprint
// accounting that reproduces the paper's Table 3: an 8-byte parent
// pointer and two 32-bit words.
const NodeBytes = 16

// String renders a node as e.g. "step#17" for race reports.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s#%d", n.Kind(), n.ID)
}

// The arena's geometry. An id splits into a block index (top 10 bits), a
// chunk index within the block (10 bits) and a node index within the
// chunk (12 bits); the root directory is part of the Tree, so resolving
// an id is two dependent pointer loads and an offset.
const (
	chunkShift  = 12
	chunkNodes  = 1 << chunkShift // 4096 nodes x 16 B = 64 KiB
	blockShift  = 10
	blockChunks = 1 << blockShift
	dirBlocks   = 1 << (32 - chunkShift - blockShift)

	// maxNodes is the number of nodes one tree can hold: ids are 32 bits.
	maxNodes = 1 << 32
)

type (
	chunk [chunkNodes]Node
	block [blockChunks]atomic.Pointer[chunk]
)

// Tree is a DPST under construction. The zero value is not usable; call
// New.
type Tree struct {
	count atomic.Int64 // nodes so far; also the next ID
	dir   [dirBlocks]atomic.Pointer[block]
}

// New creates a tree containing only the root finish node, which
// corresponds to the implicit finish enclosing the program's main body.
func New() *Tree {
	t := &Tree{}
	*t.slot(0) = Node{depthKind: uint32(FinishNode)}
	t.count.Store(1)
	return t
}

// Root returns the root finish node.
func (t *Tree) Root() *Node { return t.Node(0) }

// Len returns the number of nodes created so far.
func (t *Tree) Len() int64 { return t.count.Load() }

// Bytes returns the analytic size of the tree in bytes: the nodes created,
// not the arena capacity reserved for them.
func (t *Tree) Bytes() int64 { return t.count.Load() * NodeBytes }

// Node resolves an ID to its node. id must be the ID of a node of this
// tree that the caller learned through a synchronizing operation (see the
// package comment); any other id may hit an unallocated chunk and fault.
func (t *Tree) Node(id uint32) *Node {
	b := t.dir[id>>(chunkShift+blockShift)].Load()
	c := b[id>>chunkShift&(blockChunks-1)].Load()
	return &c[id&(chunkNodes-1)]
}

// slot returns the arena slot of a freshly drawn id, allocating and
// publishing its chunk (and the chunk's directory block) when id is the
// first to land there.
func (t *Tree) slot(id uint32) *Node {
	bp := &t.dir[id>>(chunkShift+blockShift)]
	b := bp.Load()
	if b == nil {
		b = publishNew(bp)
	}
	cp := &b[id>>chunkShift&(blockChunks-1)]
	c := cp.Load()
	if c == nil {
		c = publishNew(cp)
	}
	return &c[id&(chunkNodes-1)]
}

// publishNew fills the empty p with a zero T. A lost publication race
// drops its allocation and adopts the winner's.
func publishNew[T any](p *atomic.Pointer[T]) *T {
	v := new(T)
	if p.CompareAndSwap(nil, v) {
		return v
	}
	return p.Load()
}

// NewChild appends a new rightmost child of parent and returns it.
// It takes O(1) time and space at any depth — one shared atomic, and one
// allocation per chunkNodes insertions — and, per the ownership
// discipline described in the package comment, must only be called by the
// task that owns the parent scope. It panics when the tree is full or
// parent is at the depth limit.
func (t *Tree) NewChild(parent *Node, kind Kind) *Node {
	return t.place(t.draw(1, parent, 1), parent, kind)
}

// Spawn is §3.1's task-creation rule as one insertion: an async node as
// the rightmost child of scope, a step under it for the child task's
// starting computation, and a step as the async's right sibling for the
// parent's continuation — what three NewChild calls build, on three
// consecutive ids drawn with one atomic. Besides saving two shared
// atomics per task, that keeps the three nodes, which the spawning worker
// writes and DMHP walks visit together, side by side in the arena instead
// of interleaved with whatever the other workers insert meanwhile. Like
// NewChild, it is for the task that owns scope and panics when the tree
// is full or too deep, inserting nothing. The async node is
// childStep.Parent.
func (t *Tree) Spawn(scope *Node) (childStep, cont *Node) {
	id := t.draw(3, scope, 2)
	async := t.place(id, scope, AsyncNode)
	return t.place(id+1, async, StepNode), t.place(id+2, scope, StepNode)
}

// draw reserves n consecutive ids, for an insertion reaching levels below
// scope, and returns the first.
func (t *Tree) draw(n int64, scope *Node, levels int32) uint32 {
	if scope.Depth() > maxDepth-levels {
		panic("dpst: tree is too deep: node depths are 30 bits, so no node lies 2^30 or more levels below the root")
	}
	end := t.count.Add(n)
	if end > maxNodes {
		t.count.Add(-n)
		panic("dpst: tree is full: node ids are 32 bits, so one tree holds at most 2^32 nodes")
	}
	return uint32(end - n)
}

// place makes the arena slot of a drawn id the new rightmost child of
// parent, which it only reads.
func (t *Tree) place(id uint32, parent *Node, kind Kind) *Node {
	n := t.slot(id)
	*n = Node{
		Parent:    parent,
		ID:        id,
		depthKind: uint32(parent.Depth()+1)<<kindBits | uint32(kind),
	}
	return n
}

// relateWalk is the §5.2 walk: it returns the least common ancestor of
// the non-nil nodes a and b together with the child of the LCA on each
// side's path (childA is the ancestor-or-self of a that is a direct child
// of the LCA, and likewise childB; nil when that node is itself the LCA,
// an ancestor of the other). It walks the deeper node up to the shallower
// node's depth, then both up in lock step until they meet, so cost is
// linear in the distance from the deeper node to the LCA.
func relateWalk(a, b *Node) (lca, childA, childB *Node) {
	// Depth sits above the kind bits, so a node is deeper than n exactly
	// when its packed word exceeds n's with the kind bits filled.
	for level := b.depthKind | kindMask; a.depthKind > level; {
		childA, a = a, a.Parent
	}
	for level := a.depthKind | kindMask; b.depthKind > level; {
		childB, b = b, b.Parent
	}
	for a != b {
		childA, a = a, a.Parent
		childB, b = b, b.Parent
	}
	return a, childA, childB
}

// DMHP answers, in one walk, everything the detector's read and write
// checks need about a recorded node a and a step s: whether they may happen
// in parallel (Algorithm 3 / Theorem 1: iff the child of their LCA on the
// left node's path is an async node) and side, the child of their LCA on
// a's path — nil, with nothing parallel, when one is the other or its
// ancestor. Of two nodes both parallel with s, s lies outside the subtree
// under their LCA exactly when their sides are the same node.
func DMHP(a, s *Node) (parallel bool, side *Node) {
	_, ca, cs := relateWalk(a, s)
	if ca == nil || cs == nil {
		return false, nil
	}
	// Siblings are appended left to right by their one owner, so the
	// left one is the one created first.
	left := ca
	if cs.ID < ca.ID {
		left = cs
	}
	return left.Kind() == AsyncNode, ca
}

// Relation is DMHP with the depth of the LCA in place of the side: one
// level above the side or, of a node and its ancestor, the ancestor's own.
// A step never runs in parallel with itself: Relation(a, a) is (false,
// a.Depth()); a nil operand (no recorded access) yields (false, -1).
func Relation(a, b *Node) (parallel bool, lcaDepth int32) {
	if a == nil || b == nil {
		return false, -1
	}
	parallel, side := DMHP(a, b)
	if side == nil {
		return false, min(a.Depth(), b.Depth())
	}
	return parallel, side.Depth() - 1
}
