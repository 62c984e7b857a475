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
// straddling one), allocated once, on first use, published into a
// two-level directory and never moved or freed while the tree is
// reachable. A node's ID is its arena index: a 32-bit handle that
// Tree.Node turns back into the node with two directory loads — what lets
// the detector's shadow word record steps as ids, not pointers — and the
// paper's seq_no: siblings are ordered by it (root = 0; race reports
// print it). A tree holds at most 2^32 ids and is at most 2^30 - 1 deep;
// the insertion that would exceed either panics, inserting nothing.
//
// Ids. Ids come from the tree's counter (package ids), either drawn one
// insertion at a time (NewChild: one shared atomic each) or taken from an
// id block that the inserting goroutine owns and refills from the counter
// ids.BlockSize ids at a time (NewChildFrom, SpawnFrom: the detector's
// path, which shares nothing but the refill). Ids are then not
// global creation order — a block drawn early may be used late — but
// three rules keep every order the tree answers from:
//
//   - R1, parent rule: an id taken from a block exceeds its parent's id.
//     When the block's next id is at or below the parent's, its remainder
//     is retired and a fresh block is drawn, above every id handed out.
//     One owner's ids only grow, and a scope's children all come from its
//     one owner (the ownership rule below), so sibling order is id order.
//     The one child of an async node its owner does not insert, the child
//     task's first step, is drawn by the spawner at async+1, in the same
//     take as the async: the child task's later children of the async
//     come from another block, R1 puts them above the async and so above
//     async+1.
//   - R2, watermark move: where the detector moves its watermark (a
//     quiescent point, package core), it releases the mover's block and
//     draws the continuation from the shared counter (NewChild), so every
//     id placed before the move lies below it. Every node placed after the
//     move hangs below a scope created after it, so R1 puts it above.
//   - R3, contiguity: a refill that starts where the block ended extends
//     it, and a release hands the unused remainder back with one CAS when
//     nobody drew after it (else it counts as never placed). Under one
//     owner — the sequential executor, trace replay — every id, Len and
//     Bytes is what the shared counter alone gives.
//
// Ids that blocks hand out and nobody places are spent: at most one
// block's remainder each time a block is retired — when a worker runs a
// task spawned from a newer block than its own (a steal), or inserts
// after a watermark move — or released when someone drew past it, and at
// most two ids when a refill cannot extend a block short of its take. A
// block's chunks are published when it is drawn (a shared draw's as its
// nodes are placed), so every id below Len resolves once the insertions
// in flight return; an id that was never placed reads as a node with a
// nil Parent. Bytes counts the ids placed, exactly once every block has
// been released.
//
// Concurrency. A node is written once, by the insertion that creates it,
// and never again: an insertion takes fresh ids, writes those arena slots
// and reads — never writes — its parent, so concurrent insertions touch
// disjoint memory and no node field needs synchronization (§5.1). The
// only shared writes are the counter's draws and the publication of a
// fresh chunk or directory block. An insertion that finds one missing
// takes the tree's mutex, looks again and allocates only if it is still
// missing, so each is allocated exactly once and no allocation is
// dropped; the mutex is taken once per chunk per owner at most, and an
// owner that meets the chunk its block needs already published takes
// nothing. Nodes become visible to other tasks only via the scheduler's
// task hand-off or the detector's atomic shadow-word stores, both of which
// establish the necessary happens-before edges (and a task that can see
// an id can see the chunk it indexes: the chunk was published before the
// node was written). The paper's ownership rule — a task appends children only under a finish it
// itself started or under its own async node — protects no memory here;
// with R1 it is what makes the id order of siblings their program order.
package dpst

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spd3/internal/ids"
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
	ID        uint32 // arena index: unique per tree, above the parent's and in creation order among siblings, root = 0
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
	count ids.Counter // node ids; Len is the next one
	dir   [dirBlocks]atomic.Pointer[block]
	grow  sync.Mutex // held to allocate a chunk or directory block (slot)
}

// New creates a tree containing only the root finish node, which
// corresponds to the implicit finish enclosing the program's main body.
func New() *Tree {
	t := &Tree{}
	t.count.Limit = maxNodes
	*t.slot(0) = Node{depthKind: uint32(FinishNode)}
	t.count.Set(1)
	return t
}

// Root returns the root finish node.
func (t *Tree) Root() *Node { return t.Node(0) }

// Len returns the number of ids handed out so far: every id below it
// resolves (Node), the ones never placed to a node with a nil Parent.
func (t *Tree) Len() int64 { return t.count.Len() }

// Bytes returns the analytic size of the tree in bytes: the nodes placed,
// not the arena capacity reserved for them. It is exact once every block
// of ids drawn from the tree has been released (ids.Block.Release); until
// then it counts their unused ids too.
func (t *Tree) Bytes() int64 { return t.count.Used() * NodeBytes }

// Node resolves an ID to its node. id must be below Len and known to the
// caller through a synchronizing operation (see the package comment).
func (t *Tree) Node(id uint32) *Node {
	b := t.dir[id>>(chunkShift+blockShift)].Load()
	c := b[id>>chunkShift&(blockChunks-1)].Load()
	return &c[id&(chunkNodes-1)]
}

// slot returns the arena slot of id, allocating and publishing its chunk
// (and the chunk's directory block) when id is the first to land there.
func (t *Tree) slot(id uint32) *Node {
	bp := &t.dir[id>>(chunkShift+blockShift)]
	b := bp.Load()
	if b == nil {
		b = allocOnce(&t.grow, bp)
	}
	cp := &b[id>>chunkShift&(blockChunks-1)]
	c := cp.Load()
	if c == nil {
		c = allocOnce(&t.grow, cp)
	}
	return &c[id&(chunkNodes-1)]
}

// allocOnce fills p with a zero T unless it is filled already, and
// returns what p holds. It runs under mu, so of two insertions that both
// found p empty the second waits for the first's allocation and adopts
// it instead of making one of its own.
func allocOnce[T any](mu *sync.Mutex, p *atomic.Pointer[T]) *T {
	mu.Lock()
	defer mu.Unlock()
	v := p.Load()
	if v == nil {
		v = new(T)
		p.Store(v)
	}
	return v
}

// NewChild appends a new rightmost child of parent and returns it, its id
// drawn from the tree's shared counter. It takes O(1) time and space at
// any depth — one shared atomic, and one allocation per chunkNodes
// insertions — and, per the ownership discipline described in the package
// comment, must only be called by the task that owns the parent scope. It
// panics when the tree is full or parent is at the depth limit.
func (t *Tree) NewChild(parent *Node, kind Kind) *Node {
	id := t.draw(parent)
	return place(t.slot(id), id, parent, kind)
}

// NewChildFrom is NewChild with the id taken from b, the id block of the
// calling goroutine (rules R1–R3 in the package comment): no shared atomic
// but one per ids.BlockSize insertions.
func (t *Tree) NewChildFrom(b *ids.Block, parent *Node, kind Kind) *Node {
	id := t.take(b, 1, parent, 1)
	return place(t.Node(id), id, parent, kind)
}

// SpawnFrom is §3.1's task-creation rule as one insertion: an async node
// as the rightmost child of scope, a step under it for the child task's
// starting computation, and a step as the async's right sibling for the
// parent's continuation — what three NewChild calls build, on three
// consecutive ids taken from b at once, as NewChildFrom takes one.
// Besides saving two takes per task, that keeps the three nodes, which
// the spawning worker writes and DMHP walks visit together, side by side
// in the arena. Like NewChild, it is for the task that owns scope and
// panics when the tree is full or too deep, inserting nothing. The async
// node is childStep.Parent.
func (t *Tree) SpawnFrom(b *ids.Block, scope *Node) (childStep, cont *Node) {
	id := t.take(b, 3, scope, 2)
	async := place(t.Node(id), id, scope, AsyncNode)
	return place(t.Node(id+1), id+1, async, StepNode), place(t.Node(id+2), id+2, scope, StepNode)
}

// depthCheck panics unless the tree can hold nodes levels below scope.
func depthCheck(scope *Node, levels int32) {
	if scope.Depth() > maxDepth-levels {
		panic("dpst: tree is too deep: node depths are 30 bits, so no node lies 2^30 or more levels below the root")
	}
}

const fullMsg = "dpst: tree is full: node ids are 32 bits, so one tree holds at most 2^32 nodes"

// draw reserves one id from the shared counter, for an insertion under
// parent, and returns it; the caller publishes its chunk as it places
// the node (slot).
func (t *Tree) draw(parent *Node) uint32 {
	depthCheck(parent, 1)
	id, ok := t.count.Draw(1)
	if !ok {
		panic(fullMsg)
	}
	return uint32(id)
}

// take is draw from the block b: n consecutive ids above parent's (R1).
func (t *Tree) take(b *ids.Block, n int64, parent *Node, levels int32) uint32 {
	depthCheck(parent, levels)
	if id, ok := b.Take(n, int64(parent.ID)); ok {
		return uint32(id)
	}
	return t.refill(b, n, parent)
}

// refill is take when b has no ids to give: it refills b and publishes
// the chunks of every fresh id, so that each one resolves with Node.
func (t *Tree) refill(b *ids.Block, n int64, parent *Node) uint32 {
	lo, hi, ok := b.Refill(&t.count, n)
	if !ok {
		panic(fullMsg)
	}
	for c := lo >> chunkShift; c <= (hi-1)>>chunkShift; c++ {
		t.slot(uint32(c << chunkShift))
	}
	id, _ := b.Take(n, int64(parent.ID))
	return uint32(id)
}

// place makes n, the arena slot of the drawn id, the new rightmost child
// of parent, which it only reads.
func place(n *Node, id uint32, parent *Node, kind Kind) *Node {
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
	// left one is the one created first: the lower id (R1).
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
