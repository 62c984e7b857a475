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
// links up to the LCA, O(distance to the LCA) — four to seven hops for
// every query the committed workloads issue, whatever the tree's depth.
//
// Storage. A node is its id — its index in the tree's arena — and an
// 8-byte record: the parent's id and one word holding depth and kind. The
// arena is chunks of chunkNodes records, each allocated once, on first
// use, and never moved or freed, listed in one flat table that grows by
// copy; no record holds a pointer, so the garbage collector never scans
// a chunk. The id is what the detector's shadow word records and the
// paper's seq_no: siblings are ordered by it (root = 0; race reports
// print it). A tree holds at most 2^32 ids and is at most 2^30 - 1 deep;
// the insertion that would exceed either panics, inserting nothing.
//
// Ids. Ids come from the tree's counter (package ids), either drawn one
// insertion at a time (NewChildFrom with no block: one shared atomic
// each) or taken from an id block that the inserting goroutine owns and
// refills from the counter ids.BlockSize ids at a time (NewChildFrom with
// a block, SpawnFrom: the detector's path, which shares nothing but the
// refill). Ids are then not
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
//     draws the continuation from the shared counter, so every
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
// in flight return; an id that was never placed is not Placed: its record
// reads zero, depth 0, which only the root's has. Bytes counts the ids
// placed, exactly once every block has been released.
//
// Concurrency. A node is written once, by the insertion that creates it,
// and never again: an insertion takes fresh ids, writes those arena slots
// and reads — never writes — its parent, so concurrent insertions touch
// disjoint memory and no node field needs synchronization (§5.1). The
// only shared writes are the counter's draws and the publication of a
// fresh chunk, or of a grown table. An insertion that finds its chunk
// missing takes the tree's mutex, looks again and allocates only if it is
// still missing, so each is allocated exactly once and no allocation is
// dropped; a grown table holds every chunk of the old one before it is
// published. The mutex is taken once per chunk per owner at most, and an
// owner that meets the chunk its block needs already published takes
// nothing. Nodes become visible to other tasks only via the scheduler's
// task hand-off or the detector's atomic shadow-word stores, both of which
// establish the necessary happens-before edges (and a task that can see
// an id can see the chunk it indexes: the chunk was published before the
// node was written). The paper's ownership rule — a task appends children
// only under a finish it itself started or under its own async node —
// protects no memory here;
// with R1 it is what makes the id order of siblings their program order.
package dpst

import (
	"fmt"
	"strconv"
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

// node is one arena record: what DMHP reads and nothing else, written
// once, by the insertion that places it (§5.1). Its id is its index.
type node struct {
	parent    uint32 // the parent's id; 0 for the root and for an id never placed
	depthKind uint32 // depth<<kindBits | kind; 0 for the root and for an id never placed
}

const (
	kindBits = 2
	kindMask = 1<<kindBits - 1

	// maxDepth is the deepest a node can be: depths are 30 bits.
	maxDepth = 1<<(32-kindBits) - 1
)

func (n node) kind() Kind   { return Kind(n.depthKind & kindMask) }
func (n node) depth() int32 { return int32(n.depthKind >> kindBits) }

// NodeBytes is the size of one node, used for the analytic footprint
// accounting that reproduces the paper's Table 3: two 32-bit words.
const NodeBytes = 8

// The arena's geometry: an id's top 20 bits index the table, its low 12
// the chunk.
const (
	chunkShift = 12
	chunkNodes = 1 << chunkShift // 4096 records x 8 B = 32 KiB
	maxChunks  = 1 << (32 - chunkShift)

	// maxNodes is the number of nodes one tree can hold: ids are 32 bits.
	maxNodes = 1 << 32
)

type (
	chunk [chunkNodes]node
	// table lists the arena's chunks by index; nil where none is
	// allocated yet. It only grows, by copy into a larger table.
	table []atomic.Pointer[chunk]
)

// at returns the record of id, whose chunk tab lists.
func (tab table) at(id uint32) node { return tab[id>>chunkShift].Load()[id&(chunkNodes-1)] }

// set writes the record of id, whose chunk tab lists.
func (tab table) set(id uint32, n node) { tab[id>>chunkShift].Load()[id&(chunkNodes-1)] = n }

// Tree is a DPST under construction. The zero value is not usable; call
// New.
type Tree struct {
	count ids.Counter // node ids; Len is the next one
	tab   atomic.Pointer[table]
	grow  sync.Mutex // held to allocate a chunk or grow the table (slot)
}

// New creates a tree containing only the root finish node, which
// corresponds to the implicit finish enclosing the program's main body.
// The root's record is the zero one: depth 0, kind FinishNode.
func New() *Tree {
	t := &Tree{}
	t.count.Limit = maxNodes
	t.tab.Store(new(table))
	t.slot(0)
	t.count.Set(1)
	return t
}

// Len returns the number of ids handed out so far: every id below it
// resolves, the ones never placed to a record that is not Placed.
func (t *Tree) Len() int64 { return t.count.Len() }

// Bytes returns the analytic size of the tree in bytes: the nodes placed,
// not the arena capacity reserved for them. It is exact once every block
// of ids drawn from the tree has been released (ids.Block.Release); until
// then it counts their unused ids too.
func (t *Tree) Bytes() int64 { return t.count.Used() * NodeBytes }

// The accessors below read the record of id, which must be below Len and
// known to the caller through a synchronizing operation (see the package
// comment).

func (t *Tree) at(id uint32) node { return (*t.tab.Load()).at(id) }

// Parent returns the id of id's parent: 0 for the root, whose parent does
// not exist, and for an id that is not Placed.
func (t *Tree) Parent(id uint32) uint32 { return t.at(id).parent }

// Depth returns the length of id's root path (0 for the root).
func (t *Tree) Depth(id uint32) int32 { return t.at(id).depth() }

// Kind returns id's type.
func (t *Tree) Kind(id uint32) Kind { return t.at(id).kind() }

// Placed reports whether an insertion placed id: the root, or an id whose
// record is not the zero one — every node but the root is at depth 1 or
// more. An id a block handed out and nobody used is not.
func (t *Tree) Placed(id uint32) bool { return id == 0 || t.at(id).depthKind != 0 }

// Name renders id as e.g. "step#17", for race reports.
func (t *Tree) Name(id uint32) string {
	return t.Kind(id).String() + "#" + strconv.FormatUint(uint64(id), 10)
}

// slot returns the arena slot of id, allocating and publishing its chunk
// when id is the first to land there.
func (t *Tree) slot(id uint32) *node {
	c := id >> chunkShift
	if tab := *t.tab.Load(); c < uint32(len(tab)) {
		if ch := tab[c].Load(); ch != nil {
			return &ch[id&(chunkNodes-1)]
		}
	}
	return &t.allocChunk(c)[id&(chunkNodes-1)]
}

// allocChunk allocates chunk c unless it is allocated already, growing
// the table to list it, and returns it. It runs under the tree's mutex,
// so of two insertions that both found c missing the second waits for
// the first's allocation and adopts it instead of making one of its own.
func (t *Tree) allocChunk(c uint32) *chunk {
	t.grow.Lock()
	defer t.grow.Unlock()
	tab := *t.tab.Load()
	if c >= uint32(len(tab)) {
		grown := make(table, min(max(2*len(tab), int(c)+1), maxChunks))
		for i := range tab {
			grown[i].Store(tab[i].Load())
		}
		t.tab.Store(&grown)
		tab = grown
	}
	ch := tab[c].Load()
	if ch == nil {
		ch = new(chunk)
		tab[c].Store(ch)
	}
	return ch
}

// NewChildFrom appends a new rightmost child of parent and returns its
// id, taken from b, the id block of the calling goroutine (rules R1–R3 in
// the package comment): no shared atomic but one per ids.BlockSize
// insertions. With b nil the id is drawn from the tree's shared counter,
// one atomic each. It takes O(1) time and space at any depth — one
// allocation per chunkNodes insertions — and, per the ownership
// discipline described in the package comment, must only be called by the
// task that owns the parent scope. It panics when the tree is full or
// parent is at the depth limit.
func (t *Tree) NewChildFrom(b *ids.Block, parent uint32, kind Kind) uint32 {
	tab := *t.tab.Load()
	p := tab.at(parent)
	depthCheck(p, 1)
	if b == nil {
		id := t.draw()
		*t.slot(id) = child(parent, p, kind)
		return id
	}
	id, ok := b.Take(1, int64(parent))
	if !ok {
		id, tab = t.refill(b, 1, parent)
	}
	tab.set(uint32(id), child(parent, p, kind))
	return uint32(id)
}

// SpawnFrom is §3.1's task-creation rule as one insertion: an async node
// as the rightmost child of scope, a step under it for the child task's
// starting computation, and a step as the async's right sibling for the
// parent's continuation — what three NewChildFrom calls build, on three
// consecutive ids taken from b at once. Besides saving two takes per
// task, that keeps the three records, which the spawning worker writes
// and DMHP walks visit together, side by side in the arena. Like
// NewChildFrom, it is for the task that owns scope and panics when the
// tree is full or too deep, inserting nothing. The async node is
// childStep's parent.
func (t *Tree) SpawnFrom(b *ids.Block, scope uint32) (childStep, cont uint32) {
	tab := *t.tab.Load()
	s := tab.at(scope)
	depthCheck(s, 2)
	first, ok := b.Take(3, int64(scope))
	if !ok {
		first, tab = t.refill(b, 3, scope)
	}
	id := uint32(first)
	async := child(scope, s, AsyncNode)
	tab.set(id, async)
	tab.set(id+1, child(id, async, StepNode))
	tab.set(id+2, child(scope, s, StepNode))
	return id + 1, id + 2
}

// child is the record of a new child of kind under parent, whose record
// is p.
func child(parent uint32, p node, kind Kind) node {
	return node{parent: parent, depthKind: uint32(p.depth()+1)<<kindBits | uint32(kind)}
}

// depthCheck panics unless the tree can hold nodes levels below scope.
func depthCheck(scope node, levels int32) {
	if scope.depth() > maxDepth-levels {
		panic("dpst: tree is too deep: node depths are 30 bits, so no node lies 2^30 or more levels below the root")
	}
}

const fullMsg = "dpst: tree is full: node ids are 32 bits, so one tree holds at most 2^32 nodes"

// draw reserves one id from the shared counter and returns it; the caller
// publishes its chunk as it places the node (slot).
func (t *Tree) draw() uint32 {
	id, ok := t.count.Draw(1)
	if !ok {
		panic(fullMsg)
	}
	return uint32(id)
}

// refill is a take of n ids above parent (R1) from b when b has none to
// give: it refills b, publishes the chunks of every fresh id, so that
// each one resolves, and returns the first id taken with a table that
// lists their chunks.
func (t *Tree) refill(b *ids.Block, n int64, parent uint32) (int64, table) {
	lo, hi, ok := b.Refill(&t.count, n)
	if !ok {
		panic(fullMsg)
	}
	for c := lo >> chunkShift; c <= (hi-1)>>chunkShift; c++ {
		t.slot(uint32(c << chunkShift))
	}
	id, _ := b.Take(n, int64(parent))
	return id, *t.tab.Load()
}

// DMHP answers, in one walk, everything the detector's read and write
// checks need about a recorded node a and a step s: whether they may happen
// in parallel (Algorithm 3 / Theorem 1: iff the child of their LCA on the
// left node's path is an async node) and side, the id of the child of
// their LCA on a's path — 0, with nothing parallel, when one is the other
// or its ancestor. Of two nodes both parallel with s, s lies outside the
// subtree under their LCA exactly when their sides are the same node. It
// loads the table once: every node the walk meets was placed before a and
// s were.
func (t *Tree) DMHP(a, s uint32) (parallel bool, side uint32) { return t.tab.Load().dmhp(a, s) }

// dmhp is DMHP over the arena that *p lists, by the §5.2 walk: it lifts
// the deeper node to the shallower one's depth, then both in lock step
// until they meet, remembering the child of the LCA on each side (0 while
// a node is itself the LCA — the root is nobody's child). Cost is linear
// in the distance from the deeper node to the LCA. It takes the table by
// pointer so that DMHP stays within the inliner's budget and the detector
// makes one call per walk.
func (p *table) dmhp(a, s uint32) (parallel bool, side uint32) {
	tab := *p
	var ca, cs uint32
	na, ns := tab.at(a), tab.at(s)
	// Depth sits above the kind bits, so a node is deeper than n exactly
	// when its packed word exceeds n's with the kind bits filled.
	for level := ns.depthKind | kindMask; na.depthKind > level; na = tab.at(a) {
		ca, a = a, na.parent
	}
	for level := na.depthKind | kindMask; ns.depthKind > level; ns = tab.at(s) {
		cs, s = s, ns.parent
	}
	for a != s {
		ca, a = a, na.parent
		cs, s = s, ns.parent
		na, ns = tab.at(a), tab.at(s)
	}
	if ca == 0 || cs == 0 {
		return false, 0
	}
	// Siblings are appended left to right by their one owner, so the
	// left one is the one created first: the lower id (R1).
	left := ca
	if cs < ca {
		left = cs
	}
	return tab.at(left).kind() == AsyncNode, ca
}

// Node is a handle on one node of a tree — its tree and its id — for
// tests, tooling and the benchmark's direct timings. The detector and
// replay use ids and the Tree's accessors; nothing on their paths makes
// or reads a handle.
type Node struct {
	t  *Tree
	ID uint32
}

// Node returns a handle on id.
func (t *Tree) Node(id uint32) *Node { return &Node{t, id} }

// Root returns a handle on the root finish node.
func (t *Tree) Root() *Node { return t.Node(0) }

// NewChild is NewChildFrom on handles, with the id from the shared
// counter.
func (t *Tree) NewChild(parent *Node, kind Kind) *Node {
	return t.Node(t.NewChildFrom(nil, parent.ID, kind))
}

// Parent returns a handle on n's parent: nil for the root and for an id
// that is not Placed.
func (n *Node) Parent() *Node {
	if n.ID == 0 || !n.t.Placed(n.ID) {
		return nil
	}
	return n.t.Node(n.t.Parent(n.ID))
}

// Kind returns the node's type.
func (n *Node) Kind() Kind { return n.t.Kind(n.ID) }

// Depth returns the length of the node's root path (0 for the root).
func (n *Node) Depth() int32 { return n.t.Depth(n.ID) }

// String renders a node as e.g. "step#17".
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	return n.t.Name(n.ID)
}

// Relation is DMHP on handles of one tree with the depth of the LCA in
// place of the side: one level above the side or, of a node and its
// ancestor, the ancestor's own. A step never runs in parallel with
// itself: Relation(a, a) is (false, a.Depth()); a nil operand (no
// recorded access) yields (false, -1).
func Relation(a, b *Node) (parallel bool, lcaDepth int32) {
	if a == nil || b == nil {
		return false, -1
	}
	parallel, side := a.t.DMHP(a.ID, b.ID)
	if side == 0 {
		return false, min(a.Depth(), b.Depth())
	}
	return parallel, a.t.Depth(side) - 1
}
