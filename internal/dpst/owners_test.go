package dpst

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"spd3/internal/ids"
)

// progOp is one statement of a generated async/finish program: a spawn of
// a task running body, or a finish around body. Its three nodes carry the
// labels label, label+1 and label+2: the async, the child's step and the
// spawner's continuation, or the finish, the step inside it and the
// continuation after it. Labels 0 and 1 are the run node and main's
// first step.
type progOp struct {
	spawn bool
	body  []*progOp
	label int
}

// genProgram draws a program of at most maxOps statements nested at most
// six deep, and returns its main body and its label count.
func genProgram(rng *rand.Rand, maxOps int) ([]*progOp, int) {
	labels := 2
	var body func(depth int) []*progOp
	body = func(depth int) []*progOp {
		var ops []*progOp
		for n := rng.Intn(5); n > 0 && labels < 2+3*maxOps; n-- {
			op := &progOp{spawn: rng.Intn(3) > 0, label: labels}
			labels += 3
			if depth < 6 {
				op.body = body(depth + 1)
			}
			ops = append(ops, op)
		}
		return ops
	}
	var main []*progOp
	for labels < 2+3*maxOps/2 {
		main = append(main, body(0)...)
	}
	return main, labels
}

// singleOwner builds prog's tree the way the sequential executor does,
// depth first with each child run at its spawn, from one owner: the shared
// counter when b is nil, else b, released after a random quarter of the
// tasks (as a goroutine-executor task's block is). nodes holds each
// label's id, seq each id's position among its siblings, from 1, as it is
// inserted.
func singleOwner(rng *rand.Rand, prog []*progOp, labels int, b *ids.Block) (tr *Tree, nodes []uint32, seq map[uint32]int32) {
	tr, nodes, seq = New(), make([]uint32, labels), map[uint32]int32{}
	kids := map[uint32]int32{}
	add := func(label int, parent uint32, kind Kind) uint32 {
		n := tr.NewChildFrom(b, parent, kind)
		kids[parent]++
		nodes[label], seq[n] = n, kids[parent]
		return n
	}
	var run func(ops []*progOp, scope uint32)
	run = func(ops []*progOp, scope uint32) {
		for _, op := range ops {
			if op.spawn {
				async := add(op.label, scope, AsyncNode)
				add(op.label+1, async, StepNode)
				add(op.label+2, scope, StepNode)
				run(op.body, async)
				if b != nil && rng.Intn(4) == 0 {
					b.Release()
				}
				continue
			}
			fin := add(op.label, scope, FinishNode)
			add(op.label+1, fin, StepNode)
			run(op.body, fin)
			add(op.label+2, scope, StepNode)
		}
	}
	runNode := tr.NewChildFrom(nil, 0, FinishNode) // MainTask's two nodes: the shared counter
	mainStep := tr.NewChildFrom(nil, runNode, StepNode)
	nodes[0], nodes[1] = runNode, mainStep
	seq[runNode], seq[mainStep], kids[runNode] = 1, 1, 1
	run(prog, runNode)
	if b != nil {
		b.Release()
	}
	return tr, nodes, seq
}

// ownerTask is a task of multiOwner's schedule: the block it runs on for
// its whole life and its open scopes, innermost last.
type ownerTask struct {
	block  int
	frames []ownerFrame
}

// ownerFrame is a scope a task inserts under — its async node or a
// finish it started — with the statements left to run in it.
type ownerFrame struct {
	scope uint32
	fin   *progOp // the finish statement; nil for the task's own body
	ops   []*progOp
}

// multiOwner builds prog's tree from k id blocks, as a pool of k workers
// would: every task runs on one block for its life, chosen at random when
// it starts (a steal), and the live tasks' statements interleave at
// random. A task's block may be older than its async node, whose id the
// spawner drew from a block of its own: below counts those starts. A
// block is released when its task ends, one time in four, and all of them
// at the end, as the runtime's flushes do.
func multiOwner(rng *rand.Rand, prog []*progOp, labels, k int) (tr *Tree, nodes []uint32, below int) {
	tr, nodes = New(), make([]uint32, labels)
	blocks := make([]ids.Block, k)
	last := make([]int64, k) // the largest id each block gave, for below
	nodes[0] = tr.NewChildFrom(nil, 0, FinishNode)
	nodes[1] = tr.NewChildFrom(nil, nodes[0], StepNode)
	tasks := []*ownerTask{{block: rng.Intn(k), frames: []ownerFrame{{scope: nodes[0], ops: prog}}}}
	for len(tasks) > 0 {
		i := rng.Intn(len(tasks))
		t := tasks[i]
		b := &blocks[t.block]
		f := &t.frames[len(t.frames)-1]
		note := func(ns ...uint32) {
			for _, n := range ns {
				last[t.block] = max(last[t.block], int64(n))
			}
		}
		switch {
		case len(f.ops) > 0:
			op := f.ops[0]
			f.ops = f.ops[1:]
			if op.spawn {
				child, cont := tr.SpawnFrom(b, f.scope)
				async := tr.Parent(child)
				nodes[op.label], nodes[op.label+1], nodes[op.label+2] = async, child, cont
				note(child, cont)
				c := &ownerTask{block: rng.Intn(k), frames: []ownerFrame{{scope: async, ops: op.body}}}
				if last[c.block] > 0 && last[c.block] < int64(child) && len(op.body) > 0 {
					below++
				}
				tasks = append(tasks, c)
				continue
			}
			fin := tr.NewChildFrom(b, f.scope, FinishNode)
			nodes[op.label], nodes[op.label+1] = fin, tr.NewChildFrom(b, fin, StepNode)
			note(nodes[op.label+1])
			t.frames = append(t.frames, ownerFrame{scope: fin, fin: op, ops: op.body})
		case f.fin != nil:
			t.frames = t.frames[:len(t.frames)-1]
			cont := tr.NewChildFrom(b, tr.Parent(f.scope), StepNode)
			nodes[f.fin.label+2] = cont
			note(cont)
		default:
			tasks[i] = tasks[len(tasks)-1]
			tasks = tasks[:len(tasks)-1]
			if rng.Intn(4) == 0 {
				b.Release()
			}
		}
	}
	for i := range blocks {
		blocks[i].Release()
	}
	return tr, nodes, below
}

// TestQuickBlocksAgainstSingleOwner holds the id-block rules of the
// package comment to what they must keep. Each random program is built
// three ways: from the shared counter and from one block, depth first (the
// sequential executor), and from up to four blocks with random steals and
// interleavings (the pool). One owner's block gives every node the shared
// counter's id (R3). Under many owners every id exceeds its parent's (R1),
// siblings' ids are in their creation order, every id below Len resolves
// — a placed one to its node, an unused one to a record that is not
// Placed — and once every block is released Bytes counts exactly the nodes
// placed. Every pair of up to 150 steps gets the DMHP answer that
// naiveDMHP gives on the single-owner tree, with left-of from the
// recorded positions.
func TestQuickBlocksAgainstSingleOwner(t *testing.T) {
	var below int
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog, labels := genProgram(rng, 40+rng.Intn(400))
		ref, want, seq := singleOwner(rng, prog, labels, nil)
		one, got, _ := singleOwner(rng, prog, labels, &ids.Block{})
		if one.Len() != ref.Len() || one.Bytes() != ref.Bytes() || ref.Bytes() != int64(labels+1)*NodeBytes {
			t.Errorf("seed %d: one owner's block: Len %d, Bytes %d; shared counter: Len %d, Bytes %d; %d nodes",
				seed, one.Len(), one.Bytes(), ref.Len(), ref.Bytes(), labels+1)
			return false
		}
		for l := range want {
			if got[l] != want[l] {
				t.Errorf("seed %d: one owner's block gave node %d id %d, the shared counter %d", seed, l, got[l], want[l])
				return false
			}
		}

		k := 1 + rng.Intn(4)
		tr, nodes, b := multiOwner(rng, prog, labels, k)
		below += b
		if tr.Bytes() != int64(labels+1)*NodeBytes {
			t.Errorf("seed %d, %d owners: Bytes %d after every release, want %d nodes", seed, k, tr.Bytes(), labels+1)
			return false
		}
		label := map[uint32]int{}
		for l, n := range want {
			label[n] = l
		}
		placed := map[uint32]bool{0: true}
		recs := records(ref)
		for l, n := range nodes {
			wp, p := recs[want[l]].parent, uint32(0)
			if wp != 0 {
				p = nodes[label[wp]]
			}
			if tr.at(n) != (node{p, recs[want[l]].depthKind}) || p >= n {
				t.Errorf("seed %d, %d owners: node %d is %s under %d, depth %d; want %s under %d, depth %d, its id above the parent's",
					seed, k, l, tr.Name(n), tr.Parent(n), tr.Depth(n), ref.Name(want[l]), p, ref.Depth(want[l]))
				return false
			}
			placed[n] = true
		}
		for id := uint32(0); int64(id) < tr.Len(); id++ {
			if tr.Placed(id) != placed[id] {
				t.Errorf("seed %d, %d owners: id %d resolves to %s under %d, Placed %v, placed %v", seed, k, id, tr.Name(id), tr.Parent(id), tr.Placed(id), placed[id])
				return false
			}
		}
		// Siblings: a node's id order against every other child of its
		// parent is its creation order.
		children := map[uint32][]int{}
		for l := range want {
			children[recs[want[l]].parent] = append(children[recs[want[l]].parent], l)
		}
		for _, ls := range children {
			for _, a := range ls {
				for _, c := range ls {
					if (nodes[a] < nodes[c]) != (seq[want[a]] < seq[want[c]]) {
						t.Errorf("seed %d, %d owners: siblings %s and %s, created %d and %d", seed, k, tr.Name(nodes[a]), tr.Name(nodes[c]), seq[want[a]], seq[want[c]])
						return false
					}
				}
			}
		}
		var steps []int
		for l := range want {
			if recs[want[l]].kind() == StepNode && len(steps) < 150 {
				steps = append(steps, l)
			}
		}
		for _, a := range steps {
			for _, c := range steps {
				if got := dmhp(tr, nodes[a], nodes[c]); got != naiveDMHP(recs, seq, want[a], want[c]) {
					t.Errorf("seed %d, %d owners: DMHP(%s, %s) = %v, the single-owner tree says otherwise",
						seed, k, tr.Name(nodes[a]), tr.Name(nodes[c]), got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if below == 0 {
		t.Fatal("no task started on a block older than its async node: the schedule never exercised R1")
	}
}

// TestBlocksConcurrentOwners: goroutines inserting in parallel from blocks
// of their own, each spawning under a scope it owns, across several chunk
// boundaries: every id resolves to the record written at creation, and
// after the releases the accounting is exact.
func TestBlocksConcurrentOwners(t *testing.T) {
	const (
		owners   = 4
		perOwner = chunkNodes/2 + 7 // spawns: together past five chunk boundaries
	)
	tr := New()
	scopes := make([]uint32, owners)
	for w := range scopes {
		scopes[w] = tr.NewChildFrom(nil, 0, AsyncNode)
	}
	made := make([][]uint32, owners)
	var wg sync.WaitGroup
	for w := 0; w < owners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b ids.Block
			for i := 0; i < perOwner; i++ {
				child, cont := tr.SpawnFrom(&b, scopes[w])
				made[w] = append(made[w], tr.Parent(child), child, cont)
			}
			b.Release()
		}(w)
	}
	wg.Wait()
	if want := int64(1+owners+owners*perOwner*3) * NodeBytes; tr.Bytes() != want {
		t.Fatalf("Bytes = %d after the releases, want %d", tr.Bytes(), want)
	}
	for w, nodes := range made {
		for i, n := range nodes {
			parent, kind := scopes[w], []Kind{AsyncNode, StepNode, StepNode}[i%3]
			if i%3 == 1 {
				parent = nodes[i-1]
			}
			if tr.Parent(n) != parent || tr.Kind(n) != kind || tr.Depth(n) != tr.Depth(parent)+1 || n <= parent || (i%3 > 0 && n != nodes[i-1]+1) {
				t.Fatalf("owner %d, node %d: %s under %d, want consecutive ids under %d", w, i, tr.Name(n), tr.Parent(n), parent)
			}
		}
	}
}

// TestChunkAllocatedOnce hammers the arena's growth: owners inserting
// into one tree at once, each from a block of its own, across 64 chunk
// boundaries and six doublings of the chunk table, while a reader loads
// the table over and over. Each refill publishes the chunks of the ids it
// drew, and where the owners' blocks meet a chunk boundary, or outrun the
// table, several can find a chunk missing at the same time: all but the
// first must adopt the first's chunk, not allocate one of their own and
// drop it, and a grown table must list every chunk of the old one before
// anyone can load it. So every chunk is published exactly once: no table
// the reader loads misses a chunk an earlier one listed, the table ends
// up listing each chunk the ids span, each the one its owners wrote
// into; every id below Len resolves to the record its insertion wrote or
// to one that is not Placed; and all the insertions allocate is the
// listed chunks, the tables and a slack of one chunk for the goroutines
// and the test itself.
func TestChunkAllocatedOnce(t *testing.T) {
	const (
		owners   = 4
		perOwner = 65 * chunkNodes / (3 * owners) // spawns: together past 64 chunk boundaries
		maxSeen  = 128                            // chunks the ids can span
	)
	tr := New()
	var scopes [owners]uint32
	for w := range scopes {
		scopes[w] = tr.NewChildFrom(nil, 0, AsyncNode)
	}
	// Everything the goroutines record is allocated before the count.
	var seen [owners][maxSeen]*chunk // the chunk each owner's spawns landed in
	var listed [maxSeen]bool         // the chunks some table the reader loaded listed
	var lost, tables atomic.Int64
	var done atomic.Bool
	start := make(chan struct{})
	var wg, reader sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reader.Add(1)
	go func() {
		defer reader.Done()
		<-start
		for !done.Load() {
			tab := *tr.tab.Load()
			tables.Add(1)
			for c := range tab[:min(len(tab), maxSeen)] {
				if tab[c].Load() != nil {
					listed[c] = true
				} else if listed[c] {
					lost.Add(1)
				}
			}
		}
	}()
	for w, scope := range scopes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b ids.Block
			<-start
			for i := 0; i < perOwner; i++ {
				child, _ := tr.SpawnFrom(&b, scope)
				if c := child >> chunkShift; seen[w][c] == nil {
					seen[w][c] = (*tr.tab.Load())[c].Load()
				}
			}
			b.Release()
		}()
	}
	close(start)
	wg.Wait()
	done.Store(true)
	reader.Wait()
	runtime.ReadMemStats(&after)
	spanned := uint32((tr.Len() - 1) >> chunkShift) // chunk 0 came with New
	if spanned < 64 || spanned >= maxSeen {
		t.Fatalf("the insertions spanned %d chunks, want at least 64 and below %d", spanned, maxSeen)
	}
	if lost.Load() > 0 {
		t.Fatalf("%d chunks missing from a table loaded after one that listed them (%d tables loaded)", lost.Load(), tables.Load())
	}
	// A release that hands a block's remainder back lowers Len, so the
	// chunks its refill published can lie past the ones Len spans: at
	// most one per owner.
	tab := *tr.tab.Load()
	inTable := uint32(0)
	for c := range tab {
		if tab[c].Load() != nil {
			inTable++
		} else if uint32(c) <= spanned {
			t.Fatalf("chunk %d not listed: %d chunks spanned", c, spanned+1)
		}
	}
	if inTable > spanned+1+owners {
		t.Fatalf("%d chunks listed, want at most the %d spanned and one per owner", inTable, spanned+1)
	}
	for w := range seen {
		for c, ch := range seen[w] {
			if ch != nil && tab[c].Load() != ch {
				t.Fatalf("owner %d wrote into a chunk %d the table does not list: it was allocated twice", w, c)
			}
		}
	}
	for id := uint32(0); int64(id) < tr.Len(); id++ {
		if n := tr.at(id); id > 0 && tr.Placed(id) && (n.parent >= id || n.depth() != tr.Depth(n.parent)+1) {
			t.Fatalf("id %d resolves to %+v under %+v", id, n, tr.at(n.parent))
		}
	}
	chunkBytes := uint64(unsafe.Sizeof(chunk{}))
	tableBytes := 2 * uint64(len(tab)) * uint64(unsafe.Sizeof(tab[0])) // every table grown so far
	// Chunk 0 came with New.
	made := uint64(inTable - 1)
	bound := made*chunkBytes + tableBytes + chunkBytes
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("allocating %d chunks allocated %d bytes, more than %d: %.1f chunks dropped",
			made, got, bound, float64(got-made*chunkBytes-tableBytes)/float64(chunkBytes))
	}
}
