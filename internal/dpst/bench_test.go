package dpst

import (
	"strconv"
	"sync"
	"testing"

	"spd3/internal/ids"
)

// farPair builds two steps whose LCA is the root, depth levels above
// them: the §5.2 walk's worst case (it pointer-chases both full root
// paths), which no committed workload issues and which a path-label
// scheme (ROADMAP's DePa item) has to beat.
func farPair(depth int) (*Node, *Node) {
	t := New()
	left, right := t.Root(), t.Root()
	for i := 0; i < depth; i++ {
		left = t.NewChild(left, AsyncNode)
	}
	for i := 0; i < depth; i++ {
		right = t.NewChild(right, FinishNode)
	}
	return t.NewChild(left, StepNode), t.NewChild(right, StepNode)
}

// nearPair builds two steps in sibling subtrees under a common trunk of
// the given depth, the LCA two and three levels above them: the shape
// every workload's queries have (4–7 parent hops at any tree depth; see
// EXPERIMENTS.md).
func nearPair(depth int) (*Node, *Node) {
	t := New()
	trunk := t.Root()
	for i := 0; i < depth; i++ {
		trunk = t.NewChild(trunk, FinishNode)
	}
	a := t.NewChild(t.NewChild(t.NewChild(trunk, AsyncNode), FinishNode), StepNode)
	b := t.NewChild(t.NewChild(trunk, AsyncNode), StepNode)
	return a, b
}

// The sinks keep the measured calls alive: sinkNode puts the inlined
// NewChild's node on the heap, as every real caller's is.
var sinkNode *Node

func BenchmarkNewChild(b *testing.B) {
	t := New()
	parent := t.Root()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkNode = t.NewChild(parent, StepNode)
	}
}

// BenchmarkNewChildDeep measures insertion at depth 64; it reads the
// same as BenchmarkNewChild.
func BenchmarkNewChildDeep(b *testing.B) {
	t := New()
	parent := t.Root()
	for i := 0; i < 64; i++ {
		parent = t.NewChild(parent, FinishNode)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNode = t.NewChild(parent, StepNode)
	}
}

// BenchmarkSpawnTwoOwners is the engine_spawn shape: two workers inserting
// into one tree at once, each spawning under a scope it owns (b.N spawns
// between them). In the shared cell every spawn is three NewChild calls,
// each drawing its id from the tree's one counter, which the two workers'
// caches pass back and forth;
// in the blocks cell each worker takes them from an id block of its own,
// as the detector does (SpawnFrom), and shares only a draw per
// ids.BlockSize ids.
func BenchmarkSpawnTwoOwners(b *testing.B) {
	for _, cell := range []struct {
		name  string
		spawn func(t *Tree, blk *ids.Block, scope *Node)
	}{
		{"shared", func(t *Tree, _ *ids.Block, scope *Node) {
			t.NewChild(t.NewChild(scope, AsyncNode), StepNode)
			t.NewChild(scope, StepNode)
		}},
		{"blocks", func(t *Tree, blk *ids.Block, scope *Node) { t.SpawnFrom(blk, scope) }},
	} {
		b.Run(cell.name, func(b *testing.B) {
			t := New()
			scopes := [2]*Node{t.NewChild(t.Root(), AsyncNode), t.NewChild(t.Root(), AsyncNode)}
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for _, scope := range scopes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var blk ids.Block
					for i := 0; i < b.N/2; i++ {
						cell.spawn(t, &blk, scope)
					}
					blk.Release()
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkRelation is the detector's query, DMHP (parallelism + the first
// node's side of the LCA in one walk), on the shape the workloads issue and
// on the worst case.
func BenchmarkRelation(b *testing.B) {
	for _, shape := range []struct {
		name string
		pair func(depth int) (*Node, *Node)
	}{{"near", nearPair}, {"far", farPair}} {
		for _, depth := range []int{8, 64, 512} {
			s1, s2 := shape.pair(depth)
			b.Run(shape.name+"/depth="+strconv.Itoa(depth), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, sinkNode = DMHP(s1, s2)
				}
			})
		}
	}
}
