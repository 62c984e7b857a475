package dpst

import (
	"strconv"
	"sync"
	"testing"

	"spd3/internal/ids"
)

// farPair builds two steps whose LCA is the root, depth levels above
// them: the §5.2 walk's worst case (it chases both full root paths),
// which no committed workload issues and which a path-label scheme
// (ROADMAP's DePa item) has to beat.
func farPair(depth int) (*Tree, uint32, uint32) {
	t := New()
	left, right := uint32(0), uint32(0)
	for i := 0; i < depth; i++ {
		left = t.NewChildFrom(nil, left, AsyncNode)
	}
	for i := 0; i < depth; i++ {
		right = t.NewChildFrom(nil, right, FinishNode)
	}
	return t, t.NewChildFrom(nil, left, StepNode), t.NewChildFrom(nil, right, StepNode)
}

// nearPair builds two steps in sibling subtrees under a common trunk of
// the given depth, the LCA two and three levels above them: the shape
// every workload's queries have (4–7 parent hops at any tree depth; see
// EXPERIMENTS.md).
func nearPair(depth int) (*Tree, uint32, uint32) {
	t := New()
	trunk := uint32(0)
	for i := 0; i < depth; i++ {
		trunk = t.NewChildFrom(nil, trunk, FinishNode)
	}
	add := func(parent uint32, kind Kind) uint32 { return t.NewChildFrom(nil, parent, kind) }
	a := add(add(add(trunk, AsyncNode), FinishNode), StepNode)
	b := add(add(trunk, AsyncNode), StepNode)
	return t, a, b
}

// The sinks keep the measured calls' results alive.
var (
	sinkID   uint32
	sinkBool bool
)

func BenchmarkNewChild(b *testing.B) {
	t := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkID = t.NewChildFrom(nil, 0, StepNode)
	}
}

// BenchmarkNewChildDeep measures insertion at depth 64; it reads the
// same as BenchmarkNewChild.
func BenchmarkNewChildDeep(b *testing.B) {
	t := New()
	parent := uint32(0)
	for i := 0; i < 64; i++ {
		parent = t.NewChildFrom(nil, parent, FinishNode)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkID = t.NewChildFrom(nil, parent, StepNode)
	}
}

// BenchmarkSpawnTwoOwners is the engine_spawn shape: two workers inserting
// into one tree at once, each spawning under a scope it owns (b.N spawns
// between them). In the shared cell every spawn is three insertions, each
// drawing its id from the tree's one counter, which the two workers'
// caches pass back and forth; in the blocks cell each worker takes them
// from an id block of its own, as the detector does (SpawnFrom), and
// shares only a draw per ids.BlockSize ids.
func BenchmarkSpawnTwoOwners(b *testing.B) {
	for _, cell := range []struct {
		name  string
		spawn func(t *Tree, blk *ids.Block, scope uint32)
	}{
		{"shared", func(t *Tree, _ *ids.Block, scope uint32) {
			t.NewChildFrom(nil, t.NewChildFrom(nil, scope, AsyncNode), StepNode)
			t.NewChildFrom(nil, scope, StepNode)
		}},
		{"blocks", func(t *Tree, blk *ids.Block, scope uint32) { t.SpawnFrom(blk, scope) }},
	} {
		b.Run(cell.name, func(b *testing.B) {
			t := New()
			scopes := [2]uint32{t.NewChildFrom(nil, 0, AsyncNode), t.NewChildFrom(nil, 0, AsyncNode)}
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
		pair func(depth int) (*Tree, uint32, uint32)
	}{{"near", nearPair}, {"far", farPair}} {
		for _, depth := range []int{8, 64, 512} {
			t, s1, s2 := shape.pair(depth)
			b.Run(shape.name+"/depth="+strconv.Itoa(depth), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkBool, sinkID = t.DMHP(s1, s2)
				}
			})
		}
	}
}
