package dpst

import "testing"

// deepPair builds two steps whose LCA is the root, depth levels above
// them — the worst case for the §5.2 walk (it pointer-chases both full
// root paths) and the best case for the fingerprint compare (the first
// packed word already differs).
func deepPair(depth int) (*Node, *Node) {
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

// sharedPair builds two steps under a common trunk of the given depth:
// the LCA sits just above the leaves. This is the walk's best case (two
// hops) and the fingerprint's worst (the whole shared prefix is
// compared word by word), so together with deepPair it brackets both
// implementations.
func sharedPair(depth int) (*Node, *Node) {
	t := New()
	trunk := t.Root()
	for i := 0; i < depth; i++ {
		trunk = t.NewChild(trunk, FinishNode)
	}
	a := t.NewChild(t.NewChild(trunk, AsyncNode), StepNode)
	b := t.NewChild(t.NewChild(trunk, AsyncNode), StepNode)
	return a, b
}

// overflowPair builds a deepPair whose paths start with a sibling index
// past maxDigitSeq, so fingerprints are invalid and Relation dispatches to
// the pointer-walk fallback — the fallback's full cost, including the
// validity check.
func overflowPair(depth int) (*Node, *Node) {
	t := New()
	for i := 0; i <= maxDigitSeq; i++ {
		t.NewChild(t.Root(), StepNode)
	}
	left, right := t.NewChild(t.Root(), AsyncNode), t.NewChild(t.Root(), FinishNode)
	for i := 1; i < depth; i++ {
		left = t.NewChild(left, AsyncNode)
		right = t.NewChild(right, FinishNode)
	}
	return t.NewChild(left, StepNode), t.NewChild(right, StepNode)
}

// benchDepths spans the inline regime (8), a moderately deep spill
// (64), and a very deep spill (512).
var benchDepths = []int{8, 64, 512}

func BenchmarkNewChild(b *testing.B) {
	t := New()
	parent := t.Root()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.NewChild(parent, StepNode)
	}
}

// BenchmarkNewChildDeep measures insertion at depth 64, where every new
// node copies its spill words.
func BenchmarkNewChildDeep(b *testing.B) {
	t := New()
	parent := t.Root()
	for i := 0; i < 64; i++ {
		parent = t.NewChild(parent, FinishNode)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.NewChild(parent, StepNode)
	}
}

// BenchmarkDMHPWalk is the §5.2 pointer walk on the same pairs: the
// cost the fast path removes, and what overflow fallback degrades to.
func BenchmarkDMHPWalk(b *testing.B) {
	for _, depth := range benchDepths {
		s1, s2 := deepPair(depth)
		b.Run(itoa(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relationWalk(s1, s2)
			}
		})
	}
}

// BenchmarkDMHPFallback routes through Relation's dispatch with
// invalid fingerprints: the real price of the fallback (validity check
// plus walk).
func BenchmarkDMHPFallback(b *testing.B) {
	for _, depth := range benchDepths {
		s1, s2 := overflowPair(depth)
		b.Run(itoa(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Relation(s1, s2)
			}
		})
	}
}

// BenchmarkDMHPSharedPrefix is the fingerprint path's worst shape: a
// deep common trunk scanned word by word, where the walk would need
// only two hops.
func BenchmarkDMHPSharedPrefix(b *testing.B) {
	for _, depth := range benchDepths {
		s1, s2 := sharedPair(depth)
		b.Run(itoa(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Relation(s1, s2)
			}
		})
	}
}

// BenchmarkRelation is the fingerprint fast path on the root-diverging
// pair: the detector's hot-path query (parallelism + LCA depth in one
// shot).
func BenchmarkRelation(b *testing.B) {
	for _, depth := range benchDepths {
		s1, s2 := deepPair(depth)
		b.Run(itoa(depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Relation(s1, s2)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
