package bench

import (
	"spd3/internal/mem"
	"spd3/internal/task"
)

// runHealth is a BOTS-style discrete simulation of a multilevel health
// system: a tree of villages where patients arrive at the leaves, are
// treated up to local capacity, and the remainder are referred to the
// parent hospital. Each simulation step processes one tree level per
// finish, one village per task, bottom-up; referrals go through
// per-child inbox slots so all writes are disjoint and the level barrier
// orders producer and consumer.
func runHealth(rt *task.Runtime, in Input) (float64, error) {
	const branch = 3
	depth := 4 // 40 villages
	steps := in.scaled(100, 4)

	// Build the tree level by level.
	type level struct{ lo, hi int }
	var levels []level
	parent := []int{-1}
	slot := []int{0} // index among parent's children
	lo := 0
	for d := 0; d < depth; d++ {
		hi := len(parent)
		levels = append(levels, level{lo, hi})
		if d < depth-1 {
			for v := lo; v < hi; v++ {
				for s := 0; s < branch; s++ {
					parent = append(parent, v)
					slot = append(slot, s)
				}
			}
		}
		lo = hi
	}
	n := len(parent)

	waiting := mem.NewArray[int](rt, "health.waiting", n)
	treated := mem.NewArray[int](rt, "health.treated", n)
	inbox := mem.NewArray[int](rt, "health.inbox", n*branch)

	err := rt.Run(func(c *task.Ctx) {
		for s := 0; s < steps; s++ {
			// Bottom-up: deepest level first, one finish per level.
			for d := len(levels) - 1; d >= 0; d-- {
				lv := levels[d]
				isLeaf := d == len(levels)-1
				s := s
				c.ParallelFor(lv.lo, lv.hi, in.grain(c, lv.hi-lv.lo), func(c *task.Ctx, v int) {
					w := waiting.Get(c, v)
					// Absorb referrals from children (written in
					// the previous, deeper finish).
					if !isLeaf {
						for k := 0; k < branch; k++ {
							ib := v*branch + k
							w += inbox.Get(c, ib)
							inbox.Set(c, ib, 0)
						}
					}
					// New arrivals at the leaves.
					if isLeaf {
						r := newRNG(uint64(v)*1000003 + uint64(s))
						w += r.intn(3)
					}
					// Treat up to capacity; capacity grows toward
					// the root.
					capacity := 1 << (len(levels) - 1 - d)
					cure := w
					if cure > capacity {
						cure = capacity
					}
					w -= cure
					treated.Set(c, v, treated.Get(c, v)+cure)
					// Refer half of the remainder upward.
					if p := parent[v]; p >= 0 && w > 0 {
						up := (w + 1) / 2
						w -= up
						inbox.Set(c, p*branch+slot[v], up)
					}
					waiting.Set(c, v, w)
				})
			}
		}
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range treated.Unchecked() {
		sum += float64(v)
	}
	for _, v := range waiting.Unchecked() {
		sum += float64(v)
	}
	return sum, nil
}
