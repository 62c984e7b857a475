package bench

import (
	"spd3/internal/mem"
	"spd3/internal/task"
)

// runFannkuch computes the maximum pancake-flip count over all
// permutations of 1..k, parallelized over the k groups fixing the last
// element. Permutation state is task-local (raw, per the §5.5 escape
// analysis); only the per-group maxima are monitored. The near-absence
// of monitored accesses makes this the Figure 3 benchmark with slowdown
// closest to 1×.
func runFannkuch(rt *task.Runtime, in Input) (float64, error) {
	k := in.scaled(8, 5)
	if k > 9 {
		k = 9
	}
	maxima := mem.NewArray[int](rt, "fannkuch.max", k)

	err := rt.Run(func(c *task.Ctx) {
		c.ParallelFor(0, k, in.grain(c, k), func(c *task.Ctx, group int) {
			maxima.Set(c, group, fannkuchGroup(k, group))
		})
	})
	if err != nil {
		return 0, err
	}
	best := 0
	for _, v := range maxima.Unchecked() {
		if v > best {
			best = v
		}
	}
	return float64(best), nil
}

// fannkuchGroup enumerates the (k-1)! permutations of 1..k whose last
// element is group+1 and returns the maximum flip count among them.
func fannkuchGroup(k, group int) int {
	// Base permutation with group+1 rotated to the last slot.
	perm0 := make([]int, k)
	for i := range perm0 {
		perm0[i] = i + 1
	}
	perm0[k-1], perm0[group] = perm0[group], perm0[k-1]

	head := perm0[:k-1]
	count := make([]int, k-1)
	perm := make([]int, k)
	best := 0
	for {
		copy(perm, perm0)
		if f := flips(perm); f > best {
			best = f
		}
		// Next permutation of the head, counting-QR style (Heap-like
		// rotation scheme from the shootout reference).
		i := 1
		for ; i < k-1; i++ {
			first := head[0]
			copy(head, head[1:i+1])
			head[i] = first
			if count[i] < i {
				count[i]++
				break
			}
			count[i] = 0
		}
		if i == k-1 {
			return best
		}
	}
}

// flips counts pancake flips until element 1 reaches the front.
func flips(p []int) int {
	n := 0
	for p[0] != 1 {
		f := p[0]
		for i, j := 0, f-1; i < j; i, j = i+1, j-1 {
			p[i], p[j] = p[j], p[i]
		}
		n++
	}
	return n
}
