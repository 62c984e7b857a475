package bench

import (
	"spd3/internal/mem"
	"spd3/internal/task"
)

// runNQueens counts the solutions of the n-queens problem. The first two
// ranks are explored as parallel tasks (the BOTS cutoff style); each task
// searches its subtree sequentially with bitmask board state and writes
// its count into a distinct result slot, summed after the finish.
func runNQueens(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(9, 5)
	if n > 12 {
		n = 12
	}
	counts := mem.NewArray[int](rt, "nqueens.counts", n*n)

	err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					a, b := a, b
					colA := uint32(1) << a
					colB := uint32(1) << b
					if colA == colB || a == b+1 || b == a+1 {
						continue // attacked
					}
					c.Async(func(c *task.Ctx) {
						// Attack masks as seen from row 2: a queen
						// placed r rows above shifts its diagonal
						// bit by r.
						count := queens(n, 2,
							colA|colB,
							colA<<2|colB<<1,
							colA>>2|colB>>1)
						counts.Set(c, a*n+b, count)
					})
				}
			}
		})
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, v := range counts.Unchecked() {
		total += v
	}
	return float64(total), nil
}

// queens counts completions from row with the given column and diagonal
// attack masks (standard bitmask backtracking).
func queens(n, row int, cols, diagL, diagR uint32) int {
	if row == n {
		return 1
	}
	count := 0
	full := uint32(1)<<n - 1
	free := full &^ (cols | diagL | diagR)
	for free != 0 {
		bit := free & -free
		free ^= bit
		count += queens(n, row+1, cols|bit, (diagL|bit)<<1, (diagR|bit)>>1)
	}
	return count
}
