package bench

import (
	"math"

	"spd3/internal/mem"
	"spd3/internal/task"
)

// runRacyMonteCarlo reproduces the benign race the paper found in the
// async/finish MonteCarlo rewrite (§6.1): every path task redundantly
// assigns the same initialization value to a shared location. The value
// is schedule-independent — the race is benign — but SPD3, being precise,
// must still report it: two parallel writes are two parallel writes.
func runRacyMonteCarlo(rt *task.Runtime, in Input) (float64, error) {
	paths := in.scaled(64, 8)
	pathLen := 16
	results := mem.NewArray[float64](rt, "racymc.results", paths)
	// The shared location every task redundantly initializes.
	initialized := mem.NewVar(rt, "racymc.init", 0.0)

	err := rt.Run(func(c *task.Ctx) {
		c.ParallelFor(0, paths, in.grain(c, paths), func(c *task.Ctx, p int) {
			initialized.Set(c, 1.0) // same value, every task: benign WW race
			r := newRNG(uint64(p) + 1)
			logS := math.Log(100.0)
			for s := 0; s < pathLen; s++ {
				logS += 0.001 + 0.01*r.gaussian()
			}
			results.Set(c, p, math.Exp(logS))
		})
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range results.Unchecked() {
		sum += v
	}
	return sum, nil
}

// runBarrierSOR is the original JGF SOR shape before the paper's rewrite
// (§6.3): a fixed set of persistent tasks sweeps the grid, separated by
// *correct* barriers instead of finish scopes. The program is genuinely
// race-free — FastTrack with barrier events certifies it — but barriers
// lie outside the async/finish model, so SPD3 reports the cross-phase
// sharing; the paper handled this by converting such programs to finish
// form (our SOR benchmark). Requires a parallel executor with at least 4
// pool workers.
func runBarrierSOR(rt *task.Runtime, in Input) (float64, error) {
	const parts = 4
	n := in.scaled(32, 8)
	if n%parts != 0 {
		n += parts - n%parts
	}
	iters := in.scaled(6, 2)
	const omega = 1.25
	g := mem.NewMatrix[float64](rt, "barriersor.G", n, n)
	r := newRNG(7)
	raw := g.Unchecked()
	for i := range raw {
		raw[i] = r.float64() * 1e-5
	}

	bar := rt.NewBarrier(parts)
	rows := n / parts
	err := rt.Run(func(c *task.Ctx) {
		c.FinishAsync(parts, func(c *task.Ctx, id int) {
			lo, hi := id*rows, (id+1)*rows
			if lo == 0 {
				lo = 1
			}
			if hi == n {
				hi = n - 1
			}
			for it := 0; it < iters; it++ {
				for color := 0; color < 2; color++ {
					for i := lo; i < hi; i++ {
						for j := 1 + (i+color)%2; j < n-1; j += 2 {
							v := omega/4*(g.Get(c, i-1, j)+g.Get(c, i+1, j)+
								g.Get(c, i, j-1)+g.Get(c, i, j+1)) +
								(1-omega)*g.Get(c, i, j)
							g.Set(c, i, j, v)
						}
					}
					bar.Await(c) // sweep barrier instead of a finish
				}
			}
		})
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range g.Unchecked() {
		sum += v
	}
	return sum, nil
}

// runBuggyBarrier reproduces the access pattern of the hand-rolled JGF
// barriers (§6.3): each "phase participant" sets its own slot of a shared
// flag array and then reads every other participant's slot — with no
// synchronization, exactly the unsynchronized spin-loop reads that made
// LUFact, MolDyn, RayTracer, and SOR racy in their original form. (The
// spin itself is elided: under a race detector one iteration of the
// polling loop already exhibits the racy accesses, and an actual spin
// would not terminate under depth-first execution.)
func runBuggyBarrier(rt *task.Runtime, in Input) (float64, error) {
	n := in.scaled(8, 4)
	flags := mem.NewArray[int](rt, "barrier.flags", n)

	err := rt.Run(func(c *task.Ctx) {
		c.ParallelFor(0, n, in.grain(c, n), func(c *task.Ctx, i int) {
			flags.Set(c, i, 1) // announce arrival
			seen := 0
			for j := 0; j < n; j++ { // poll the others: write-read races
				seen += flags.Get(c, j)
			}
			_ = seen
		})
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range flags.Unchecked() {
		sum += float64(v)
	}
	return sum, nil
}
