package task

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestBarrierPhases checks the core guarantee: all writes of phase p are
// visible to every participant in phase p+1.
func TestBarrierPhases(t *testing.T) {
	for _, cfg := range []Config{
		{Executor: Pool, Workers: 4}, // one worker per participant
		{Executor: Pool, Workers: 8},
	} {
		cfg := cfg
		t.Run(cfg.Executor.String(), func(t *testing.T) {
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const (
				parts  = 4
				phases = 5
			)
			bar := rt.NewBarrier(parts)
			var cells [parts]atomic.Int64
			err = rt.Run(func(c *Ctx) {
				c.FinishAsync(parts, func(c *Ctx, id int) {
					for p := 0; p < phases; p++ {
						cells[id].Add(1)
						bar.Await(c)
						// Everyone must have finished phase p.
						for other := 0; other < parts; other++ {
							if got := cells[other].Load(); got < int64(p+1) {
								t.Errorf("participant %d saw cells[%d] = %d in phase %d",
									id, other, got, p)
							}
						}
						bar.Await(c) // phase barrier before next writes
					}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrierSingleParticipant(t *testing.T) {
	rt, err := New(Config{Executor: Pool, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bar := rt.NewBarrier(1)
	err = rt.Run(func(c *Ctx) {
		for i := 0; i < 10; i++ {
			bar.Await(c) // never blocks
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierNeedsEnoughPoolWorkers(t *testing.T) {
	rt, err := New(Config{Executor: Pool, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bar := rt.NewBarrier(4)
	err = rt.Run(func(c *Ctx) {
		c.FinishAsync(4, func(c *Ctx, id int) { bar.Await(c) })
	})
	if err == nil || !strings.Contains(err.Error(), "pool workers") {
		t.Fatalf("err = %v, want clear worker-count error", err)
	}
}

func TestBarrierSequentialExecutorPanics(t *testing.T) {
	rt, err := New(Config{Executor: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	bar := rt.NewBarrier(2)
	err = rt.Run(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			c.Async(func(c *Ctx) { bar.Await(c) })
			c.Async(func(c *Ctx) { bar.Await(c) })
		})
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock panic captured as error", err)
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	rt, err := New(Config{Executor: Pool, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bar := rt.NewBarrier(2)
	var rounds atomic.Int64
	err = rt.Run(func(c *Ctx) {
		c.FinishAsync(2, func(c *Ctx, id int) {
			for p := 0; p < 100; p++ {
				bar.Await(c)
			}
			rounds.Add(1)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds.Load() != 2 {
		t.Fatalf("rounds = %d", rounds.Load())
	}
}
