package mem

import (
	"fmt"
	"strings"
	"testing"

	"spd3/internal/task"
)

func sumAcc(t *testing.T, cfg task.Config) {
	t.Helper()
	rt, err := task.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(rt, func(a, b int) int { return a + b })
	err = rt.Run(func(c *task.Ctx) {
		c.FinishAsync(100, func(c *task.Ctx, i int) {
			acc.Put(c, i)
		})
		got, ok := acc.Value()
		if !ok || got != 4950 {
			t.Errorf("Value = (%d, %v), want (4950, true)", got, ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorSum(t *testing.T) {
	for _, cfg := range []task.Config{
		{Executor: task.Sequential},
		{Executor: task.Pool, Workers: 1},
		{Executor: task.Pool, Workers: 8},
	} {
		sumAcc(t, cfg)
	}
}

// TestAccumulatorRefusesForeignTask: an accumulator's slots are its
// runtime's workers', so a Put from a task of another runtime — whose
// worker ids are in range too — would share a slot unsynchronized with
// this runtime's tasks; it panics instead, naming both runtimes.
func TestAccumulatorRefusesForeignTask(t *testing.T) {
	own, err := task.New(task.Config{Executor: task.Pool, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	other, err := task.New(task.Config{Executor: task.Pool, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(own, func(a, b int) int { return a + b })
	err = other.Run(func(c *task.Ctx) { acc.Put(c, 1) })
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%p", own)) || !strings.Contains(err.Error(), fmt.Sprintf("%p", other)) {
		t.Fatalf("Put from another runtime's task: err = %v, want a panic naming runtimes %p and %p", err, own, other)
	}
	if _, ok := acc.Value(); ok {
		t.Fatal("the refused Put reached a slot")
	}
}

func TestAccumulatorMax(t *testing.T) {
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	max := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	acc := NewAccumulator(rt, max)
	err = rt.Run(func(c *task.Ctx) {
		c.FinishAsync(64, func(c *task.Ctx, i int) {
			acc.Put(c, (i*37)%64)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := acc.Value(); !ok || got != 63 {
		t.Fatalf("max = (%d, %v), want (63, true)", got, ok)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(rt, func(a, b int) int { return a + b })
	if _, ok := acc.Value(); ok {
		t.Fatal("empty accumulator reported a value")
	}
}

func TestAccumulatorReset(t *testing.T) {
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(rt, func(a, b int) int { return a + b })
	for round := 1; round <= 3; round++ {
		err := rt.Run(func(c *task.Ctx) {
			c.FinishAsync(10, func(c *task.Ctx, i int) { acc.Put(c, 1) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := acc.Value(); got != 10 {
			t.Fatalf("round %d: Value = %d, want 10", round, got)
		}
		acc.Reset()
	}
}

// TestAccumulatorNonCommutativeFloat: partials keep per-worker order, so
// floating-point sums are deterministic per worker count under the
// sequential executor.
func TestAccumulatorZeroIsNotIdentityTrap(t *testing.T) {
	// Products: the first Put must store rather than multiply with the
	// zero value (which would pin the result at 0).
	rt, err := task.New(task.Config{Executor: task.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(rt, func(a, b int) int { return a * b })
	err = rt.Run(func(c *task.Ctx) {
		c.FinishAsync(4, func(c *task.Ctx, i int) { acc.Put(c, i+1) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := acc.Value(); got != 24 {
		t.Fatalf("product = %d, want 24", got)
	}
}
