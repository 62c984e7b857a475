package mem

import (
	"testing"

	"spd3/internal/task"
)

// The Ctx-scoped constructors attribute the container's initializing
// (zeroing) writes to the allocating task. Under the sequential
// executor the first async runs to completion before its sibling, so a
// sibling that reads the container deterministically observes the
// creation writes — and the two steps are unordered in the DPST, so the
// detector must report the read against the allocation.

func TestNewArrayInCreationWriteVsSiblingRead(t *testing.T) {
	rt, sink := newRT(t)
	var a *Array[int]
	err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { a = NewArray[int](c, "a", 4) })
			c.Async(func(c *task.Ctx) { _ = a.Get(c, 2) })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Empty() {
		t.Fatal("sibling read of a task-allocated array not reported against the creation write")
	}
}

func TestNewVarInCreationWriteVsSiblingWrite(t *testing.T) {
	rt, sink := newRT(t)
	var v *Var[int]
	err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { v = NewVar(c, "v", 0) })
			c.Async(func(c *task.Ctx) { v.Set(c, 1) })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Empty() {
		t.Fatal("sibling write of a task-allocated var not reported against the creation write")
	}
}

func TestNewMapInCreationWriteVsSiblingInsert(t *testing.T) {
	rt, sink := newRT(t)
	var m *Map[int, int]
	err := rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { m = NewMap[int, int](c, "m") })
			c.Async(func(c *task.Ctx) { m.Set(c, 1, 1) })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Empty() {
		t.Fatal("sibling insert into a task-allocated map not reported against the creation write")
	}
}

func TestCtxScopedCreationThenDescendantUseIsClean(t *testing.T) {
	// Allocation happens-before everything the allocating task spawns
	// afterwards, so create-then-fan-out is race-free — the pattern
	// spd3inst's rewrites produce for allocations in the root body.
	rt, sink := newRT(t)
	err := rt.Run(func(c *task.Ctx) {
		a := NewArray[int](c, "a", 8)
		m := NewMatrix[int](c, "m", 2, 4)
		v := NewVar(c, "v", 0)
		l := NewList[int](c, "l")
		mp := NewMap[int, int](c, "mp")
		mu := NewMutex(c)
		c.FinishAsync(8, func(c *task.Ctx, i int) {
			a.Set(c, i, i)
			m.Set(c, i/4, i%4, i)
			mu.Lock(c)
			mu.Unlock(c)
		})
		v.Set(c, a.Get(c, 3))
		l.Append(c, v.Get(c))
		mp.Set(c, 1, l.Get(c, 0))
		if got := mp.Get(c, 1); got != 3 {
			t.Errorf("roundtrip = %d, want 3", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Empty() {
		t.Fatalf("create-then-fan-out raced: %v", sink.Races())
	}
}

func TestVarUnchecked(t *testing.T) {
	rt, sink := newRT(t)
	v := NewVar(rt, "v", 41)
	*v.Unchecked()++ // sequential phase: uninstrumented is legitimate
	err := rt.Run(func(c *task.Ctx) {
		if got := v.Get(c); got != 42 {
			t.Errorf("v = %d, want 42", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Empty() {
		t.Fatalf("races: %v", sink.Races())
	}
}
