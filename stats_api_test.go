package spd3_test

import (
	"strings"
	"testing"

	"spd3"
)

// TestOnRaceStreaming: with Options.OnRace set, each distinct race goes
// to the callback — site already attached when CaptureSites is on — and
// Report.Races stays empty.
func TestOnRaceStreaming(t *testing.T) {
	var got []spd3.Race
	eng, err := spd3.New(spd3.Options{
		Executor:     spd3.Sequential, // callback runs inline: no locking needed
		OnRace:       func(r spd3.Race) bool { got = append(got, r); return false },
		CaptureSites: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := spd3.NewArray[int](eng, "a", 4)
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.Finish(func(c *spd3.Ctx) {
			for i := 0; i < 4; i++ {
				i := i
				c.Async(func(c *spd3.Ctx) { a.Set(c, i, 1) })
				c.Async(func(c *spd3.Ctx) { a.Set(c, i, 2) })
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 0 {
		t.Fatalf("streaming mode buffered %d races", len(rep.Races))
	}
	if len(got) != 4 {
		t.Fatalf("callback received %d races, want 4 (one per location)", len(got))
	}
	seen := map[int]bool{}
	for _, r := range got {
		if r.Region != "a" || r.Kind != spd3.WriteWrite {
			t.Fatalf("unexpected race %v", r)
		}
		if !strings.Contains(r.CurStep, " at stats_api_test.go:") {
			t.Fatalf("streamed race lacks source site: %v", r)
		}
		if seen[r.Index] {
			t.Fatalf("location a[%d] streamed twice", r.Index)
		}
		seen[r.Index] = true
	}
}

// TestOnRaceHalt: returning true from the callback halts detection like
// HaltOnFirstRace does.
func TestOnRaceHalt(t *testing.T) {
	var calls int
	eng, err := spd3.New(spd3.Options{
		Executor: spd3.Sequential,
		OnRace:   func(spd3.Race) bool { calls++; return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	a := spd3.NewArray[int](eng, "a", 16)
	if _, err := eng.Run(func(c *spd3.Ctx) {
		c.Finish(func(c *spd3.Ctx) {
			for i := 0; i < 16; i++ {
				i := i
				c.Async(func(c *spd3.Ctx) { a.Set(c, i, 1) })
				c.Async(func(c *spd3.Ctx) { a.Set(c, i, 2) })
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("halting callback invoked %d times, want 1", calls)
	}
}

// TestStatsReported: a default engine surfaces nonzero counters for the
// shadow protocol, DMHP resolution, scheduling, and memory traffic.
func TestStatsReported(t *testing.T) {
	eng, err := spd3.New(spd3.Options{Workers: 4, Detector: spd3.SPD3})
	if err != nil {
		t.Fatal(err)
	}
	src := spd3.NewArray[int](eng, "src", 8)
	out := spd3.NewArray[int](eng, "out", 4)
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(4, func(c *spd3.Ctx, id int) {
			total := 0
			for i := 0; i < 8; i++ {
				total += src.Get(c, i) // read-shared: exercises DMHP
			}
			out.Set(c, id, total) // disjoint writes
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RaceFree() {
		t.Fatalf("unexpected races: %v", rep.Races)
	}
	m := rep.Stats.Map()
	for _, key := range []string{"cas.publish", "dmhp.walk", "task.spawn", "mem.reads", "mem.writes"} {
		if m[key] == 0 {
			t.Errorf("%s = 0, want > 0 (map: %v)", key, m)
		}
	}
	if rep.Stats.Footprint.ShadowBytes == 0 {
		t.Errorf("Stats.Footprint not populated: %+v", rep.Stats.Footprint)
	}
	if !strings.Contains(rep.Stats.String(), "mem:") {
		t.Errorf("Stats.String() = %q", rep.Stats.String())
	}
}

// TestNoStats: the ablation switch zeroes every counter but keeps the
// detector's footprint accounting (which is analytic, not counted).
func TestNoStats(t *testing.T) {
	eng, err := spd3.New(spd3.Options{Workers: 4, NoStats: true})
	if err != nil {
		t.Fatal(err)
	}
	a := spd3.NewArray[int](eng, "a", 64)
	rep, err := eng.Run(func(c *spd3.Ctx) {
		c.FinishAsync(4, func(c *spd3.Ctx, id int) {
			for i := id * 16; i < (id+1)*16; i++ {
				a.Set(c, i, i)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range rep.Stats.Map() {
		if strings.HasPrefix(key, "footprint.") {
			continue
		}
		if v != 0 {
			t.Errorf("NoStats left %s = %d", key, v)
		}
	}
	if rep.Stats.Footprint.ShadowBytes == 0 {
		t.Error("NoStats must not disable footprint accounting")
	}
}

// TestEngineReuseStatsReset: counters cover exactly one Run — a reused
// engine reports per-run snapshots, not a running total.
func TestEngineReuseStatsReset(t *testing.T) {
	eng, err := spd3.New(spd3.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := spd3.NewArray[int](eng, "a", 8)
	var writes []int64
	for round := 0; round < 3; round++ {
		rep, err := eng.Run(func(c *spd3.Ctx) {
			c.FinishAsync(8, func(c *spd3.Ctx, i int) { a.Set(c, i, i) })
		})
		if err != nil {
			t.Fatal(err)
		}
		writes = append(writes, rep.Stats.Writes)
	}
	for round, w := range writes {
		if w != 8 {
			t.Errorf("round %d: Stats.Writes = %d, want 8 (stale counters?)", round, w)
		}
	}
}
