package spd3_test

import (
	"fmt"
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

// TestExecutorsCountExactly: the check path's counts live in the scratch
// block of whichever goroutine executes tasks (detect.Local) and reach
// the recorder once, when that goroutine's owner flushes it. Whatever the
// executor, a run's report holds every count of the run and nothing else:
// of a second run on the same engine only its own, of a run whose main
// body panicked everything up to the panic.
func TestExecutorsCountExactly(t *testing.T) {
	const tasks, n, part = 16, 64, 8
	for _, e := range []struct {
		name string
		opts spd3.Options
	}{
		{"sequential", spd3.Options{Executor: spd3.Sequential}},
		{"pool-1", spd3.Options{Executor: spd3.Pool, Workers: 1}},
		{"pool-4", spd3.Options{Executor: spd3.Pool, Workers: 4}},
		{"goroutines", spd3.Options{Executor: spd3.Goroutines}},
	} {
		t.Run(e.name, func(t *testing.T) {
			eng, err := spd3.New(e.opts)
			if err != nil {
				t.Fatal(err)
			}
			src := spd3.NewArray[int](eng, "src", n)
			out := spd3.NewArray[int](eng, "out", tasks)
			// The main task writes src; each of `tasks` asyncs reads
			// all of it, has a child read a part again and writes its
			// own out cell; the main task reads half of out back, panics
			// if told to — outside any finish of its own, where every task
			// it spawned has been joined — and reads the other half.
			program := func(giveUp bool) func(c *spd3.Ctx) {
				return func(c *spd3.Ctx) {
					for i := 0; i < n; i++ {
						src.Set(c, i, i)
					}
					c.Finish(func(c *spd3.Ctx) {
						for id := 0; id < tasks; id++ {
							c.Async(func(c *spd3.Ctx) {
								sum := 0
								for i := 0; i < n; i++ {
									sum += src.Get(c, i)
								}
								c.Finish(func(c *spd3.Ctx) {
									c.Async(func(c *spd3.Ctx) {
										for i := 0; i < part; i++ {
											sum += src.Get(c, i)
										}
									})
								})
								out.Set(c, id, sum)
							})
						}
					})
					for id := 0; id < tasks; id++ {
						if giveUp && id == tasks/2 {
							panic("main body gives up")
						}
						out.Get(c, id)
					}
				}
			}
			check := func(what string, rep *spd3.Report, outReads int64) {
				t.Helper()
				if !rep.RaceFree() {
					t.Fatalf("%s: unexpected races: %v", what, rep.Races)
				}
				want := map[string][2]int64{"src": {tasks * (n + part), n}, "out": {outReads, tasks}}
				if len(rep.Stats.Regions) != len(want) {
					t.Errorf("%s: the report names %d regions, want %d", what, len(rep.Stats.Regions), len(want))
				}
				for _, g := range rep.Stats.Regions {
					if w := want[g.Name]; g.Reads != w[0] || g.Writes != w[1] {
						t.Errorf("%s: region %s counts %d reads, %d writes, want %d and %d", what, g.Name, g.Reads, g.Writes, w[0], w[1])
					}
				}
				accesses := int64(tasks*(n+part+1)+n) + outReads
				m := rep.Stats.Map()
				for _, c := range []struct {
					what      string
					got, want int64
				}{
					{"mem.reads + mem.writes", m["mem.reads"] + m["mem.writes"], accesses},
					{"task.spawn", m["task.spawn"], 2 * tasks},
					{"cas.clean + cas.publish", m["cas.clean"] + m["cas.publish"], accesses},
					{"shadow.page_cache_hit + shadow.page_cache_miss", m["shadow.page_cache_hit"] + m["shadow.page_cache_miss"], accesses},
				} {
					if c.got != c.want {
						t.Errorf("%s: %s = %d, want %d", what, c.what, c.got, c.want)
					}
				}
				ran := int64(0) // the tasks a worker picked up, or ran inline
				if e.opts.Executor != spd3.Goroutines {
					ran = 2 * tasks
				}
				if got := m["task.inline"] + m["task.steal"]; got != ran {
					t.Errorf("%s: task.inline + task.steal = %d, want %d", what, got, ran)
				}
				if e.opts.Executor == spd3.Sequential && m["task.steal"] != 0 {
					t.Errorf("%s: the sequential executor stole %d tasks", what, m["task.steal"])
				}
			}
			for _, run := range []string{"first run", "second run"} {
				rep, err := eng.Run(program(false))
				if err != nil {
					t.Fatal(err)
				}
				check(run, rep, tasks)
			}
			rep, err := eng.Run(program(true))
			if err == nil {
				t.Fatal("a panicking main body returned no error")
			}
			check("panicking run", rep, tasks/2)

			// Every task interleaves twelve arrays in its inner loop and
			// each region's counts are exact.
			const arrays = 12
			wide, err := spd3.New(e.opts)
			if err != nil {
				t.Fatal(err)
			}
			var in [arrays - 1]*spd3.Array[int]
			for a := range in {
				in[a] = spd3.NewArray[int](wide, fmt.Sprint("in", a), n)
			}
			sums := spd3.NewArray[int](wide, "sums", tasks*n)
			rep, err = wide.Run(func(c *spd3.Ctx) {
				for i := 0; i < n; i++ {
					for a := range in {
						in[a].Set(c, i, a+i)
					}
				}
				c.Finish(func(c *spd3.Ctx) {
					for id := 0; id < tasks; id++ {
						c.Async(func(c *spd3.Ctx) {
							for i := 0; i < n; i++ {
								sum := 0
								for a := range in {
									sum += in[a].Get(c, i)
								}
								sums.Set(c, id*n+i, sum)
							}
						})
					}
				})
			})
			if err != nil || !rep.RaceFree() {
				t.Fatalf("twelve arrays: err %v, races %v", err, rep.Races)
			}
			if len(rep.Stats.Regions) != arrays {
				t.Errorf("twelve arrays: the report names %d regions", len(rep.Stats.Regions))
			}
			for _, g := range rep.Stats.Regions {
				wantR, wantW := int64(tasks*n), int64(n)
				if g.Name == "sums" {
					wantR, wantW = 0, tasks*n
				}
				if g.Reads != wantR || g.Writes != wantW {
					t.Errorf("twelve arrays: region %s counts %d reads, %d writes, want %d and %d", g.Name, g.Reads, g.Writes, wantR, wantW)
				}
			}

			// Containers allocated inside tasks: 2 × tasks regions are
			// registered mid-run, from whichever workers run the tasks,
			// and touched by children and the main task — on goroutines
			// whose block has not seen a region numbered that high.
			// A creation write goes to the shadow only; every Get and Set
			// is counted.
			late, err := spd3.New(e.opts)
			if err != nil {
				t.Fatal(err)
			}
			const readers = 3
			vars := make([]*spd3.Var[int], tasks)
			arrs := make([]*spd3.Array[int], tasks)
			rep, err = late.Run(func(c *spd3.Ctx) {
				c.Finish(func(c *spd3.Ctx) {
					for id := 0; id < tasks; id++ {
						c.Async(func(c *spd3.Ctx) {
							v := spd3.NewVar(c, fmt.Sprint("v", id), id)
							a := spd3.NewArray[int](c, fmt.Sprint("a", id), part)
							vars[id], arrs[id] = v, a
							for i := 0; i < part; i++ {
								a.Set(c, i, i)
							}
							c.Finish(func(c *spd3.Ctx) {
								for r := 0; r < readers; r++ {
									c.Async(func(c *spd3.Ctx) {
										sum := v.Get(c)
										for i := 0; i < part; i++ {
											sum += a.Get(c, i)
										}
									})
								}
							})
							v.Set(c, id+1)
						})
					}
				})
				for id := 0; id < tasks; id++ {
					vars[id].Get(c)
					arrs[id].Get(c, 0)
				}
			})
			if err != nil || !rep.RaceFree() {
				t.Fatalf("late regions: err %v, races %v", err, rep.Races)
			}
			if len(rep.Stats.Regions) != 2*tasks {
				t.Errorf("late regions: the report names %d regions, want %d", len(rep.Stats.Regions), 2*tasks)
			}
			for _, g := range rep.Stats.Regions {
				wantR, wantW := int64(readers+1), int64(1)
				if g.Name[0] == 'a' {
					wantR, wantW = readers*part+1, part
				}
				if g.Reads != wantR || g.Writes != wantW {
					t.Errorf("late regions: region %s counts %d reads, %d writes, want %d and %d", g.Name, g.Reads, g.Writes, wantR, wantW)
				}
			}
		})
	}
}

// TestUpdatesCountOneMemoryAction: an Update is one read and one write of
// its element to the containers' counts (mem.reads, mem.writes, the region
// rows) and one memory action to the detector's, which count memory
// actions: cas.clean + cas.publish and the page-cache lookups, with
// sampling off, and sample.checked + sample.skipped, with it on, each come
// to reads + writes − updates — under every executor, for Array, Matrix
// and Var alike.
func TestUpdatesCountOneMemoryAction(t *testing.T) {
	const tasks, n = 8, 32
	inc := func(x int) int { return x + 1 }
	for _, e := range []struct {
		name string
		opts spd3.Options
	}{
		{"sequential", spd3.Options{Executor: spd3.Sequential}},
		{"pool-4", spd3.Options{Executor: spd3.Pool, Workers: 4}},
		{"goroutines", spd3.Options{Executor: spd3.Goroutines}},
	} {
		for _, spec := range []string{"off", "bernoulli:0.5"} {
			opts := e.opts
			opts.Sampling.Spec = spec
			eng, err := spd3.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			arr := spd3.NewArray[int](eng, "arr", tasks*n)
			mat := spd3.NewMatrix[int](eng, "mat", tasks, n)
			v := spd3.NewVar(eng, "v", 0)
			// Each task updates its own cells of arr and mat and reads its
			// arr cells back; then the main task updates v.
			rep, err := eng.Run(func(c *spd3.Ctx) {
				c.Finish(func(c *spd3.Ctx) {
					for id := 0; id < tasks; id++ {
						c.Async(func(c *spd3.Ctx) {
							for i := 0; i < n; i++ {
								arr.Update(c, id*n+i, inc)
								mat.Update(c, id, i, inc)
								arr.Get(c, id*n+i)
							}
						})
					}
				})
				for i := 0; i < n; i++ {
					v.Update(c, inc)
				}
			})
			if err != nil || !rep.RaceFree() {
				t.Fatalf("%s, %s: err %v, races %v", e.name, spec, err, rep.Races)
			}
			if got := *v.Unchecked(); got != n {
				t.Fatalf("%s, %s: v = %d, want %d", e.name, spec, got, n)
			}
			updates := int64(2*tasks*n + n)
			reads, writes := updates+tasks*n, updates
			actions := reads + writes - updates
			m := rep.Stats.Map()
			type count struct {
				what      string
				got, want int64
			}
			want := []count{
				{"mem.reads", m["mem.reads"], reads},
				{"mem.writes", m["mem.writes"], writes},
			}
			if spec == "off" {
				want = append(want,
					count{"cas.clean + cas.publish", m["cas.clean"] + m["cas.publish"], actions},
					count{"shadow.page_cache_hit + shadow.page_cache_miss", m["shadow.page_cache_hit"] + m["shadow.page_cache_miss"], actions})
			} else {
				want = append(want,
					count{"sample.checked + sample.skipped", m["sample.checked"] + m["sample.skipped"], actions},
					count{"cas.clean + cas.publish", m["cas.clean"] + m["cas.publish"], m["sample.checked"]})
			}
			for _, c := range want {
				if c.got != c.want {
					t.Errorf("%s, sampling %s: %s = %d, want %d", e.name, spec, c.what, c.got, c.want)
				}
			}
		}
	}
}
