package progen

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/task"
)

// panicSeeds is how many programs the panic sweep runs.
const panicSeeds = 150

// eventCounts wraps a detector and counts the lifecycle events it is
// handed, from any worker.
type eventCounts struct {
	detect.Detector
	spawns, ends, starts, finishEnds atomic.Int64
}

func (d *eventCounts) BeforeSpawn(p, c *detect.Task) {
	d.spawns.Add(1)
	d.Detector.BeforeSpawn(p, c)
}

func (d *eventCounts) TaskEnd(t *detect.Task) {
	d.ends.Add(1)
	d.Detector.TaskEnd(t)
}

func (d *eventCounts) FinishStart(t *detect.Task, f *detect.Finish) {
	d.starts.Add(1)
	d.Detector.FinishStart(t, f)
}

func (d *eventCounts) FinishEnd(t *detect.Task, f *detect.Finish) {
	d.finishEnds.Add(1)
	d.Detector.FinishEnd(t, f)
}

// panicRun is what one Run of a panicking program shows: its error and
// the events it delivered.
type panicRun struct {
	err                              string
	spawns, ends, starts, finishEnds int64
}

// run executes p on rt, whose detector is d, and returns what that Run
// delivered.
func (d *eventCounts) run(rt *task.Runtime, p *Program, hook AccessHook) panicRun {
	for _, n := range []*atomic.Int64{&d.spawns, &d.ends, &d.starts, &d.finishEnds} {
		n.Store(0)
	}
	var r panicRun
	if err := Run(rt, p, hook); err != nil {
		r.err = err.Error()
	}
	r.spawns, r.ends, r.starts, r.finishEnds = d.spawns.Load(), d.ends.Load(), d.starts.Load(), d.finishEnds.Load()
	return r
}

// racyIndices returns the sorted distinct element indices of races.
func racyIndices(races []detect.Race) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range races {
		if !seen[r.Index] {
			seen[r.Index] = true
			out = append(out, r.Index)
		}
	}
	sort.Ints(out)
	return out
}

// TestPanicSweep: a task body that panics leaves every finish it is in as
// a return would. Each program panics at one access site chosen by its
// seed; under the sequential executor and the pool at 1, 4 and 16
// workers, every spawned task reaches its TaskEnd, every finish ends —
// the implicit one too, which has no FinishStart — and Run's error and
// SPD3's racy indices are the same on every executor (the race kinds at
// an index may depend on the schedule). A second Run on the same runtime
// delivers what the first did, and no worker goroutine outlives the runs.
func TestPanicSweep(t *testing.T) {
	base := runtime.NumGoroutine()
	execs := []struct {
		name string
		cfg  task.Config
	}{
		{"sequential", task.Config{Executor: task.Sequential}},
		{"pool-1", task.Config{Executor: task.Pool, Workers: 1}},
		{"pool-4", task.Config{Executor: task.Pool, Workers: 4}},
		{"pool-16", task.Config{Executor: task.Pool, Workers: 16}},
	}
	for seed := int64(0); seed < panicSeeds; seed++ {
		p := Generate(seed, Config{})
		if p.Sites == 0 {
			continue
		}
		site := rand.New(rand.NewSource(seed)).Intn(p.Sites)
		hook := func(_ *task.Ctx, s int, _ bool) {
			if s == site {
				panic(fmt.Sprintf("site %d", s))
			}
		}
		var want panicRun
		var wantRacy []int
		for i, e := range execs {
			sink := detect.NewSink(false, 0)
			det := &eventCounts{Detector: core.New(sink, nil)}
			cfg := e.cfg
			cfg.Detector = det
			rt, err := task.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := det.run(rt, p, hook)
			racy := racyIndices(sink.Races())
			switch {
			case got.err == "":
				t.Fatalf("seed %d %s: Run returned no error, want the panic at site %d\n%s", seed, e.name, site, p)
			case got.spawns != got.ends:
				t.Fatalf("seed %d %s: %d BeforeSpawns, %d TaskEnds\n%s", seed, e.name, got.spawns, got.ends, p)
			case got.starts+1 != got.finishEnds:
				t.Fatalf("seed %d %s: %d FinishStarts, %d FinishEnds; want one more end, the implicit finish's\n%s",
					seed, e.name, got.starts, got.finishEnds, p)
			}
			if i == 0 {
				want, wantRacy = got, racy
			} else if got != want || fmt.Sprint(racy) != fmt.Sprint(wantRacy) {
				t.Fatalf("seed %d %s: %+v racy %v; %s gave %+v racy %v\n%s",
					seed, e.name, got, racy, execs[0].name, want, wantRacy, p)
			}
			if again := det.run(rt, p, hook); again != got {
				t.Fatalf("seed %d %s: a second Run gave %+v, the first %+v\n%s", seed, e.name, again, got, p)
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sweep, %d before", runtime.NumGoroutine(), base)
		}
	}
}
