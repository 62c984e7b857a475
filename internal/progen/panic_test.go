package progen

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/task"
	"spd3/internal/trace/tracetest"
)

// panicSeeds is how many programs the panic sweep runs.
const panicSeeds = 150

// exec is an executor with a worker count.
type exec struct {
	name string
	cfg  task.Config
}

// execs lists every executor.
var execs = []exec{
	{"sequential", task.Config{Executor: task.Sequential}},
	{"pool-1", task.Config{Executor: task.Pool, Workers: 1}},
	{"pool-4", task.Config{Executor: task.Pool, Workers: 4}},
	{"pool-16", task.Config{Executor: task.Pool, Workers: 16}},
}

// checked returns a runtime with the given config whose detector is det
// wrapped for tracetest.
func checked(t *testing.T, cfg task.Config, det detect.Detector) (*task.Runtime, *tracetest.Detector) {
	t.Helper()
	w := tracetest.Wrap(det, cfg.Executor == task.Sequential)
	cfg.Detector = w
	rt, err := task.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, w
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
// a return would, and every lock it holds. Each program, without locks
// and with two, panics at one access site chosen by its seed; under the
// sequential executor and the pool at 1, 4 and 16 workers, the recording
// replays and every spawned task reaches its TaskEnd holding no lock and
// every finish ends (tracetest), and Run's error, the event counts and
// SPD3's racy indices are the same on every executor (the race kinds at
// an index may depend on the schedule). A second Run on the same runtime
// delivers what the first did, and no worker goroutine outlives the runs.
func TestPanicSweep(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := int64(0); i < 2*panicSeeds; i++ {
		seed, cfg := i/2, Config{Locks: 2 * int(i%2)}
		p := Generate(seed, cfg)
		if p.Sites == 0 {
			continue
		}
		site := rand.New(rand.NewSource(seed)).Intn(p.Sites)
		hook := func(_ *task.Ctx, s int, _ bool) {
			if s == site {
				panic(fmt.Sprintf("site %d", s))
			}
		}
		var want string
		for _, e := range execs {
			sink := detect.NewSink(false, 0)
			rt, det := checked(t, e.cfg, core.New(sink, nil))
			err := Run(rt, p, hook)
			first, cerr := det.Check()
			if err == nil || cerr != nil {
				t.Fatalf("seed %d %s: Run = %v, Check = %v; want the panic at site %d, nil\n%s", seed, e.name, err, cerr, site, p)
			}
			got := fmt.Sprintf("%v: %+v racy %v", err, first, racyIndices(sink.Races()))
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("seed %d %s: %s; %s gave %s\n%s", seed, e.name, got, execs[0].name, want, p)
			}
			again := Run(rt, p, hook)
			if n, cerr := det.Check(); fmt.Sprint(again) != fmt.Sprint(err) || cerr != nil ||
				n.Runs != 2 || n.Spawns != 2*first.Spawns || n.FinishStarts != 2*first.FinishStarts {
				t.Fatalf("seed %d %s: a second Run = %v, both %+v, %v; the first %s\n%s", seed, e.name, again, n, cerr, got, p)
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sweep, %d before", runtime.NumGoroutine(), base)
		}
	}
}
