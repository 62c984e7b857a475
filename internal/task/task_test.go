package task

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/dpst"
	"spd3/internal/ids"
	"spd3/internal/stats"
	"spd3/internal/trace/tracetest"
)

// executors lists every executor with a worker count, so each behavioral
// test runs under all of them.
var executors = []struct {
	name string
	cfg  Config
}{
	{"sequential", Config{Executor: Sequential}},
	{"pool-1", Config{Executor: Pool, Workers: 1}},
	{"pool-4", Config{Executor: Pool, Workers: 4}},
	{"pool-16", Config{Executor: Pool, Workers: 16}},
}

func forAllExecutors(t *testing.T, f func(t *testing.T, rt *Runtime)) {
	t.Helper()
	for _, e := range executors {
		e := e
		t.Run(e.name, func(t *testing.T) {
			rt, err := New(e.cfg)
			if err != nil {
				t.Fatal(err)
			}
			f(t, rt)
		})
	}
}

func TestRunEmpty(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		if err := rt.Run(func(c *Ctx) {}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAsyncAllRun(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		var n atomic.Int64
		err := rt.Run(func(c *Ctx) {
			for i := 0; i < 100; i++ {
				c.Async(func(c *Ctx) { n.Add(1) })
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Load(); got != 100 {
			t.Fatalf("ran %d asyncs, want 100", got)
		}
	})
}

func TestFinishJoins(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		var inFinish, afterFinish atomic.Int64
		err := rt.Run(func(c *Ctx) {
			c.Finish(func(c *Ctx) {
				for i := 0; i < 50; i++ {
					c.Async(func(c *Ctx) {
						c.Async(func(c *Ctx) { inFinish.Add(1) })
						inFinish.Add(1)
					})
				}
			})
			// All 100 increments must be visible here: finish joins
			// transitively spawned tasks too.
			if got := inFinish.Load(); got != 100 {
				t.Errorf("after finish: %d increments, want 100", got)
			}
			afterFinish.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if afterFinish.Load() != 1 {
			t.Fatal("continuation after finish did not run")
		}
	})
}

func TestNestedFinish(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		var order []string
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		log := func(s string) {
			<-mu
			order = append(order, s)
			mu <- struct{}{}
		}
		err := rt.Run(func(c *Ctx) {
			c.Finish(func(c *Ctx) {
				c.Finish(func(c *Ctx) {
					c.Async(func(c *Ctx) { log("inner") })
				})
				log("between")
				c.Async(func(c *Ctx) { log("outer") })
			})
			log("done")
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != 4 || order[0] != "inner" || order[1] != "between" || order[3] != "done" {
			t.Fatalf("order = %v", order)
		}
	})
}

func TestAsyncAfterFinishRegistersInOuterScope(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		var done atomic.Bool
		err := rt.Run(func(c *Ctx) {
			c.Finish(func(c *Ctx) {
				c.Finish(func(c *Ctx) {})
				// After the inner finish, asyncs must register in
				// the outer finish again.
				c.Async(func(c *Ctx) { done.Store(true) })
			})
			if !done.Load() {
				t.Error("outer finish did not wait for post-inner-finish async")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeepRecursiveSpawn(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		var n atomic.Int64
		var spawn func(c *Ctx, depth int)
		spawn = func(c *Ctx, depth int) {
			n.Add(1)
			if depth == 0 {
				return
			}
			c.Async(func(c *Ctx) { spawn(c, depth-1) })
			c.Async(func(c *Ctx) { spawn(c, depth-1) })
		}
		err := rt.Run(func(c *Ctx) {
			c.Finish(func(c *Ctx) { spawn(c, 10) })
			if got, want := n.Load(), int64(1<<11-1); got != want {
				t.Errorf("spawned %d nodes, want %d", got, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestParallelFor(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		for _, grain := range []int{1, 7, 1000} {
			var sum atomic.Int64
			err := rt.Run(func(c *Ctx) {
				c.ParallelFor(0, 100, grain, func(c *Ctx, i int) {
					sum.Add(int64(i))
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := sum.Load(); got != 4950 {
				t.Fatalf("grain %d: sum = %d, want 4950", grain, got)
			}
		}
	})
}

func TestFinishAsync(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		hit := make([]atomic.Bool, 32)
		err := rt.Run(func(c *Ctx) {
			c.FinishAsync(32, func(c *Ctx, i int) { hit[i].Store(true) })
			for i := range hit {
				if !hit[i].Load() {
					t.Errorf("iteration %d did not run", i)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestPanicPropagates(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		err := rt.Run(func(c *Ctx) {
			c.Finish(func(c *Ctx) {
				c.Async(func(c *Ctx) { panic("boom") })
			})
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("err = %v, want panic error containing boom", err)
		}
	})
}

func TestPanicInRootPropagates(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		err := rt.Run(func(c *Ctx) { panic("root boom") })
		if err == nil || !strings.Contains(err.Error(), "root boom") {
			t.Fatalf("err = %v, want root boom", err)
		}
	})
}

// checked returns a runtime of cfg whose detector is det, wrapped so that
// the run's recording can be checked.
func checked(t *testing.T, cfg Config, det detect.Detector) (*Runtime, *tracetest.Detector) {
	t.Helper()
	w := tracetest.Wrap(det, cfg.Executor == Sequential)
	cfg.Detector = w
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, w
}

// TestPanicInsideFinishKeepsNesting: a body that panics inside a Finish
// ends that finish on its way out, in a spawned task and in the main task
// alike, so every finish ends in nesting order and the main task ends
// the implicit one last: nothing is left open, on every executor.
func TestPanicInsideFinishKeepsNesting(t *testing.T) {
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			rt, det := checked(t, e.cfg, detect.Nop{})
			err := rt.Run(func(c *Ctx) {
				c.Finish(func(c *Ctx) {})
				c.Finish(func(c *Ctx) {
					c.Async(func(c *Ctx) { c.Finish(func(*Ctx) { panic("child boom") }) })
					panic("main boom")
				})
			})
			// Run names the first panic and counts the other; depth-first,
			// the child's comes first.
			want := "boom (and 1 more panics)"
			if e.cfg.Executor == Sequential {
				want = "child " + want
			}
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
			if n, err := det.Check(); err != nil || n.FinishStarts != 3 {
				t.Errorf("%+v, %v; want 3 FinishStarts, all ended", n, err)
			}
		})
	}
}

// TestPanicJoinsItsFinish: a main body that spawns 50 asyncs inside a
// Finish, or 50 children in a Cilk sync region, and then panics leaves
// the finish as a return would, on every executor: the 50 bodies run to
// their TaskEnd, the finish ends after them, the implicit finish ends
// last, and Run returns the panic.
func TestPanicJoinsItsFinish(t *testing.T) {
	bodies := []struct {
		name string
		root func(c *Ctx, ran *atomic.Int64)
	}{
		{"finish", func(c *Ctx, ran *atomic.Int64) {
			c.Finish(func(c *Ctx) {
				for i := 0; i < 50; i++ {
					c.Async(func(*Ctx) { ran.Add(1) })
				}
				panic("main boom")
			})
		}},
		{"cilk", func(c *Ctx, ran *atomic.Int64) {
			RunCilk(c, func(k *Cilk) {
				for i := 0; i < 50; i++ {
					k.Spawn(func(*Cilk) { ran.Add(1) })
				}
				panic("main boom")
			})
		}},
	}
	for _, b := range bodies {
		for _, e := range executors {
			t.Run(b.name+"/"+e.name, func(t *testing.T) {
				rt, det := checked(t, e.cfg, detect.Nop{})
				var ran atomic.Int64
				err := rt.Run(func(c *Ctx) { b.root(c, &ran) })
				if err == nil || !strings.Contains(err.Error(), "main boom") {
					t.Fatalf("err = %v, want main boom", err)
				}
				n, err := det.Check()
				if err != nil || ran.Load() != 50 || n.Spawns != 50 || n.FinishEnds != 2 {
					t.Errorf("%d bodies ran, %+v, %v; want 50 spawns and 2 FinishEnds, the finish's and the implicit one's", ran.Load(), n, err)
				}
			})
		}
	}
}

// panickyDetector, while armed, panics once: in the TaskEnd of the target
// task (onTaskEnd), or else in the FinishEnd of the implicit finish.
type panickyDetector struct {
	detect.Nop
	onTaskEnd bool
	armed     atomic.Bool
	target    atomic.Pointer[detect.Task]
	implicit  *detect.Finish
}

func (d *panickyDetector) MainTask(_ *detect.Task, f *detect.Finish) { d.implicit = f }
func (d *panickyDetector) TaskEnd(t *detect.Task) {
	if d.onTaskEnd && t == d.target.Load() && d.armed.CompareAndSwap(true, false) {
		panic("detector boom in TaskEnd")
	}
}
func (d *panickyDetector) FinishEnd(_ *detect.Task, f *detect.Finish) {
	if !d.onTaskEnd && f == d.implicit && d.armed.CompareAndSwap(true, false) {
		panic("detector boom in FinishEnd")
	}
}

// TestDetectorPanicFailsTheRun: a detector that panics in a spawned
// task's TaskEnd, or in the implicit finish's FinishEnd, fails the run as
// a panicking body does, on every executor: Run returns an error naming
// the panic, every spawned task still reaches its TaskEnd and leaves its
// finish, every finish ends, no goroutine is left behind, and the next
// Run on the runtime succeeds. The TaskEnd that panics is that of a task
// running on a pool worker's own goroutine when the pool has several.
func TestDetectorPanicFailsTheRun(t *testing.T) {
	const spawns, finishes = 16 + 16*4, 1 + 16 // per Run; the implicit finish aside
	for _, onTaskEnd := range []bool{true, false} {
		event, want := "FinishEnd", "detector boom in FinishEnd"
		if onTaskEnd {
			event, want = "TaskEnd", "detector boom in TaskEnd"
		}
		for _, e := range executors {
			t.Run(event+"/"+e.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				det := &panickyDetector{onTaskEnd: onTaskEnd}
				det.armed.Store(true)
				rt, w := checked(t, e.cfg, det)
				// The target is the first top-level task to start on a
				// worker other than Run's, or on the only one; the others
				// wait for it, so that thieves get a task to run.
				root := func(c *Ctx) {
					c.Finish(func(c *Ctx) {
						for i := 0; i < 16; i++ {
							c.Async(func(c *Ctx) {
								if c.WorkerID() > 0 || rt.Workers() == 1 {
									det.target.CompareAndSwap(nil, c.Task())
								}
								for deadline := time.Now().Add(5 * time.Second); det.target.Load() == nil && time.Now().Before(deadline); {
									runtime.Gosched()
								}
								c.FinishAsync(4, func(*Ctx, int) {})
							})
						}
					})
				}
				if err := rt.Run(root); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("err = %v, want the detector's panic %q", err, want)
				}
				if err := rt.Run(root); err != nil {
					t.Fatalf("the Run after the failed one: %v", err)
				}
				// The wrapper records an event before it is delivered, so
				// a panicking event is recorded too.
				if n, err := w.Check(); err != nil || n.Spawns != 2*spawns || n.FinishStarts != 2*finishes {
					t.Errorf("%+v, %v over two Runs; want %d spawns and %d FinishStarts", n, err, 2*spawns, 2*finishes)
				}
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after the Runs, %d before", runtime.NumGoroutine(), base)
					}
				}
			})
		}
	}
}

// TestPanicsCounted: Run's error names one panic and counts the others.
func TestPanicsCounted(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		err := rt.Run(func(c *Ctx) {
			c.FinishAsync(10, func(c *Ctx, i int) { panic(fmt.Sprint("boom ", i)) })
		})
		if err == nil || !strings.Contains(err.Error(), "boom") || !strings.HasSuffix(err.Error(), "(and 9 more panics)") {
			t.Fatalf("err = %v, want one of the ten panics and the other nine counted", err)
		}
		if err := rt.Run(func(c *Ctx) { panic("alone") }); err == nil || strings.Contains(err.Error(), "more") {
			t.Fatalf("err = %v, want the one panic of the second Run alone", err)
		}
	})
}

func TestRunReusable(t *testing.T) {
	forAllExecutors(t, func(t *testing.T, rt *Runtime) {
		for round := 0; round < 3; round++ {
			var n atomic.Int64
			if err := rt.Run(func(c *Ctx) {
				c.FinishAsync(10, func(c *Ctx, i int) { n.Add(1) })
			}); err != nil {
				t.Fatal(err)
			}
			if n.Load() != 10 {
				t.Fatalf("round %d: %d asyncs ran", round, n.Load())
			}
		}
	})
}

func TestNestedRunRejected(t *testing.T) {
	rt, err := New(Config{Executor: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	var inner error
	if err := rt.Run(func(c *Ctx) {
		inner = rt.Run(func(c *Ctx) {})
	}); err != nil {
		t.Fatal(err)
	}
	if inner != ErrNested {
		t.Fatalf("nested Run = %v, want ErrNested", inner)
	}
}

// finishLog records the finish records the runtime hands the detector.
// Only the main task opens finishes in TestTaskIdentity, and a child
// reads the log after the spawn that made it, so it needs no lock.
type finishLog struct {
	detect.Nop
	implicit *detect.Finish
	started  []*detect.Finish
}

func (d *finishLog) MainTask(_ *detect.Task, f *detect.Finish) { d.implicit = f }
func (d *finishLog) FinishStart(_ *detect.Task, f *detect.Finish) {
	d.started = append(d.started, f)
}

// TestTaskIdentity: every task is a record of its own, and its IEF is the
// very detect.Finish the detector was shown when that finish began — the
// run's implicit one for a task spawned outside every explicit finish.
func TestTaskIdentity(t *testing.T) {
	for _, e := range executors {
		e := e
		t.Run(e.name, func(t *testing.T) {
			det := &finishLog{}
			cfg := e.cfg
			cfg.Detector = det
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = rt.Run(func(c *Ctx) {
				main := c.Task()
				if main.ID != 0 || main.IEF == nil || main.IEF != det.implicit {
					t.Errorf("main task: id=%d IEF=%p, want 0 and the implicit finish %p", main.ID, main.IEF, det.implicit)
				}
				c.Async(func(c *Ctx) {
					if child := c.Task(); child == main || child.ID != 1 || child.IEF != det.implicit {
						t.Errorf("child task = %p id %d IEF %p, want a record of its own with id 1 in the implicit finish %p",
							child, child.ID, child.IEF, det.implicit)
					}
				})
				c.Finish(func(c *Ctx) {
					c.Async(func(c *Ctx) {
						if child := c.Task(); len(det.started) != 1 || child.IEF != det.started[0] {
							t.Errorf("child IEF = %p, want the finish the detector saw start (%v)", child.IEF, det.started)
						}
					})
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDetectorEventContract: 40 nested asyncs in a finish deliver a
// recording replay accepts, on every executor.
func TestDetectorEventContract(t *testing.T) {
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			rt, det := checked(t, e.cfg, detect.Nop{})
			err := rt.Run(func(c *Ctx) {
				c.Finish(func(c *Ctx) {
					for i := 0; i < 20; i++ {
						c.Async(func(c *Ctx) {
							c.Async(func(c *Ctx) {})
						})
					}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			// Two FinishEnds: the explicit finish and the implicit one.
			if n, err := det.Check(); err != nil || n.Spawns != 40 || n.FinishEnds != 2 {
				t.Errorf("%+v, %v; want 40 spawns and 2 FinishEnds", n, err)
			}
		})
	}
}

func TestSequentialIsDepthFirst(t *testing.T) {
	rt, err := New(Config{Executor: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	err = rt.Run(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			c.Async(func(c *Ctx) {
				order = append(order, 1)
				c.Async(func(c *Ctx) { order = append(order, 2) })
				order = append(order, 3)
			})
			order = append(order, 4)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("depth-first order = %v, want %v", order, want)
		}
	}
}

func TestChunkGrain(t *testing.T) {
	rt, err := New(Config{Executor: Pool, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(c *Ctx) {
		if g := c.ChunkGrain(100); g != 25 {
			t.Errorf("ChunkGrain(100) with 4 workers = %d, want 25", g)
		}
		if g := c.ChunkGrain(3); g != 1 {
			t.Errorf("ChunkGrain(3) with 4 workers = %d, want 1", g)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	det := detect.Nop{}
	rt, err := New(Config{Executor: Pool, Workers: 7, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Workers() != 7 {
		t.Errorf("Workers = %d", rt.Workers())
	}
	if rt.Detector() == nil {
		t.Error("Detector lost")
	}
	l1, l2 := rt.NewLock(), rt.NewLock()
	if l1.ID == l2.ID {
		t.Error("lock IDs must be distinct")
	}
}

func TestUnknownExecutorRejected(t *testing.T) {
	if _, err := New(Config{Executor: ExecKind(99)}); err == nil {
		t.Fatal("bogus executor accepted")
	}
	if ExecKind(99).String() == "" {
		t.Fatal("ExecKind String must describe unknown values")
	}
}

func TestWorkerIDRanges(t *testing.T) {
	rt, err := New(Config{Executor: Pool, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	if err := rt.Run(func(c *Ctx) {
		c.FinishAsync(32, func(c *Ctx, i int) {
			id := c.WorkerID()
			if id < 0 || id >= 3 {
				t.Errorf("worker id %d out of range", id)
			}
			<-mu
			seen[id] = true
			mu <- struct{}{}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no worker ids observed")
	}
	rt2, err := New(Config{Executor: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Run(func(c *Ctx) {
		if c.WorkerID() != 0 {
			t.Errorf("sequential WorkerID = %d, want 0", c.WorkerID())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// allocsPerOp opens a session of the named detector on cfg's executor and
// returns what one call of op allocates inside the main task.
func allocsPerOp(t *testing.T, cfg Config, detector string, op func(c *Ctx)) float64 {
	t.Helper()
	ses, err := detect.Open(detector, detect.SessionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Detector, cfg.Stats = ses.Det, ses.Rec
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	if err := rt.Run(func(c *Ctx) {
		got = testing.AllocsPerRun(1000, func() { op(c) })
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSpawnAllocs pins what a spawn allocates: at most the task's one
// record (the Ctx, with the detect.Task embedded) and nothing else, with
// or without SPD3 — its per-task state is a pointer into the DPST, and the
// three nodes of §3.1's task-creation rule come out of the tree's arena,
// one allocation per 4096 nodes (each chunk allocated once, however many
// workers reach it at once), which AllocsPerRun's integer average rounds
// away, as it does the doublings of the deque the one pool worker pushes
// the records onto. Under the sequential executor the record is the one
// the previous task left on the free list: nothing. Under one pool worker
// the records queue until the main body is done, so each is new. A Cilk
// spawn costs the same (TestCilkAllocs): its procedure rides in the
// child's record, wrapped in no closure.
func TestSpawnAllocs(t *testing.T) {
	body := func(*Ctx) {}
	for _, want := range []struct {
		cfg    Config
		allocs float64
	}{{Config{Executor: Sequential}, 0}, {Config{Executor: Pool, Workers: 1}, 1}} {
		for _, detector := range []string{"none", "spd3"} {
			if got := allocsPerOp(t, want.cfg, detector, func(c *Ctx) { c.Async(body) }); got != want.allocs {
				t.Errorf("%s, detector %s: one Async allocates %v objects, want %v", want.cfg.Executor, detector, got, want.allocs)
			}
		}
	}
}

// TestFinishAllocs is TestSpawnAllocs for a finish: its one record, the
// scope with the detect.Finish embedded, is the one the previous finish
// gave back to the worker's free list, and SPD3's three nodes come out of
// the arena: nothing. Under one pool worker the finish also waits in
// worker.until, whose closures stay on the stack, whether the wait helps
// or, with a lock held, only pops: an empty finish and a finish of one
// async under a lock allocate nothing either, the async's record being
// the one the previous async left.
func TestFinishAllocs(t *testing.T) {
	body := func(*Ctx) {}
	lock := &detect.Lock{ID: 1}
	locked := func(c *Ctx) {
		c.Acquire(lock)
		c.Finish(func(c *Ctx) { c.Async(func(*Ctx) {}) })
		c.Release(lock)
	}
	for _, in := range []struct {
		name string
		cfg  Config
		op   func(*Ctx)
	}{
		{"empty finish", Config{Executor: Sequential}, func(c *Ctx) { c.Finish(body) }},
		{"empty finish", Config{Executor: Pool, Workers: 1}, func(c *Ctx) { c.Finish(body) }},
		{"one async under a lock", Config{Executor: Pool, Workers: 1}, locked},
	} {
		for _, detector := range []string{"none", "spd3"} {
			if got := allocsPerOp(t, in.cfg, detector, in.op); got != 0 {
				t.Errorf("%s, detector %s: %s allocates %v objects, want 0", in.cfg.Executor, detector, in.name, got)
			}
		}
	}
}

// TestCilkAllocs: a Cilk procedure allocates nothing in steady state.
// RunCilk's frame, which holds the scope of its sync regions, comes from
// the worker's free list, and Spawn puts the child's procedure in the
// child's record rather than in a closure around RunCilk. So a procedure
// that spawns a child capturing nothing and syncs, the child's own frame
// included, allocates nothing under the sequential executor, with or
// without SPD3.
func TestCilkAllocs(t *testing.T) {
	round := func(k *Cilk) {
		k.Spawn(func(*Cilk) {})
		k.Sync()
	}
	for _, detector := range []string{"none", "spd3"} {
		if got := allocsPerOp(t, Config{Executor: Sequential}, detector, func(c *Ctx) { RunCilk(c, round) }); got != 0 {
			t.Errorf("detector %s: RunCilk with one Spawn/Sync round allocates %v objects, want 0", detector, got)
		}
	}
}

// TestCtxSizeClass: a Ctx is allocated per spawn, so its size class is a
// per-spawn cost; 112 bytes is a class of its own, and the record is the
// task and nothing of whoever runs it (that is detect.Local's).
func TestCtxSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Ctx{}); n > 112 {
		t.Errorf("Ctx is %d bytes, want <= 112", n)
	}
}

// freshRecords checks, at every spawn, that the child's record arrives as
// a new one would: no detector state and no scratch block yet.
type freshRecords struct {
	detect.Nop
	stale atomic.Int64
}

func (d *freshRecords) BeforeSpawn(p, c *detect.Task) {
	if c.State != nil || c.L != nil || c.IEF == nil {
		d.stale.Add(1)
	}
	c.State = p
}

// TestFreeListRecyclesEndedRecords: a worker (the pool's, or the
// sequential executor's one) spawns into the records of tasks it ran to
// the end, and each arrives as a new one would. Under the sequential
// executor each of a finish's asyncs ends before the next is spawned, so
// all of them run in the one record, under dense ids. Under every executor
// a program of nested spawns joins and runs every task once.
func TestFreeListRecyclesEndedRecords(t *testing.T) {
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) { freeListRun(t, e.cfg) })
	}
}

// freeListRun is TestFreeListRecyclesEndedRecords under one executor.
func freeListRun(t *testing.T, cfg Config) {
	det := &freshRecords{}
	cfg.Detector = det
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		records = map[*Ctx]bool{}
		ids     []detect.TaskID
		ran     atomic.Int64
	)
	err = rt.Run(func(c *Ctx) {
		c.Finish(func(c *Ctx) {
			for i := 0; i < 10; i++ {
				c.Async(func(c *Ctx) {
					mu.Lock()
					records[c] = true
					ids = append(ids, c.Task().ID)
					mu.Unlock()
				})
			}
		})
		for round := 0; round < 3; round++ {
			c.FinishAsync(40, func(c *Ctx, i int) {
				ran.Add(1)
				c.Async(func(c *Ctx) { ran.Add(1) })
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := det.stale.Load(); n != 0 {
		t.Errorf("%d spawns got a record with another task's state", n)
	}
	if n := ran.Load(); n != 3*80 {
		t.Errorf("%d tasks ran, want %d", n, 3*80)
	}
	if rt.Executor() == Sequential {
		want := []detect.TaskID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		if len(records) != 1 || fmt.Sprint(ids) != fmt.Sprint(want) {
			t.Errorf("sequential: %d records for ten asyncs, ids %v; want one record, ids %v", len(records), ids, want)
		}
	}
}

// TestFreeListIsBounded: a worker keeps at most maxFree ended records,
// however many of its tasks were live at once.
func TestFreeListIsBounded(t *testing.T) {
	rt, err := New(Config{Executor: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	var nest func(c *Ctx, depth int)
	nest = func(c *Ctx, depth int) {
		if depth > 0 {
			c.Async(func(c *Ctx) { nest(c, depth-1) })
		}
	}
	if err := rt.Run(func(c *Ctx) {
		nest(c, maxFree+44)
		if n := len(c.w.free); n != maxFree {
			t.Errorf("after %d nested tasks ended the free list holds %d records, want %d", maxFree+44, n, maxFree)
		}
		for _, r := range c.w.free {
			if !reflect.ValueOf(*r).IsZero() {
				t.Fatal("a record on the free list is not cleared")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// idLog records task and finish ids in the order the detector meets them.
type idLog struct {
	detect.Nop
	tasks, finishes []int64
}

func (d *idLog) MainTask(t *detect.Task, f *detect.Finish) {
	d.tasks, d.finishes = append(d.tasks, int64(t.ID)), append(d.finishes, f.ID)
}
func (d *idLog) BeforeSpawn(_, c *detect.Task)                { d.tasks = append(d.tasks, int64(c.ID)) }
func (d *idLog) FinishStart(_ *detect.Task, f *detect.Finish) { d.finishes = append(d.finishes, f.ID) }

// TestSequentialIDsAreDense: under the sequential executor the task and
// finish ids, which spawns and finishes take from the worker's id blocks,
// are what one shared counter would give — dense in the order the tasks
// and finishes begin — and they go on across Runs of one Runtime: each
// run's end hands its blocks' unused ids back.
func TestSequentialIDsAreDense(t *testing.T) {
	det := &idLog{}
	rt, err := New(Config{Executor: Sequential, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		if err := rt.Run(func(c *Ctx) {
			c.FinishAsync(5, func(c *Ctx, i int) {
				c.Finish(func(c *Ctx) { c.Async(func(*Ctx) {}) })
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	for what, got := range map[string][]int64{"task": det.tasks, "finish": det.finishes} {
		for i, id := range got {
			if id != int64(i) {
				t.Fatalf("%s ids %v, want 0, 1, 2, …", what, got)
			}
		}
	}
	if len(det.tasks) != 3*11 || len(det.finishes) != 3*7 {
		t.Fatalf("%d task ids and %d finish ids, want %d and %d", len(det.tasks), len(det.finishes), 3*11, 3*7)
	}
}

// TestPoolIDsAccounted: on the pool, DPST node ids come from the workers'
// blocks, so some ids handed out are never placed; this bounds how many.
// Every run's end flushes its workers' blocks, so Bytes counts exactly the
// nodes placed. A block loses at most BlockSize-1 ids at a time — what a
// take leaves is short of one draw — and only where the dpst package
// comment says: R1 retires a worker's block when it runs a task spawned
// from a newer block than its own, which only a steal brings it; R2's
// watermark move releases the mover's block, once a run here (fib's
// top-level finish ends with no async beside it); and each run's end
// releases every worker's block, a remainder lost when another worker drew
// past it. Besides, a refill that cannot extend a block short of its take
// (three ids at most) loses that short remainder: two ids at most per
// block drawn. So
//
//	Len - placed <= (BlockSize-1) * (steals + (Workers+1) * runs) + 2 * Len/BlockSize.
func TestPoolIDsAccounted(t *testing.T) {
	const workers, runs = 4, 2
	rec := stats.New()
	det := core.New(detect.NewSink(false, 0), rec)
	rt, err := New(Config{Executor: Pool, Workers: workers, Detector: det, Stats: rec})
	if err != nil {
		t.Fatal(err)
	}
	var fib func(c *Ctx, n int)
	fib = func(c *Ctx, n int) {
		if n < 2 {
			return
		}
		c.Finish(func(c *Ctx) {
			c.Async(func(c *Ctx) { fib(c, n-1) })
			fib(c, n-2)
		})
	}
	for run := 0; run < runs; run++ {
		if err := rt.Run(func(c *Ctx) { fib(c, 22) }); err != nil {
			t.Fatal(err)
		}
	}
	tree := det.Tree()
	placed := int64(0)
	for id := int64(0); id < tree.Len(); id++ {
		if tree.Placed(uint32(id)) {
			placed++
		}
	}
	if tree.Bytes() != placed*dpst.NodeBytes {
		t.Fatalf("%d nodes placed, Bytes %d: want %d", placed, tree.Bytes(), placed*dpst.NodeBytes)
	}
	steals := rec.Snapshot().Get(stats.TaskSteal)
	lost, bound := tree.Len()-placed, (ids.BlockSize-1)*(steals+(workers+1)*runs)+2*tree.Len()/ids.BlockSize
	t.Logf("%d ids handed out, %d placed, %d lost, %d steals", tree.Len(), placed, lost, steals)
	if lost > bound {
		t.Fatalf("%d ids lost over %d steals and %d runs, more than %d", lost, steals, runs, bound)
	}
}
