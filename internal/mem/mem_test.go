package mem

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"spd3/internal/core"
	"spd3/internal/detect"
	_ "spd3/internal/detectors" // register fasttrack for detect.New
	"spd3/internal/sample"
	"spd3/internal/task"
)

func newRT(t *testing.T) (*task.Runtime, *detect.Sink) {
	t.Helper()
	sink := detect.NewSink(false, 0)
	rt, err := task.New(task.Config{Executor: task.Sequential,
		Detector: core.New(sink, nil)})
	if err != nil {
		t.Fatal(err)
	}
	return rt, sink
}

func TestArrayGetSet(t *testing.T) {
	rt, sink := newRT(t)
	a := NewArray[int](rt, "a", 10)
	err := rt.Run(func(c *task.Ctx) {
		for i := 0; i < a.Len(); i++ {
			a.Set(c, i, i*i)
		}
		for i := 0; i < a.Len(); i++ {
			if got := a.Get(c, i); got != i*i {
				t.Errorf("a[%d] = %d", i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Empty() {
		t.Fatalf("races: %v", sink.Races())
	}
}

func TestArrayUpdateIsReadModifyWrite(t *testing.T) {
	// Update must count as both a read and a write: two parallel
	// Updates race.
	rt, sink := newRT(t)
	a := NewArray[int](rt, "a", 1)
	err := rt.Run(func(c *task.Ctx) {
		c.FinishAsync(2, func(c *task.Ctx, i int) {
			a.Update(c, 0, func(v int) int { return v + 1 })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Empty() {
		t.Fatal("parallel Updates not reported")
	}
}

func TestMatrixUpdateIsReadModifyWrite(t *testing.T) {
	// Like Array.Update: two parallel Matrix.Updates of one element
	// must race, and a sequential Update must apply f to the datum.
	rt, sink := newRT(t)
	m := NewMatrix[int](rt, "m", 2, 2)
	err := rt.Run(func(c *task.Ctx) {
		m.Set(c, 1, 1, 20)
		m.Update(c, 1, 1, func(v int) int { return v + 1 })
		if got := m.Get(c, 1, 1); got != 21 {
			t.Errorf("m[1][1] = %d, want 21", got)
		}
		c.FinishAsync(2, func(c *task.Ctx, i int) {
			m.Update(c, 0, 0, func(v int) int { return v + 1 })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Empty() {
		t.Fatal("parallel Matrix.Updates not reported")
	}
	if got := m.UncheckedRow(0)[0]; got != 2 {
		t.Errorf("m[0][0] = %d, want 2 (sequential executor)", got)
	}
}

func TestVarUpdateIsReadModifyWrite(t *testing.T) {
	rt, sink := newRT(t)
	v := NewVar(rt, "v", 10)
	err := rt.Run(func(c *task.Ctx) {
		v.Update(c, func(x int) int { return x * 2 })
		if got := v.Get(c); got != 20 {
			t.Errorf("v = %d, want 20", got)
		}
		c.FinishAsync(2, func(c *task.Ctx, i int) {
			v.Update(c, func(x int) int { return x + 1 })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Empty() {
		t.Fatal("parallel Var.Updates not reported")
	}
}

func TestMatrixIndexing(t *testing.T) {
	rt, sink := newRT(t)
	m := NewMatrix[int](rt, "m", 3, 5)
	if m.Rows() != 3 || m.Cols() != 5 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	err := rt.Run(func(c *task.Ctx) {
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				m.Set(c, i, j, i*100+j)
			}
		}
		if got := m.Get(c, 2, 4); got != 204 {
			t.Errorf("m[2][4] = %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.UncheckedRow(1)[3]; got != 103 {
		t.Errorf("Row(1)[3] = %d", got)
	}
	if len(m.Unchecked()) != 15 {
		t.Errorf("Unchecked len = %d", len(m.Unchecked()))
	}
	if !sink.Empty() {
		t.Fatalf("races: %v", sink.Races())
	}
}

// TestMatrixShadowIsPerElement: writes to different elements of the same
// row must not be confused — i.e. the shadow index space is element-
// granular, not row-granular.
func TestMatrixShadowIsPerElement(t *testing.T) {
	rt, sink := newRT(t)
	m := NewMatrix[int](rt, "m", 2, 8)
	err := rt.Run(func(c *task.Ctx) {
		c.FinishAsync(8, func(c *task.Ctx, j int) {
			m.Set(c, 0, j, j)
			m.Set(c, 1, j, j)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Empty() {
		t.Fatalf("column-disjoint writes raced: %v", sink.Races())
	}
}

func TestVar(t *testing.T) {
	rt, sink := newRT(t)
	v := NewVar(rt, "v", 41)
	err := rt.Run(func(c *task.Ctx) {
		v.Set(c, v.Get(c)+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Empty() {
		t.Fatalf("races: %v", sink.Races())
	}
	// Parallel access to a Var must race.
	rt2, sink2 := newRT(t)
	v2 := NewVar(rt2, "v2", 0)
	if err := rt2.Run(func(c *task.Ctx) {
		c.FinishAsync(2, func(c *task.Ctx, i int) { v2.Set(c, i) })
	}); err != nil {
		t.Fatal(err)
	}
	if sink2.Empty() {
		t.Fatal("parallel Var writes not reported")
	}
}

func TestRawBypassesDetection(t *testing.T) {
	// Raw is the §5.5 escape hatch: accesses through it are invisible
	// to the detector (the caller asserts they cannot race).
	rt, sink := newRT(t)
	a := NewArray[int](rt, "a", 4)
	err := rt.Run(func(c *task.Ctx) {
		c.FinishAsync(2, func(c *task.Ctx, i int) {
			a.Unchecked()[0] = i // would race if instrumented; sequential executor keeps it safe here
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Empty() {
		t.Fatalf("Raw access was instrumented: %v", sink.Races())
	}
}

// TestArrayQuickSequentialSemantics: property test (testing/quick) — an
// instrumented array behaves exactly like a plain slice under any
// sequence of single-task sets.
func TestArrayQuickSequentialSemantics(t *testing.T) {
	check := func(writes []uint8, vals []int16) bool {
		rt, sink := newRT(t)
		const n = 16
		a := NewArray[int](rt, "a", n)
		ref := make([]int, n)
		err := rt.Run(func(c *task.Ctx) {
			for i, w := range writes {
				v := 0
				if i < len(vals) {
					v = int(vals[i])
				}
				idx := int(w) % n
				a.Set(c, idx, v)
				ref[idx] = v
			}
			for i := 0; i < n; i++ {
				if a.Get(c, i) != ref[i] {
					t.Errorf("a[%d] = %d, want %d", i, a.Get(c, i), ref[i])
				}
			}
		})
		return err == nil && sink.Empty()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// line returns the caller's source line, so a siteCase can name the line
// it is written on.
func line() int {
	var pc [1]uintptr
	runtime.Callers(2, pc[:])
	f, _ := runtime.CallersFrames(pc[:]).Next()
	return f.Line
}

// siteCase is one racy two-task program: second, a call of the method
// the case is named after, completes a race with first. Both are written
// on the source line the case records.
type siteCase struct {
	name          string
	prep          func(c *task.Ctx) // ordered before both tasks; may be nil
	first, second func(c *task.Ctx)
	line          int
}

// siteCases builds one case per checked container method, each on a
// container of its own named like the case.
func siteCases(rt *task.Runtime) []siteCase {
	inc := func(x int) int { return x + 1 }
	arr := func(name string) *Array[int] { return NewArray[int](rt, name, 1) }
	mat := func(name string) *Matrix[int] { return NewMatrix[int](rt, name, 1, 1) }
	vr := func(name string) *Var[int] { return NewVar(rt, name, 0) }
	var cases []siteCase
	add := func(name string, prep, first, second func(c *task.Ctx), line int) {
		cases = append(cases, siteCase{name, prep, first, second, line})
	}

	a := arr("Array.Get")
	add("Array.Get", nil, func(c *task.Ctx) { a.Set(c, 0, 1) }, func(c *task.Ctx) { a.Get(c, 0) }, line())
	a2 := arr("Array.Set")
	add("Array.Set", nil, func(c *task.Ctx) { a2.Set(c, 0, 1) }, func(c *task.Ctx) { a2.Set(c, 0, 2) }, line())
	a3 := arr("Array.Update")
	add("Array.Update", nil, func(c *task.Ctx) { a3.Get(c, 0) }, func(c *task.Ctx) { a3.Update(c, 0, inc) }, line())

	m := mat("Matrix.Get")
	add("Matrix.Get", nil, func(c *task.Ctx) { m.Set(c, 0, 0, 1) }, func(c *task.Ctx) { m.Get(c, 0, 0) }, line())
	m2 := mat("Matrix.Set")
	add("Matrix.Set", nil, func(c *task.Ctx) { m2.Set(c, 0, 0, 1) }, func(c *task.Ctx) { m2.Set(c, 0, 0, 2) }, line())
	m3 := mat("Matrix.Update")
	add("Matrix.Update", nil, func(c *task.Ctx) { m3.Get(c, 0, 0) }, func(c *task.Ctx) { m3.Update(c, 0, 0, inc) }, line())

	v := vr("Var.Get")
	add("Var.Get", nil, func(c *task.Ctx) { v.Set(c, 1) }, func(c *task.Ctx) { v.Get(c) }, line())
	v2 := vr("Var.Set")
	add("Var.Set", nil, func(c *task.Ctx) { v2.Set(c, 1) }, func(c *task.Ctx) { v2.Set(c, 2) }, line())
	v3 := vr("Var.Update")
	add("Var.Update", nil, func(c *task.Ctx) { v3.Get(c) }, func(c *task.Ctx) { v3.Update(c, inc) }, line())

	seed := func(l *List[int]) func(c *task.Ctx) { return func(c *task.Ctx) { l.Append(c, 0) } }
	l := NewList[int](rt, "List.Len")
	add("List.Len", nil, func(c *task.Ctx) { l.Append(c, 1) }, func(c *task.Ctx) { l.Len(c) }, line())
	l2 := NewList[int](rt, "List.Append")
	add("List.Append", nil, func(c *task.Ctx) { l2.Len(c) }, func(c *task.Ctx) { l2.Append(c, 1) }, line())
	l3 := NewList[int](rt, "List.Get")
	add("List.Get", seed(l3), func(c *task.Ctx) { l3.Set(c, 0, 1) }, func(c *task.Ctx) { l3.Get(c, 0) }, line())
	l4 := NewList[int](rt, "List.Set")
	add("List.Set", seed(l4), func(c *task.Ctx) { l4.Get(c, 0) }, func(c *task.Ctx) { l4.Set(c, 0, 2) }, line())

	mp := func(name string) *Map[string, int] { return NewMap[string, int](rt, name) }
	p := mp("Map.Get")
	add("Map.Get", nil, func(c *task.Ctx) { p.Set(c, "k", 1) }, func(c *task.Ctx) { p.Get(c, "k") }, line())
	p2 := mp("Map.Lookup")
	add("Map.Lookup", nil, func(c *task.Ctx) { p2.Set(c, "k", 1) }, func(c *task.Ctx) { p2.Lookup(c, "k") }, line())
	p3 := mp("Map.Len")
	add("Map.Len", nil, func(c *task.Ctx) { p3.Set(c, "k", 1) }, func(c *task.Ctx) { p3.Len(c) }, line())
	p4 := mp("Map.Set")
	add("Map.Set", nil, func(c *task.Ctx) { p4.Len(c) }, func(c *task.Ctx) { p4.Set(c, "k", 1) }, line())
	p5 := mp("Map.Update")
	add("Map.Update", nil, func(c *task.Ctx) { p5.Len(c) }, func(c *task.Ctx) { p5.Update(c, "k", inc) }, line())
	p6 := mp("Map.Delete")
	add("Map.Delete", func(c *task.Ctx) { p6.Set(c, "k", 1) }, func(c *task.Ctx) { p6.Len(c) }, func(c *task.Ctx) { p6.Delete(c, "k") }, line())
	p7 := mp("Map.Delete/absent")
	add("Map.Delete/absent", nil, func(c *task.Ctx) { p7.Set(c, "k", 1) }, func(c *task.Ctx) { p7.Delete(c, "zz") }, line())
	p8 := mp("Map.Range")
	add("Map.Range", nil, func(c *task.Ctx) { p8.Set(c, "k", 1) }, func(c *task.Ctx) { p8.Range(c, func(string, int) bool { return true }) }, line())
	return cases
}

// TestSiteCaptureAllContainers: with site capture on, a race completed
// through any checked method of Array, Matrix, Var, List or Map carries
// the file:line of the user's call — never a line inside this package's
// containers — under SPD3, a rival detector, the sampling gate and a
// parallel executor alike.
func TestSiteCaptureAllContainers(t *testing.T) {
	registry := func(name string, smp *sample.Sampler) func(*detect.Sink) detect.Detector {
		return func(sink *detect.Sink) detect.Detector {
			sink.SetSampler(smp)
			det, err := detect.New(name, detect.FactoryOpts{Sink: sink})
			if err != nil {
				t.Fatal(err)
			}
			return det
		}
	}
	configs := []struct {
		name string
		exec task.ExecKind
		mk   func(*detect.Sink) detect.Detector
	}{
		{"spd3", task.Sequential, func(s *detect.Sink) detect.Detector { return core.New(s, nil) }},
		{"fasttrack", task.Sequential, registry("fasttrack", nil)},
		{"spd3-sampled", task.Sequential, registry("spd3", sample.New(sample.Config{Mode: sample.Bernoulli, Rate: 1}))},
		{"spd3-pool", task.Pool, registry("spd3", nil)},
		{"spd3-sampled-pool", task.Pool, registry("spd3", sample.New(sample.Config{Mode: sample.Bernoulli, Rate: 1}))},
	}
	for _, cfg := range configs {
		sink := detect.NewSink(false, 0)
		sink.SetCaptureSites(true)
		rt, err := task.New(task.Config{Executor: cfg.exec, Workers: 4, Detector: cfg.mk(sink)})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range siteCases(rt) {
			t.Run(cfg.name+"/"+sc.name, func(t *testing.T) {
				mark := sink.Mark()
				// The channel orders the two accesses physically (the
				// containers' data is plain memory and CI runs this
				// package under -race) but is invisible to the detector,
				// for which the tasks stay parallel.
				done := make(chan struct{})
				err := rt.Run(func(c *task.Ctx) {
					if sc.prep != nil {
						sc.prep(c)
					}
					c.Finish(func(c *task.Ctx) {
						c.Async(func(c *task.Ctx) { sc.first(c); close(done) })
						c.Async(func(c *task.Ctx) { <-done; sc.second(c) })
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				races := sink.RacesSince(mark)
				if len(races) == 0 {
					t.Fatal("no race on deliberately racy program")
				}
				want := fmt.Sprintf(" at mem_test.go:%d", sc.line)
				for _, r := range races {
					if r.Region != sc.name || !strings.HasSuffix(r.CurStep, want) {
						t.Errorf("race %v: want region %q and site suffix %q", r, sc.name, want)
					}
				}
			})
		}
	}
}

// TestSiteCaptureOffByDefault: without the option, reports carry no
// file:line.
func TestSiteCaptureOffByDefault(t *testing.T) {
	sink := detect.NewSink(false, 0)
	rt, err := task.New(task.Config{Executor: task.Sequential,
		Detector: core.New(sink, nil)})
	if err != nil {
		t.Fatal(err)
	}
	a := NewArray[int](rt, "a", 1)
	if err := rt.Run(func(c *task.Ctx) {
		c.FinishAsync(2, func(c *task.Ctx, i int) { a.Set(c, 0, i) })
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range sink.Races() {
		if strings.Contains(r.CurStep, ".go:") {
			t.Errorf("unexpected site in %v", r)
		}
	}
}

func TestMutexProvidesMutualExclusion(t *testing.T) {
	sink := detect.NewSink(false, 0)
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 16,
		Detector: core.New(sink, nil)})
	if err != nil {
		t.Fatal(err)
	}
	mu := NewMutex(rt)
	counter := 0 // plain state: safe only because of mu
	err = rt.Run(func(c *task.Ctx) {
		c.FinishAsync(64, func(c *task.Ctx, i int) {
			mu.Lock(c)
			counter++
			mu.Unlock(c)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if counter != 64 {
		t.Fatalf("counter = %d, want 64 (lost updates)", counter)
	}
}
