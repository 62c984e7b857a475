package core

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"

	"spd3/internal/detect"
	"spd3/internal/progen"
	"spd3/internal/stats"
	"spd3/internal/task"
	"spd3/internal/trace"
)

// TestOwnedMatchesShared: an owned detector is the shared one with plain
// stores. Over 150 generated programs, each recorded depth-first and
// under the pool, the trace replayed into an owned and into a shared SPD3
// gives the same races, leaves the same two words in every cell, and
// counts the same cas.clean, cas.publish and dmhp.walk;
// the owned one never retries.
func TestOwnedMatchesShared(t *testing.T) {
	type outcome struct {
		races  []string
		cells  []casCell
		counts [4]int64 // cas.clean, cas.publish, dmhp.walk, cas.retry
	}
	replay := func(data []byte, owned bool) outcome {
		ses := openOwned(t, owned)
		d := ses.Det.(*Detector)
		if d.Owned() != owned || detect.Owned(ses.Det) != owned {
			t.Fatalf("opened with Owned %v, the detector says %v", owned, d.Owned())
		}
		if err := trace.ReplayWithLimits(bytes.NewReader(data), ses.Det, ses.Rec, trace.DefaultLimits()); err != nil {
			t.Fatal(err)
		}
		o := outcome{}
		for _, r := range ses.Sink.Races() {
			o.races = append(o.races, r.String())
		}
		sort.Strings(o.races)
		d.regions.Range(func(c *casCell) { o.cells = append(o.cells, *c) })
		snap := ses.Rec.Snapshot()
		for i, id := range []stats.Counter{stats.CASClean, stats.CASPublish, stats.DMHPWalk, stats.CASRetry} {
			o.counts[i] = snap.Get(id)
		}
		return o
	}
	racy := 0
	for seed := int64(0); seed < 150; seed++ {
		p := progen.Generate(seed, progen.Config{Locks: 1})
		for _, e := range []struct {
			kind    task.ExecKind
			workers int
		}{{task.Sequential, 1}, {task.Pool, 4}} {
			data := recordProgram(t, p, e.kind, e.workers)
			shared, owned := replay(data, false), replay(data, true)
			if !reflect.DeepEqual(owned, shared) {
				t.Fatalf("seed %d recorded under %v: owned replay\n%+v\nshared replay\n%+v\n%s", seed, e.kind, owned, shared, p)
			}
			if owned.counts[3] != 0 {
				t.Fatalf("seed %d: an owned replay retried %d times", seed, owned.counts[3])
			}
			if len(owned.races) > 0 {
				racy++
			}
		}
	}
	if racy == 0 {
		t.Fatal("no recording raced: the differential compares no reports")
	}
}

// openOwned opens a registry SPD3 session, owned or shared.
func openOwned(t *testing.T, owned bool) *detect.Session {
	t.Helper()
	ses, err := detect.Open("spd3", detect.SessionOpts{Owned: owned})
	if err != nil {
		t.Fatal(err)
	}
	return ses
}

// recordProgram records p run under exec with workers.
func recordProgram(t *testing.T, p *progen.Program, exec task.ExecKind, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, exec == task.Sequential)
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := progen.Run(rt, p, nil); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOwnedDetectorRefusesParallelExecutors: an owned SPD3 publishes with
// plain stores, so the runtime refuses to pair it with an executor that
// would check its cells from two goroutines; the sequential executor, and
// Auto, which resolves to it, run it.
func TestOwnedDetectorRefusesParallelExecutors(t *testing.T) {
	_, err := task.New(task.Config{Executor: task.Pool, Workers: 2, Detector: openOwned(t, true).Det})
	if !errors.Is(err, task.ErrExecutorMismatch) {
		t.Errorf("owned spd3 under the pool: err = %v, want ErrExecutorMismatch", err)
	}
	if _, err := task.New(task.Config{Executor: task.Pool, Workers: 2, Detector: openOwned(t, false).Det}); err != nil {
		t.Errorf("shared spd3 under the pool: %v", err)
	}
	for _, exec := range []task.ExecKind{task.Sequential, task.Auto} {
		ses := openOwned(t, true)
		rt, err := task.New(task.Config{Executor: exec, Detector: ses.Det, Stats: ses.Rec})
		if err != nil {
			t.Fatalf("owned spd3 under %v: %v", exec, err)
		}
		if rt.Executor() != task.Sequential {
			t.Errorf("owned spd3 under %v resolved to %v", exec, rt.Executor())
		}
		if err := progen.Run(rt, progen.Generate(3, progen.Config{}), nil); err != nil {
			t.Fatal(err)
		}
	}
}
