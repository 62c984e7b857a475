package progen

import (
	"fmt"
	"math/rand"
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/graph"
	"spd3/internal/shadow"
	"spd3/internal/task"
)

// TestPagedFlatAgreeAcrossPageBoundaries hammers random sparse indices
// clustered around shadow page boundaries — the indices most likely to
// expose page-clipping or directory-indexing bugs — and checks that the
// paged detector's racy (region, index) set equals the computation-DAG
// oracle's: a cell resolved to the wrong page would move, merge or drop
// a location.
func TestPagedFlatAgreeAcrossPageBoundaries(t *testing.T) {
	const (
		elems  = 3*shadow.PageSize + 7 // four pages, short last page
		tasks  = 8
		events = 40
	)
	type acc struct {
		idx   int
		write bool
	}
	for trial := int64(0); trial < 25; trial++ {
		rng := rand.New(rand.NewSource(1000 + trial))
		scripts := make([][]acc, tasks)
		for ti := range scripts {
			for e := 0; e < events; e++ {
				// Bias indices to within a few cells of a page boundary.
				idx := rng.Intn(4)*shadow.PageSize + rng.Intn(7) - 3
				if idx < 0 {
					idx = 0
				}
				if idx >= elems {
					idx = elems - 1
				}
				scripts[ti] = append(scripts[ti], acc{idx: idx, write: rng.Intn(3) == 0})
			}
		}
		// run executes the scripts under d and returns the racy
		// locations it reports through races.
		run := func(d detect.Detector, races func() []detect.Race) map[string]bool {
			rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d})
			if err != nil {
				t.Fatal(err)
			}
			sh := d.NewShadow(detect.Spec("v", elems, 8))
			if err := rt.Run(func(c *task.Ctx) {
				c.Finish(func(c *task.Ctx) {
					for _, s := range scripts {
						s := s
						c.Async(func(c *task.Ctx) {
							for _, a := range s {
								if a.write {
									sh.Write(c.Task(), a.idx)
								} else {
									sh.Read(c.Task(), a.idx)
								}
							}
						})
					}
				})
			}); err != nil {
				t.Fatal(err)
			}
			set := map[string]bool{}
			for _, r := range races() {
				set[fmt.Sprintf("%s[%d]", r.Region, r.Index)] = true
			}
			return set
		}
		sink := detect.NewSink(false, 0)
		paged := run(core.New(sink, nil), sink.Races)
		oracle := graph.New()
		want := run(oracle, oracle.Races)
		if len(paged) != len(want) {
			t.Fatalf("trial %d: paged %v != oracle %v", trial, paged, want)
		}
		for k := range paged {
			if !want[k] {
				t.Fatalf("trial %d: location %s reported by paged only", trial, k)
			}
		}
	}
}
