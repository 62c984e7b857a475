package core

import (
	"fmt"
	"testing"

	"spd3/internal/detect"
	"spd3/internal/dpst"
	"spd3/internal/graph"
	"spd3/internal/progen"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// watermarkSpy is a Detector that notes, after each of the two events that
// may move the watermark, where it stands, how many ids the tree has handed
// out, the noting task's step and whether the run node has an async child.
type watermarkSpy struct {
	*Detector
	marks []mark
}

type mark struct {
	w       uint32
	len     int64
	step    uint32 // the noting task's step: after a FinishEnd, its continuation
	run     bool   // noted by MainTask: w is the new run node's id
	escaped bool
}

func (s *watermarkSpy) note(t *detect.Task, run bool) {
	s.marks = append(s.marks, mark{s.watermark, s.tree.Len(), s.StepOf(t), run, s.escaped})
}

func (s *watermarkSpy) MainTask(t *detect.Task, f *detect.Finish) {
	s.Detector.MainTask(t, f)
	s.note(t, true)
}

// FinishEnd notes the ends of top-level finishes and of the run's own —
// the main task's, alone at depth 1 and 2 — so that the plain words are
// read, and marks appended, by the one task that writes them.
func (s *watermarkSpy) FinishEnd(t *detect.Task, f *detect.Finish) {
	top := s.tree.Depth(s.tree.Parent(t.Step)) <= 2
	s.Detector.FinishEnd(t, f)
	if top {
		s.note(t, false)
	}
}

// phasedProgram is the test's program builder: a main body of phases
// top-level finishes, each around a generated program, with — the knob —
// an async around one more spawned directly under the implicit finish
// before phase escapeAt (after the last when escapeAt == phases, nowhere
// when it is negative).
func phasedProgram(seed int64, phases, escapeAt int) *progen.Program {
	part := func(k int, op progen.Op) *progen.Node {
		p := progen.Generate(seed*16+int64(k), progen.Config{MaxStmts: 14, MaxDepth: 3})
		return &progen.Node{Op: op, Children: p.Root.Children}
	}
	root := &progen.Node{Op: progen.Seq}
	for k := 0; k <= phases; k++ {
		if k == escapeAt {
			root.Children = append(root.Children, part(phases+1, progen.Async))
		}
		if k < phases {
			root.Children = append(root.Children, part(k, progen.Finish))
		}
	}
	return &progen.Program{Root: root, Vars: 4, Seed: seed}
}

// spyRuns runs progs one after the other on one spied detector. Each
// program's verdict must be the oracle's. Every position the watermark was
// seen at must satisfy invariant W against the finished tree — every node
// below it is not parallel with any step at or above it — and its moves
// must be the ones the tree's shape allows: never backwards, to a run node
// or to the continuation just placed, the last id handed out (rule R2 of
// package dpst: it comes from the shared counter, and nothing else
// inserts), and nowhere while the run node has an async child. It returns
// the last run's marks.
func spyRuns(t *testing.T, what string, exec task.ExecKind, workers int, progs ...*progen.Program) []mark {
	t.Helper()
	// The sink keeps one report per (kind, region, index) for as long as it
	// lives and every run's region is "v": a run's verdict is whether it
	// reported at all, duplicates of an earlier run's included.
	sink, rec := detect.NewSink(false, 0), stats.New()
	sink.SetStats(rec)
	reports := func() int64 {
		snap := rec.Snapshot()
		return snap.Get(stats.RaceReported) + snap.Get(stats.RaceDeduped)
	}
	spy := &watermarkSpy{Detector: New(sink, nil)}
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: spy})
	if err != nil {
		t.Fatal(err)
	}
	lastRun := 0
	for _, p := range progs {
		oracle := graph.New()
		ort, err := task.New(task.Config{Executor: task.Sequential, Detector: oracle})
		if err != nil {
			t.Fatal(err)
		}
		if err := progen.Run(ort, p, nil); err != nil {
			t.Fatal(err)
		}
		before := reports()
		lastRun = len(spy.marks)
		if err := progen.Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		if got := reports() > before; got != oracle.HasRace() {
			t.Fatalf("%s: spd3 verdict %v, oracle %v\n%s", what, got, oracle.HasRace(), p)
		}
	}

	tree, checked := spy.tree, uint32(0)
	for i, m := range spy.marks {
		prev := mark{w: 1}
		if i > 0 {
			prev = spy.marks[i-1]
		}
		switch {
		case m.w < prev.w:
			t.Fatalf("%s: watermark went back, %d to %d", what, prev.w, m.w)
		case m.run && (m.w != uint32(m.len)-2 || tree.Depth(m.w) != 1):
			t.Fatalf("%s: run starts with watermark %d in a tree of %d nodes, want the run node", what, m.w, m.len)
		case !m.run && m.w != prev.w && (m.escaped || m.w != m.step || m.w != uint32(m.len)-1):
			t.Fatalf("%s: watermark moved %d to %d (escaped %v, continuation %d) in a tree of %d nodes", what, prev.w, m.w, m.escaped, m.step, m.len)
		}
		if m.w == checked {
			continue
		}
		checked = m.w
		for b := int64(m.w); b < tree.Len(); b++ {
			s := uint32(b)
			if tree.Kind(s) != dpst.StepNode {
				continue
			}
			for a := uint32(0); a < m.w; a++ {
				if p, _ := tree.DMHP(a, s); p {
					t.Fatalf("%s: watermark %d, but %s may happen in parallel with %s", what, m.w, tree.Name(a), tree.Name(s))
				}
			}
		}
	}
	return spy.marks[lastRun:]
}

// TestWatermarkAgreesWithWalk checks invariant W — what lets relation
// answer for a step below the watermark without walking — on programs that
// mix quiescent top-level finishes with ones an escaping async overlaps,
// under a sequential and a parallel schedule and across reuses of one
// detector; see spyRuns for what is held.
func TestWatermarkAgreesWithWalk(t *testing.T) {
	const seeds = 160
	var moved, pinned int
	for seed := int64(0); seed < seeds; seed++ {
		phases := 2 + int(seed%3)
		escapeAt := int(seed%int64(phases+2)) - 1 // -1 (none), 0 … phases
		p := phasedProgram(seed, phases, escapeAt)
		for _, exec := range []struct {
			kind    task.ExecKind
			workers int
		}{{task.Sequential, 1}, {task.Pool, 4}} {
			marks := spyRuns(t, fmt.Sprintf("seed %d, %v", seed, exec.kind), exec.kind, exec.workers, p)
			// A run's marks: its start, each phase's end, its own end.
			if len(marks) != phases+2 {
				t.Fatalf("seed %d: %d marks for %d phases", seed, len(marks), phases)
			}
			// The watermark moves at the end of exactly the phases before
			// the escaping async.
			for k := 1; k <= phases; k++ {
				if got, want := marks[k].w != marks[k-1].w, escapeAt < 0 || k <= escapeAt; got != want {
					t.Fatalf("seed %d, escape at %d: watermark moved at the end of phase %d: %v, want %v", seed, escapeAt, k-1, got, want)
				}
			}
			if marks[phases+1].w != marks[phases].w {
				t.Fatalf("seed %d: the run's own end moved the watermark", seed)
			}
			if escapeAt == 0 {
				pinned++
			} else {
				moved++
			}
		}
	}
	if moved == 0 || pinned == 0 {
		t.Fatalf("%d runs moved the watermark and %d pinned it at the run node: the builder's knob is not working", moved, pinned)
	}
	for _, exec := range []task.ExecKind{task.Sequential, task.Pool} {
		spyRuns(t, "three runs of one detector", exec, 4,
			phasedProgram(seeds, 3, 2), phasedProgram(seeds+1, 2, -1), phasedProgram(seeds+2, 3, 0))
	}
}
