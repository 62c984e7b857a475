package core

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"spd3/internal/detect"
	"spd3/internal/progen"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// Access kinds of an accessProgram's sites.
const (
	kindRead = iota
	kindWrite
	kindUpdate
)

// accessProgram is a progen program whose every access is a read, a write
// or an update, drawn from a seed.
type accessProgram struct {
	*progen.Program
	kinds map[*progen.Node]int
}

func newAccessProgram(p *progen.Program, seed int64) accessProgram {
	rng := rand.New(rand.NewSource(seed))
	kinds := map[*progen.Node]int{}
	var draw func(n *progen.Node)
	draw = func(n *progen.Node) {
		if n.Op == progen.Read || n.Op == progen.Write {
			kinds[n] = rng.Intn(3)
		}
		for _, ch := range n.Children {
			draw(ch)
		}
	}
	draw(p.Root)
	return accessProgram{p, kinds}
}

// run executes the program's tree on rt, every access through sh.
func (p accessProgram) run(rt *task.Runtime, sh detect.Shadow) error {
	var exec func(c *task.Ctx, ns []*progen.Node)
	exec = func(c *task.Ctx, ns []*progen.Node) {
		for _, n := range ns {
			switch n.Op {
			case progen.Async:
				c.Async(func(c *task.Ctx) { exec(c, n.Children) })
			case progen.Finish:
				c.Finish(func(c *task.Ctx) { exec(c, n.Children) })
			case progen.Loop:
				for range n.Var {
					exec(c, n.Children)
				}
			case progen.Read, progen.Write:
				switch p.kinds[n] {
				case kindRead:
					sh.Read(c.Task(), n.Var)
				case kindWrite:
					sh.Write(c.Task(), n.Var)
				case kindUpdate:
					detect.Update(sh, c.Task(), n.Var)
				}
			default: // Seq, and Locked: locks mean nothing to SPD3
				exec(c, n.Children)
			}
		}
	}
	return rt.Run(func(c *task.Ctx) { exec(c, p.Root.Children) })
}

// pairShadow hides its shadow's Update, so detect.Update makes two memory
// actions of it: Read and then Write.
type pairShadow struct{ detect.Shadow }

// TestUpdateMatchesReadWrite: the fused update is Read then Write made one
// memory action. On random async/finish programs whose accesses are
// random reads, writes and updates of three cells, a detector whose
// updates fuse and a twin whose updates are two actions must report the
// same races — the same reports, duplicates included — and leave the same
// words, while the fused one publishes no more often.
func TestUpdateMatchesReadWrite(t *testing.T) {
	type outcome struct {
		races    []detect.Race
		reports  int64
		words    []casCell
		publish  int64
		accesses int64
	}
	run := func(p accessProgram, fused bool) outcome {
		rec := stats.New()
		sink := detect.NewSink(false, 0)
		sink.SetStats(rec)
		d := New(sink, rec)
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: d, Stats: rec})
		if err != nil {
			t.Fatal(err)
		}
		sh := d.NewShadow(detect.Spec("v", p.Vars, 8))
		if !fused {
			sh = pairShadow{sh}
		}
		if err := p.run(rt, sh); err != nil {
			t.Fatal(err)
		}
		var o outcome
		d.regions.Range(func(c *casCell) { o.words = append(o.words, *c) })
		snap := rec.Snapshot()
		o.races = sink.Races()
		o.reports = snap.Get(stats.RaceReported) + snap.Get(stats.RaceDeduped)
		o.publish = snap.Get(stats.CASPublish)
		o.accesses = snap.Get(stats.CASClean) + o.publish
		return o
	}
	var updates, racy, fewer int
	for seed := int64(0); seed < 300; seed++ {
		p := newAccessProgram(progen.Generate(seed, progen.Config{Vars: 3, MaxStmts: 30}), seed)
		fused, pair := run(p, true), run(p, false)
		if !reflect.DeepEqual(fused.races, pair.races) || fused.reports != pair.reports {
			t.Fatalf("seed %d: fused update reports %d: %v\nread and write report %d: %v\n%s", seed, fused.reports, fused.races, pair.reports, pair.races, p)
		}
		if !reflect.DeepEqual(fused.words, pair.words) {
			t.Fatalf("seed %d: fused update leaves %v, read and write %v\n%s", seed, fused.words, pair.words, p)
		}
		if fused.publish > pair.publish {
			t.Fatalf("seed %d: fused update published %d times, read and write %d", seed, fused.publish, pair.publish)
		}
		updates += int(pair.accesses - fused.accesses)
		if len(fused.races) > 0 {
			racy++
		}
		if fused.publish < pair.publish {
			fewer++
		}
	}
	if updates == 0 || racy == 0 || fewer == 0 {
		t.Fatalf("%d updates, %d racy programs, %d with fewer publishes: the generator is not exercising the fused path", updates, racy, fewer)
	}
}

// memoAudit is a Detector whose shadows either check, after every memory
// action, each answer in the executing goroutine's relation memo against
// a walk or — cold — empty the memo before every memory action, so that
// every query but an update's repeats is walked.
type memoAudit struct {
	*Detector
	t       *testing.T
	cold    bool
	entries atomic.Int64 // answers audited
}

func newMemoAudit(t *testing.T, cold bool) (*memoAudit, *detect.Sink, *stats.Recorder) {
	rec := stats.New()
	sink := detect.NewSink(false, 0)
	sink.SetStats(rec)
	return &memoAudit{Detector: New(sink, rec), t: t, cold: cold}, sink, rec
}

func (m *memoAudit) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	return auditShadow{m.Detector.NewShadow(spec).(*casShadow), m}
}

func (m *memoAudit) before(l *detect.Local) {
	if m.cold {
		l.Memo = detect.RelMemo{}
	}
}

func (m *memoAudit) after(l *detect.Local) {
	if m.cold {
		return
	}
	for _, e := range l.Memo {
		if e.A == 0 {
			continue
		}
		m.entries.Add(1)
		parallel, side := m.tree.DMHP(e.A, e.S)
		if parallel != e.Parallel || side != e.Side {
			m.t.Errorf("memo holds (%d, %d) → parallel %v, side %d; the walk answers %v, %d", e.A, e.S, e.Parallel, e.Side, parallel, side)
		}
	}
}

type auditShadow struct {
	*casShadow
	m *memoAudit
}

func (s auditShadow) Read(t *detect.Task, i int) {
	s.m.before(t.L)
	s.casShadow.Read(t, i)
	s.m.after(t.L)
}

func (s auditShadow) Write(t *detect.Task, i int) {
	s.m.before(t.L)
	s.casShadow.Write(t, i)
	s.m.after(t.L)
}

func (s auditShadow) Update(t *detect.Task, i int) {
	s.m.before(t.L)
	s.casShadow.Update(t, i)
	s.m.after(t.L)
}

// memoPrograms is what TestRelationMemoAgreesWithWalk runs: per seed, one
// detector reused for three runs of programs of top-level phases — two
// with no escaping async, three with one before the first phase, four with
// one after the first — so that the watermark moves past memoised answers
// or stays, and later runs meet the answers of earlier ones.
func memoPrograms(t *testing.T, m *memoAudit, exec task.ExecKind, workers int, seed int64) {
	t.Helper()
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: m, Stats: m.st})
	if err != nil {
		t.Fatal(err)
	}
	sh := m.NewShadow(detect.Spec("v", 4, 8))
	for run := range 3 {
		p := newAccessProgram(phasedProgram(seed*3+int64(run), 2+run, run-1), seed)
		if err := p.run(rt, sh); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRelationMemoAgreesWithWalk: the relation memo answers as the walk
// does. On memoPrograms, a detector consulting it must report the races
// and leave the words of a twin whose memo is emptied before every memory
// action, while walking less; and every answer the memo holds, at every
// point of a run, sequential or under the pool, is the walk's.
func TestRelationMemoAgreesWithWalk(t *testing.T) {
	fewer := 0
	for seed := int64(0); seed < 60; seed++ {
		type outcome struct {
			races   []detect.Race
			reports int64
			walks   int64
			words   []casCell
		}
		var out [2]outcome
		for k, cold := range []bool{false, true} {
			m, sink, rec := newMemoAudit(t, cold)
			memoPrograms(t, m, task.Sequential, 1, seed)
			snap := rec.Snapshot()
			out[k] = outcome{races: sink.Races(), reports: snap.Get(stats.RaceReported) + snap.Get(stats.RaceDeduped), walks: snap.Get(stats.DMHPWalk)}
			m.regions.Range(func(c *casCell) { out[k].words = append(out[k].words, *c) })
		}
		memo, cold := out[0], out[1]
		if !reflect.DeepEqual(memo.races, cold.races) || memo.reports != cold.reports || !reflect.DeepEqual(memo.words, cold.words) {
			t.Fatalf("seed %d: with the memo %d reports %v and words %v; without, %d reports %v and words %v",
				seed, memo.reports, memo.races, memo.words, cold.reports, cold.races, cold.words)
		}
		if memo.walks > cold.walks {
			t.Fatalf("seed %d: %d walks with the memo, %d without", seed, memo.walks, cold.walks)
		}
		if memo.walks < cold.walks {
			fewer++
		}
	}
	if fewer == 0 {
		t.Fatal("the memo answered no query: the programs do not repeat one")
	}

	for _, exec := range []struct {
		kind    task.ExecKind
		workers int
	}{{task.Sequential, 1}, {task.Pool, 4}} {
		m, _, _ := newMemoAudit(t, false)
		for seed := int64(0); seed < 40; seed++ {
			memoPrograms(t, m, exec.kind, exec.workers, seed)
			if t.Failed() {
				t.Fatalf("%v, seed %d", exec.kind, seed)
			}
		}
		if m.entries.Load() == 0 {
			t.Fatalf("%v: no memoised answer was audited", exec.kind)
		}
	}
}
