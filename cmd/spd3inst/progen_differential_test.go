package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"spd3"
	"spd3/internal/analysis"
	"spd3/internal/analysis/checkelim"
	"spd3/internal/progen"
)

// TestProgenElisionDifferential is the scale half of the checkelim
// validation: 150 random async/finish/lock/loop programs are rendered
// as instrumented Go source, the eliminator computes their elision
// sets from that source, and each program is then interpreted twice
// under the sequential executor — all checks vs the elision set
// applied (elided sites use Unchecked forms; hoisted reads check once
// at loop entry). Elision must preserve the verdict AND the race digest
// byte for byte.
func TestProgenElisionDifferential(t *testing.T) {
	const seeds = 150
	cfg := progen.Config{Vars: 3, MaxDepth: 4, MaxStmts: 30, Locks: 1, Loops: true}
	progs := make([]*progen.Program, seeds)
	for i := range progs {
		progs[i] = progen.Generate(int64(i)+1, cfg)
	}
	src, siteLines := progen.RenderGoFile("progenprogs", progs)

	dir, err := os.MkdirTemp("testdata", "progen-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	if err := os.WriteFile(filepath.Join(dir, "progen.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("rendered progen source does not type-check: %v", pkg.TypeErrors[0])
	}

	// Invert the per-program site→line maps so an elision's position
	// identifies its (program, site).
	type loc struct{ prog, site int }
	lineSite := make(map[int]loc)
	for pi, m := range siteLines {
		for site, line := range m {
			lineSite[line] = loc{pi, site}
		}
	}
	elisionSets := func(res *checkelim.Result) []map[int]checkelim.Rule {
		sets := make([]map[int]checkelim.Rule, len(progs))
		for i := range sets {
			sets[i] = make(map[int]checkelim.Rule)
		}
		for _, e := range res.Elisions {
			line := pkg.Fset.Position(e.Pos).Line
			l, ok := lineSite[line]
			if !ok {
				t.Fatalf("elision at line %d maps to no access site", line)
			}
			sets[l.prog][l.site] = e.Rule
		}
		return sets
	}

	res, err := checkelim.Analyze(pkg)
	if err != nil {
		t.Fatal(err)
	}
	sets := elisionSets(res)
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	if total == 0 {
		t.Fatal("150 seeds produced no elisions; the differential is vacuous")
	}
	t.Logf("%d elisions across %d seeds (%v)", total, seeds, res.Counts())

	for pi, p := range progs {
		base := interpret(t, p, nil)
		opt := interpret(t, p, sets[pi])
		if base != opt {
			t.Errorf("seed %d: elision changed the outcome\nbase: %+v\nopt:  %+v\nelided: %v\nprogram:\n%s",
				pi+1, base, opt, sets[pi], p)
		}
	}
}

type outcome struct {
	racy   bool
	digest string
}

// interpret executes p against the public spd3 API under the
// sequential executor, applying the given elision set: dup sites
// access unchecked, hoisted sites are checked once at their
// innermost loop's entry (mirroring the hoisted declaration the fix
// inserts) and unchecked inside the body.
func interpret(t *testing.T, p *progen.Program, elided map[int]checkelim.Rule) outcome {
	t.Helper()
	eng, err := spd3.New(spd3.Options{Executor: spd3.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	v := spd3.NewArray[int](eng, "v", p.Vars)
	mus := make([]*spd3.Mutex, p.Locks)
	for i := range mus {
		mus[i] = spd3.NewMutex(eng)
	}

	// Per-loop pre-check lists: hoisted read sites, innermost loop.
	hoistPre := make(map[*progen.Node][]*progen.Node)
	var scan func(n, cur *progen.Node)
	scan = func(n, cur *progen.Node) {
		if n.Op == progen.Loop {
			cur = n
		}
		if n.Op == progen.Read && elided[n.Site] == checkelim.RuleHoist {
			if cur == nil {
				t.Fatalf("hoist elision of site %d outside any loop", n.Site)
			}
			hoistPre[cur] = append(hoistPre[cur], n)
		}
		for _, ch := range n.Children {
			scan(ch, cur)
		}
	}
	scan(p.Root, nil)

	var exec func(c *spd3.Ctx, ns []*progen.Node)
	var node func(c *spd3.Ctx, n *progen.Node)
	node = func(c *spd3.Ctx, n *progen.Node) {
		switch n.Op {
		case progen.Seq:
			exec(c, n.Children)
		case progen.Async:
			c.Async(func(c *spd3.Ctx) { exec(c, n.Children) })
		case progen.Finish:
			c.Finish(func(c *spd3.Ctx) { exec(c, n.Children) })
		case progen.Locked:
			mus[n.Var].Lock(c)
			exec(c, n.Children)
			mus[n.Var].Unlock(c)
		case progen.Loop:
			for _, a := range hoistPre[n] {
				_ = v.Get(c, a.Var)
			}
			for i := 0; i < n.Var; i++ {
				exec(c, n.Children)
			}
		case progen.Read:
			if _, ok := elided[n.Site]; ok {
				_ = v.Unchecked()[n.Var]
			} else {
				_ = v.Get(c, n.Var)
			}
		case progen.Write:
			if _, ok := elided[n.Site]; ok {
				v.Unchecked()[n.Var] = n.Site
			} else {
				v.Set(c, n.Var, n.Site)
			}
		}
	}
	exec = func(c *spd3.Ctx, ns []*progen.Node) {
		for _, n := range ns {
			node(c, n)
		}
	}

	rep, err := eng.Run(func(c *spd3.Ctx) { exec(c, p.Root.Children) })
	if err != nil {
		t.Fatalf("seed %d: run: %v", p.Seed, err)
	}
	set := make(map[string]struct{})
	for _, rc := range rep.Races {
		set[fmt.Sprintf("spd3/%s/%s/%d", rc.Kind, rc.Region, rc.Index)] = struct{}{}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return outcome{racy: !rep.RaceFree(), digest: fmt.Sprintf("%x", h.Sum(nil))}
}
