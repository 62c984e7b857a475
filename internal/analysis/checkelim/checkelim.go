// Package checkelim is the §5.5 static check eliminator: a whole-
// package pass over type-checked spd3 programs that finds checked
// container accesses whose DPST verdict is provably implied by an
// earlier access in the same task region, and emits machine-applicable
// fixes downgrading them to the Unchecked forms.
//
// The soundness frame (DESIGN §9 carries the full per-rule argument):
// between two consecutive task operations — spawn, finish, lock,
// unlock — a task executes exactly one DPST step. Every check performed
// by that step uses the same step identity against the same shadow
// cell, so the detector's answer to the second of two same-cell checks
// is fully determined by the first: a second read check early-outs on
// the recorded reader slots, and a second write check early-outs on
// the recorded writer, with any re-found race deduplicating to the
// same (kind, region, index) record. Deleting the second check is
// therefore invisible to the verdict and to the race-set digest. Two
// rules exploit this:
//
//   - dup: a Get (Set) to the same (container, index, ctx) as an
//     earlier Get (Set) with no intervening barrier and no
//     reassignment of the receiver or index operands rewrites to
//     Unchecked/UncheckedRow, marked //spd3opt:elided.
//   - hoist: a checked read in a sequential, barrier-free loop whose
//     receiver and index are loop-invariant hoists to a single checked
//     read into a local above the loop, provided the loop provably
//     runs at least once (constant-folded bounds) and the loop body
//     never writes the container.
//
// A read of a cell the same step already wrote is kept and recorded as
// a writedom skip: the write check subsumes the read's verdict, but
// eliding the read would also drop its reader-slot record, which later
// writers' checks compare against, so the race-set digest could change
// (DESIGN §9).
//
// The pass is deliberately conservative: any call it cannot classify
// (unknown functions, Update callbacks, Ctx methods, locks) is a
// barrier that forgets every outstanding fact, and any index it cannot
// prove pure and stable contributes no fact at all.
package checkelim

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"spd3/internal/analysis"
)

// Rule names one elimination rule, as counted in reports.
type Rule string

const (
	// RuleDup is the dominated-duplicate rule.
	RuleDup Rule = "dup"
	// RuleHoist is the loop-invariant read hoist.
	RuleHoist Rule = "hoist"
	// RuleWriteDom names the skip of a read whose cell the same step
	// already wrote; it never elides.
	RuleWriteDom Rule = "writedom"
)

// An Elision is one checked access the pass proved redundant.
type Elision struct {
	// Rule is the rule that fired.
	Rule Rule
	// Pos..End span the downgraded access call.
	Pos, End token.Pos
	// Container is the container kind ("Array", "Matrix", "Var").
	Container string
	// DomPos is the dominating access (dup) or the loop the read was
	// hoisted out of (hoist).
	DomPos token.Pos
}

// A Skip is a near-miss: a repeated access the pass recognized but
// could not soundly elide, with the reason. Corpus sweeps aggregate
// these to see what a stronger pass could still buy.
type Skip struct {
	Pos    token.Pos
	Rule   Rule
	Reason string
}

// Result is one package's elimination outcome.
type Result struct {
	// Elisions lists every downgraded access, in position order.
	Elisions []Elision
	// Skips lists recognized-but-kept accesses, in position order.
	Skips []Skip
	// Diags carries the same content as position-sorted diagnostics
	// with machine-applicable fixes, ready for analysis.ApplyFixes.
	Diags []analysis.Diagnostic
}

// Counts tallies elisions per rule.
func (r *Result) Counts() map[string]int {
	c := make(map[string]int)
	for _, e := range r.Elisions {
		c[string(e.Rule)]++
	}
	return c
}

// Analyzer is the registered spd3vet analyzer.
const analyzerName = "checkelim"

var Analyzer = &analysis.Analyzer{
	Name: analyzerName,
	Doc: "report checked container accesses whose verdict is implied by " +
		"an earlier same-step access, with fixes downgrading them (§5.5)",
	Run: runAnalyzer,
	// Findings are optimization opportunities, not soundness
	// violations: keep them out of the default gate suite.
	OptIn: true,
}

func init() { analysis.Register(Analyzer) }

func runAnalyzer(pass *analysis.Pass) error {
	res, err := Analyze(pass.Package)
	if err != nil {
		return err
	}
	for _, d := range res.Diags {
		pass.Report(d)
	}
	return nil
}

// Analyze runs the eliminator over one loaded package.
func Analyze(pkg *analysis.Package) (*Result, error) {
	res := &Result{}
	pkgFacts := scanPackage(pkg)
	for _, f := range pkg.Files {
		name := pkg.Fset.File(f.Pos()).Name()
		src, ok := pkg.Src[name]
		if !ok {
			return nil, fmt.Errorf("checkelim: no source for %s", name)
		}
		fb := newFixBuilder(pkg.Fset, src, f)
		// Every function body — declaration or literal — is a region,
		// analyzed independently: within one invocation its statements
		// run in order on one task, which is all straight-line
		// domination needs. The walker skips literal bodies (defining a
		// closure runs nothing); they are regions of their own.
		for _, sc := range analysis.FuncScopes(f) {
			if hasLabels(sc.Body) {
				continue // goto could loop; straight-line domination is off
			}
			w := newWalker(pkg.Info, res, pkgFacts, fb, sc)
			w.stmts(sc.Body.List)
		}
		fb.flush(pkg.Fset, res)
	}
	sortResult(pkg.Fset, res)
	return res, nil
}

// hasLabels reports whether body contains a labeled statement (the
// target of goto/labeled break — backward jumps would invalidate the
// walker's straight-line order).
func hasLabels(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.LabeledStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

func sortResult(fset *token.FileSet, res *Result) {
	sort.Slice(res.Elisions, func(i, j int) bool { return res.Elisions[i].Pos < res.Elisions[j].Pos })
	sort.Slice(res.Skips, func(i, j int) bool { return res.Skips[i].Pos < res.Skips[j].Pos })
	analysis.SortDiagnostics(fset, res.Diags)
}
