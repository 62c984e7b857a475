// Package analysis is a small, stdlib-only static-analysis framework for
// programs written against the spd3 API, plus the four analyzers behind
// cmd/spd3vet.
//
// SPD3's headline guarantee — one quiet execution certifies *all*
// schedules of an input (PAPER §3, Theorems 1–2) — rests on two
// preconditions the dynamic detector cannot check by itself:
//
//  1. every shared access goes through instrumented shadow memory
//     (package mem routes Get/Set through the detector; Unchecked and
//     friends deliberately do not), and
//  2. all parallelism stays inside the structured async/finish
//     discipline the DPST models (raw `go` statements, sync primitives,
//     and channels are invisible to it).
//
// A program that violates either precondition silently voids the
// guarantee: the detector still answers, but the answer no longer covers
// the uninstrumented accesses or the unmodeled concurrency. The paper
// closes the same gap with a compiler pass that instruments *every*
// access (§5) and with static optimizations that elide checks only where
// a proof exists (§5.5). This package is the Go-side analogue of that
// proof obligation: a set of type-based checks that flag exactly the
// places where the programmer stepped outside the detector's model.
//
// The framework follows the shape of golang.org/x/tools/go/analysis —
// an Analyzer with a Run function over a Pass, reporting Diagnostics
// with optional machine-applicable SuggestedFixes — but is built from
// scratch on go/parser, go/ast, and go/types only, because this module
// has no dependencies and must stay that way.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Version identifies the analysis subsystem in JSON reports.
const Version = "1.0.0"

// An Analyzer is one named check. Run inspects a type-checked package
// through the Pass and reports findings via Pass.Report.
type Analyzer struct {
	// Name is the analyzer's identifier (also the diagnostic category):
	// a short lowercase word, e.g. "unchecked".
	Name string
	// Doc is a one-paragraph description of what the check enforces and
	// why violating it breaks the detector's guarantee.
	Doc string
	// Run performs the check over one package.
	Run func(*Pass) error
	// OptIn marks an analyzer that must be requested by name (spd3vet
	// -analyzers) rather than running in the default suite. Optimizers
	// like checkelim are opt-in: their findings are opportunities, not
	// soundness violations, so they must not fail a gate that runs All.
	OptIn bool
}

// A Pass provides one analyzer run over one package: the syntax, the
// type information, the source bytes, and the report sink. The same
// package is shared by every analyzer; passes must not mutate it.
type Pass struct {
	Analyzer *Analyzer
	*Package

	diags    *[]Diagnostic
	reported map[token.Pos]bool
}

// Report records one finding against the pass's analyzer. A second
// finding at a position the analyzer already reported is dropped, so an
// analyzer whose walks overlap (nested task bodies) reports each site
// once.
func (p *Pass) Report(d Diagnostic) {
	if p.reported[d.Pos] {
		return
	}
	p.reported[d.Pos] = true
	d.Analyzer = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

// Reportf reports a finding at pos with a formatted message and no fix.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position, a message, and optionally a
// machine-applicable rewrite.
type Diagnostic struct {
	// Pos is the finding's anchor in the pass's FileSet.
	Pos token.Pos
	// Analyzer is the reporting analyzer's name (filled by Report).
	Analyzer string
	// Message states the violation and, where short, the remedy.
	Message string
	// Fix, when non-nil, rewrites the flagged code to the supported
	// form; cmd/spd3vet applies it under -fix.
	Fix *SuggestedFix
}

// A SuggestedFix is a set of text edits that together resolve one
// diagnostic. Edits within one fix must not overlap.
type SuggestedFix struct {
	// Message describes the rewrite ("use Unchecked").
	Message string
	// Edits are the concrete replacements.
	Edits []TextEdit
}

// A TextEdit replaces the source range [Pos, End) with NewText.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// Run executes every analyzer in analyzers over pkg and returns the
// findings sorted by position. Analyzer errors (not findings) abort the
// run.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Package: pkg, diags: &diags, reported: make(map[token.Pos]bool)}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	SortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// SortDiagnostics orders diags by file, line, column, then analyzer
// name, for stable output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// A FuncScope is one function with a body: a declaration or a literal.
type FuncScope struct {
	// Func is the *ast.FuncDecl or *ast.FuncLit; its span includes the
	// parameter list.
	Func ast.Node
	Type *ast.FuncType
	Body *ast.BlockStmt
}

// FuncScopes returns every function with a body in files, each
// enclosing function before the ones nested in it.
func FuncScopes(files ...*ast.File) []FuncScope {
	var out []FuncScope
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, FuncScope{Func: n, Type: n.Type, Body: n.Body})
				}
			case *ast.FuncLit:
				out = append(out, FuncScope{Func: n, Type: n.Type, Body: n.Body})
			}
			return true
		})
	}
	return out
}

// Innermost returns the tightest of scopes whose body contains pos, or
// nil when none does. scopes must be in FuncScopes order.
func Innermost(scopes []FuncScope, pos token.Pos) *FuncScope {
	var best *FuncScope
	for i := range scopes {
		if s := &scopes[i]; s.Body.Pos() <= pos && pos <= s.Body.End() {
			best = s
		}
	}
	return best
}
