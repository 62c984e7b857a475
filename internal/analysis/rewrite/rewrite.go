// Package rewrite implements spd3inst's source-to-source instrumenter.
//
// The input is a plain Go program that already uses spd3 for task
// *structure* — Engine.Run, Ctx.Async/FinishAsync/ParallelFor — but
// plain Go for *data*: slices, scalars, maps, sync.Mutex. The output is
// the same program with every shared mutable datum re-declared as an
// instrumented container (spd3.Array/Matrix/Var/Map/Mutex) and every
// access routed through the detector, so the dynamic race detector's
// soundness guarantee (PAPER §3) covers the whole program.
//
// Classification is static, via go/types:
//
//   - A variable is *shared* when a spawned task closure (Async,
//     FinishAsync, ParallelFor body) captures it as a free variable.
//   - A shared variable needs instrumentation when some use inside a
//     task closure is a write, or is not provably a read. Shared
//     variables the tasks only read are left untouched: a race needs a
//     write, and driver-side writes are ordered before and after the
//     run — this is the static read-only check elimination of PAPER
//     §5.5, applied at variable granularity.
//
// Rewriting is all-or-nothing per variable. If any single use has a
// shape the rewriter cannot convert soundly (address taken, slice
// aliased, passed to an unknown callee, ...), the variable is left
// exactly as written and a skip diagnostic is recorded; the rewriter
// also inserts the reason into the output as a directive comment:
//
//	//spd3inst:skip <reason>
//
// The same directive, written by hand on (or one line above) a
// declaration, opts that variable out silently — which also makes the
// tool idempotent, since re-running it over its own output re-reads the
// directives it emitted.
//
// Access sites are rewritten according to where they run:
//
//   - inside a function with a named *spd3.Ctx parameter, through the
//     instrumented methods (Get/Set/Update/...), using that context;
//   - directly in a *driver* function — one that calls Engine.Run —
//     outside every closure, through the Unchecked escape hatches.
//     Engine.Run blocks until the computation drains, so driver code is
//     sequential with respect to every task and needs no checks;
//   - anywhere else (a plain closure under a task body, a helper
//     function with no context), the rewrite would misattribute the
//     access to the wrong task, so the variable is skipped instead.
package rewrite

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"go/types"
	"sort"

	"spd3/internal/analysis"
)

// Directive is the comment prefix that opts a declaration out of
// rewriting; the rewriter also emits it with a reason when it skips a
// variable itself.
const Directive = "//spd3inst:skip"

// A Rewritten records one converted variable.
type Rewritten struct {
	Var       string // source variable name
	Container string // container name passed to the constructor
	Kind      string // Array, Matrix, Var, Map, Mutex
	Pos       token.Pos
}

// A Skip records one shared variable left untouched, with the reason.
type Skip struct {
	Var    string
	Reason string
	Pos    token.Pos
}

// A Result is the outcome of rewriting one package.
type Result struct {
	// Package is the package's import path.
	Package string
	// Files maps filename to full rewritten content, for files that
	// changed. Unchanged files are absent.
	Files map[string][]byte
	// Rewritten lists the converted variables in declaration order.
	Rewritten []Rewritten
	// Skips lists shared variables that could not be converted.
	Skips []Skip
}

// Rewrite instruments pkg and returns the rewritten file contents.
// Nothing is written to disk.
func Rewrite(pkg *analysis.Package) (*Result, error) {
	if len(pkg.TypeErrors) > 0 {
		return nil, fmt.Errorf("rewrite: %s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
	}
	r := &rewriter{
		pkg:        pkg,
		parents:    make(map[*ast.File]map[ast.Node]ast.Node),
		erasedSync: make(map[*ast.File]int),
		needsSpd3:  make(map[*ast.File]bool),
		res:        &Result{Package: pkg.Path, Files: make(map[string][]byte)},
	}
	for _, f := range pkg.Files {
		r.parents[f] = buildParents(f)
	}
	r.scopes = analysis.FuncScopes(pkg.Files...)
	r.collectDrivers()
	r.collectCandidates()
	sort.Slice(r.cands, func(i, j int) bool { return r.cands[i].obj.Pos() < r.cands[j].obj.Pos() })
	for _, c := range r.cands {
		r.plan(c)
	}
	if err := r.apply(); err != nil {
		return nil, err
	}
	sort.Slice(r.res.Rewritten, func(i, j int) bool { return r.res.Rewritten[i].Pos < r.res.Rewritten[j].Pos })
	sort.Slice(r.res.Skips, func(i, j int) bool { return r.res.Skips[i].Pos < r.res.Skips[j].Pos })
	return r.res, nil
}

// A rewriter carries the per-package rewrite state.
type rewriter struct {
	pkg     *analysis.Package
	parents map[*ast.File]map[ast.Node]ast.Node
	scopes  []analysis.FuncScope
	drivers map[*ast.FuncDecl]string // driver FuncDecl -> engine var name ("" if ambiguous)
	cands   []*candidate
	edits   []analysis.TextEdit
	// erasedSync counts sync-package qualifier uses removed per file,
	// to decide whether the sync import can be dropped.
	erasedSync map[*ast.File]int
	// needsSpd3 marks files whose rewrites reference the spd3 package.
	needsSpd3 map[*ast.File]bool
	res       *Result
}

// fileOf returns the syntax file containing pos.
func (r *rewriter) fileOf(pos token.Pos) *ast.File {
	for _, f := range r.pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// textAt returns the source text of [pos, end).
func (r *rewriter) textAt(pos, end token.Pos) string {
	tf := r.pkg.Fset.File(pos)
	return string(r.pkg.Src[tf.Name()][tf.Offset(pos):tf.Offset(end)])
}

// text returns the source text of n.
func (r *rewriter) text(n ast.Node) string { return r.textAt(n.Pos(), n.End()) }

// lineStart returns the position of the first byte of pos's line.
func (r *rewriter) lineStart(pos token.Pos) token.Pos {
	return pos - token.Pos(r.pkg.Fset.Position(pos).Column-1)
}

// skipAt records a skip diagnostic with no associated declaration.
func (r *rewriter) skipAt(pos token.Pos, name, reason string) {
	r.res.Skips = append(r.res.Skips, Skip{Var: name, Reason: reason, Pos: pos})
}

// skip records a skip for candidate c and, when its declaration is
// known, inserts the directive comment above it so the reason survives
// in the output and re-runs stay silent.
func (r *rewriter) skip(c *candidate, reason string) {
	pos := c.capturedAt
	if c.declIdent != nil {
		pos = c.declIdent.Pos()
	}
	r.skipAt(pos, c.obj.Name(), reason)
	if c.declStmt != nil {
		at := r.lineStart(c.declStmt.Pos())
		r.edits = append(r.edits, analysis.TextEdit{Pos: at, End: at, NewText: Directive + " " + reason + "\n"})
	}
}

// hasDirective reports whether a spd3inst:skip comment sits on node's
// line or the line above.
func (r *rewriter) hasDirective(n ast.Node) bool {
	f := r.fileOf(n.Pos())
	if f == nil {
		return false
	}
	lines := analysis.CommentsByLine(r.pkg.Fset, f, Directive)
	line := r.pkg.Fset.Position(n.Pos()).Line
	return lines[line] != nil || lines[line-1] != nil
}

// apply materializes the accumulated edits: per changed file, splice
// them in, fix imports, and gofmt.
func (r *rewriter) apply() error {
	for _, f := range r.pkg.Files {
		tf := r.pkg.Fset.File(f.Pos())
		var edits []analysis.TextEdit
		for _, e := range r.edits {
			if r.pkg.Fset.File(e.Pos) == tf {
				edits = append(edits, e)
			}
		}
		if len(edits) == 0 {
			continue
		}
		edits = append(edits, r.importEdits(f)...)
		out, err := analysis.Apply(tf, r.pkg.Src[tf.Name()], edits)
		if err != nil {
			return fmt.Errorf("rewrite: %w", err)
		}
		fmted, err := format.Source(out)
		if err != nil {
			return fmt.Errorf("rewrite: %s: generated invalid Go: %w", tf.Name(), err)
		}
		r.res.Files[tf.Name()] = fmted
	}
	return nil
}

// importEdits adds the spd3 import when the rewritten file needs it and
// drops the sync import when every use of it was erased.
func (r *rewriter) importEdits(f *ast.File) []analysis.TextEdit {
	var edits []analysis.TextEdit
	hasSpd3 := false
	var syncSpec *ast.ImportSpec
	var syncDecl *ast.GenDecl
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		for _, spec := range gd.Specs {
			is := spec.(*ast.ImportSpec)
			switch is.Path.Value {
			case `"spd3"`:
				hasSpd3 = true
			case `"sync"`:
				syncSpec = is
				syncDecl = gd
			}
		}
	}
	if !hasSpd3 && r.needsSpd3[f] {
		at := f.Name.End()
		edits = append(edits, analysis.TextEdit{Pos: at, End: at, NewText: "\n\nimport \"spd3\""})
	}
	if syncSpec != nil && r.erasedSync[f] > 0 && r.erasedSync[f] >= r.syncUses(f) {
		target := ast.Node(syncSpec)
		if len(syncDecl.Specs) == 1 {
			target = syncDecl
		}
		tf := r.pkg.Fset.File(f.Pos())
		src := r.pkg.Src[tf.Name()]
		to := tf.Offset(target.End())
		for to < len(src) && src[to] != '\n' {
			to++
		}
		if to < len(src) {
			to++ // take the newline too
		}
		edits = append(edits, analysis.TextEdit{Pos: r.lineStart(target.Pos()), End: tf.Pos(to)})
	}
	return edits
}

// syncUses counts the uses of the sync package qualifier in f.
func (r *rewriter) syncUses(f *ast.File) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			if pn, ok := r.pkg.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "sync" {
				n++
			}
		}
		return true
	})
	return n
}
