package analysis

import (
	"go/ast"
	"go/types"
)

// DeprecatedAnalyzer flags uses of retired spd3 API and carries the
// machine-applicable rewrite for each (`spd3vet -fix`):
//
//   - Array.Raw / Matrix.Raw   → Unchecked
//   - Matrix.Row               → UncheckedRow
//   - Report.Footprint         → Report.Stats.Footprint
//
// The member names have been removed from the module, so in-tree code
// can no longer compile against them; the analyzer exists for
// out-of-tree users migrating across releases. It intentionally works
// from the *receiver's* type rather than the (now nonexistent) member:
// when a program written against the old API is loaded, the selection
// itself fails to type-check, but the receiver still resolves, which is
// enough to identify the container or report and rewrite the selector.
//
// A second rule family targets the old *Engine-only allocation idiom:
// calling spd3.NewArray(eng, ...) (or NewMatrix/NewVar/NewList/NewMap/
// NewMutex) from inside a function that has a *spd3.Ctx parameter. Those
// call sites predate the Ctx-scoped constructors; the Ctx form both
// removes the captured Engine and records DPST-correct creation-point
// writes, so the fix rewrites the call to spd3.NewArrayIn(c, ...) using
// the enclosing function's Ctx parameter.
var DeprecatedAnalyzer = &Analyzer{
	Name: "deprecated",
	Doc: "report retired spd3 API (Raw, Row, Report.Footprint, Engine-scoped " +
		"constructors in task bodies) and suggest the machine-applicable rewrite",
	Run: runDeprecated,
}

// deprecatedSelector maps an old member name to its replacement, keyed
// by a receiver-type predicate.
type deprecatedSelector struct {
	recv        func(*Pass, ast.Expr) bool
	replacement string
}

func runDeprecated(pass *Pass) error {
	isContainer := func(p *Pass, x ast.Expr) bool {
		tv, ok := p.Info.Types[x]
		return ok && ContainerKind(tv.Type) != ""
	}
	isMatrix := func(p *Pass, x ast.Expr) bool {
		tv, ok := p.Info.Types[x]
		return ok && namedIn(tv.Type, memPkgPath, "Matrix")
	}
	isReport := func(p *Pass, x ast.Expr) bool {
		tv, ok := p.Info.Types[x]
		return ok && namedIn(tv.Type, rootPkgPath, "Report")
	}
	rules := map[string]deprecatedSelector{
		"Raw":       {recv: isContainer, replacement: "Unchecked"},
		"Row":       {recv: isMatrix, replacement: "UncheckedRow"},
		"Footprint": {recv: isReport, replacement: "Stats.Footprint"},
	}
	for _, f := range pass.Files {
		runEngineScopedCtors(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			rule, ok := rules[sel.Sel.Name]
			if !ok || !rule.recv(pass, sel.X) {
				return true
			}
			pass.Report(Diagnostic{
				Pos: sel.Sel.Pos(),
				Message: "deprecated " + sel.Sel.Name + " was removed; use " +
					rule.replacement,
				Fix: &SuggestedFix{
					Message: "rewrite " + sel.Sel.Name + " to " + rule.replacement,
					Edits: []TextEdit{{
						Pos:     sel.Sel.Pos(),
						End:     sel.Sel.End(),
						NewText: rule.replacement,
					}},
				},
			})
			return true
		})
	}
	return nil
}

// ctorInForms maps each *Engine-scoped root-package constructor to its
// Ctx-scoped replacement.
var ctorInForms = map[string]string{
	"NewArray":  "NewArrayIn",
	"NewMatrix": "NewMatrixIn",
	"NewVar":    "NewVarIn",
	"NewList":   "NewListIn",
	"NewMap":    "NewMapIn",
	"NewMutex":  "NewMutexIn",
}

// runEngineScopedCtors flags *Engine-scoped constructor calls made from
// inside a function that has a named *Ctx parameter, and offers the
// machine-applicable rewrite to the Ctx-scoped form.
func runEngineScopedCtors(pass *Pass, f *ast.File) {
	// The innermost function enclosing a call is the only one whose Ctx
	// parameter is safe to substitute.
	scopes := FuncScopes(f)

	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fun := call.Fun
		// Explicit instantiations (spd3.NewArray[int]) wrap the
		// selector in an index expression.
		switch ix := fun.(type) {
		case *ast.IndexExpr:
			fun = ix.X
		case *ast.IndexListExpr:
			fun = ix.X
		}
		sel, ok := fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		inForm, ok := ctorInForms[sel.Sel.Name]
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != rootPkgPath {
			return true
		}
		sc := Innermost(scopes, call.Pos())
		if sc == nil {
			return true
		}
		ctxName := CtxParamName(pass.Info, sc.Type)
		if ctxName == "" {
			return true
		}
		pass.Report(Diagnostic{
			Pos: sel.Sel.Pos(),
			Message: "deprecated idiom: spd3." + sel.Sel.Name + " with an *Engine inside a task body; " +
				"use the Ctx-scoped spd3." + inForm + "(" + ctxName + ", ...) for DPST-correct creation-point semantics",
			Fix: &SuggestedFix{
				Message: "rewrite " + sel.Sel.Name + " to " + inForm + "(" + ctxName + ", ...)",
				Edits: []TextEdit{
					{Pos: sel.Sel.Pos(), End: sel.Sel.End(), NewText: inForm},
					{Pos: call.Args[0].Pos(), End: call.Args[0].End(), NewText: ctxName},
				},
			},
		})
		return true
	})
}
