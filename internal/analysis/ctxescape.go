package analysis

import (
	"go/ast"
	"go/types"
)

// CtxEscapeAnalyzer flags *spd3.Ctx values that leave the dynamic
// extent of the task they belong to.
//
// A Ctx is the runtime's handle to one task's position in the DPST: the
// detector attributes every instrumented access made through it to that
// task's current step (PAPER §3.1, §4). A spawned closure receives its
// *own* Ctx parameter; if it instead captures the parent's — or a Ctx
// is parked in a struct, global, or collection and used later from
// another task — accesses are attributed to the wrong step, and the
// Theorem-1 DMHP answers the shadow memory relies on are computed
// between the wrong nodes. The detector then has no false-negative
// guarantee and can also report phantom races: both halves of the
// soundness/precision claim fail.
//
// The task runtime itself (spd3/internal/task) legitimately constructs
// and stores Ctx values; it suppresses its one finding with an
// explicit //spd3vet:ignore.
var CtxEscapeAnalyzer = &Analyzer{
	Name: "ctxescape",
	Doc: "report *spd3.Ctx values captured by spawned tasks or stored in " +
		"structs, globals, or collections, which misattribute accesses in the DPST",
	Run: runCtxEscape,
}

func runCtxEscape(pass *Pass) error {
	// Capture by a spawned closure: an identifier of Ctx type inside
	// the closure body that resolves to a declaration outside it.
	for _, tc := range TaskClosures(pass.Package) {
		if !tc.Spawned {
			continue
		}
		seen := make(map[types.Object]bool)
		ast.Inspect(tc.Lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil || seen[obj] {
				return true
			}
			if v, ok := obj.(*types.Var); ok && !v.IsField() && isCtx(v.Type()) && tc.Captures(obj) {
				seen[obj] = true
				pass.Reportf(id.Pos(),
					"*spd3.Ctx %q captured by a task spawned by %s: accesses through it are attributed to the wrong DPST step; use the spawned closure's own Ctx parameter",
					id.Name, tc.API)
			}
			return true
		})
	}

	// Stores: a Ctx assigned into a struct field, map/slice element,
	// or package-level variable, or placed in a composite literal,
	// outlives the task body it was valid in.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if tv, ok := pass.Info.Types[n.Rhs[i]]; !ok || !isCtx(tv.Type) {
						continue
					}
					switch l := lhs.(type) {
					case *ast.SelectorExpr:
						pass.Reportf(n.Rhs[i].Pos(), "*spd3.Ctx stored in a struct field: a Ctx is only valid within its task body and must not outlive it")
					case *ast.IndexExpr:
						pass.Reportf(n.Rhs[i].Pos(), "*spd3.Ctx stored in a collection element: a Ctx is only valid within its task body and must not outlive it")
					case *ast.Ident:
						if obj := pass.Info.Uses[l]; obj != nil && obj.Parent() == pass.Types.Scope() {
							pass.Reportf(n.Rhs[i].Pos(), "*spd3.Ctx stored in package-level variable %q: a Ctx is only valid within its task body and must not outlive it", l.Name)
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if tv, ok := pass.Info.Types[v]; ok && isCtx(tv.Type) {
						pass.Reportf(v.Pos(), "*spd3.Ctx stored in a composite literal: a Ctx is only valid within its task body and must not outlive it")
					}
				}
			}
			return true
		})
	}
	return nil
}
