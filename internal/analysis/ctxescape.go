package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CtxEscapeAnalyzer flags *spd3.Ctx and *spd3.Cilk values that leave
// the dynamic extent of the task or Cilk procedure they belong to.
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
// soundness/precision claim fail. Both handles are recycled: the
// runtime hands a finished task's Ctx record to its next spawn and a
// returned procedure's Cilk frame to its next RunCilk, so a retained one
// is, besides, another task's or procedure's.
//
// The task runtime itself (spd3/internal/task) legitimately stores a
// Ctx in the Cilk frame it hands a procedure; it suppresses that one
// finding with an explicit //spd3vet:ignore.
var CtxEscapeAnalyzer = &Analyzer{
	Name: "ctxescape",
	Doc: "report *spd3.Ctx and *spd3.Cilk values captured by spawned tasks or stored in " +
		"structs, globals, or collections, which misattribute accesses in the DPST",
	Run: runCtxEscape,
}

// A handle is a per-task value that must not outlive its extent.
type handle struct {
	name    string // "Ctx" or "Cilk"
	extent  string // what it is valid within
	capture string // why a spawned closure must not capture it
}

var (
	ctxHandle = &handle{"Ctx", "its task body",
		"accesses through it are attributed to the wrong DPST step; use the spawned closure's own Ctx parameter"}
	cilkHandle = &handle{"Cilk", "its procedure",
		"it is the spawning procedure's frame, recycled once that procedure returns; use the spawned closure's own parameter"}
)

// handleOf returns the handle t is, or nil.
func handleOf(t types.Type) *handle {
	switch {
	case isCtx(t):
		return ctxHandle
	case isCilk(t):
		return cilkHandle
	}
	return nil
}

func runCtxEscape(pass *Pass) error {
	// Capture by a spawned closure: an identifier of handle type inside
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
			if v, ok := obj.(*types.Var); ok && !v.IsField() && tc.Captures(obj) {
				if h := handleOf(v.Type()); h != nil {
					seen[obj] = true
					pass.Reportf(id.Pos(), "*spd3.%s %q captured by a task spawned by %s: %s", h.name, id.Name, tc.API, h.capture)
				}
			}
			return true
		})
	}

	// Stores: a handle assigned into a struct field, map/slice element,
	// or package-level variable, or placed in a composite literal,
	// outlives the extent it was valid in.
	stored := func(e ast.Expr, where string) {
		if tv, ok := pass.Info.Types[e]; ok {
			if h := handleOf(tv.Type); h != nil {
				pass.Reportf(e.Pos(), "*spd3.%s stored in %s: a %s is only valid within %s and must not outlive it", h.name, where, h.name, h.extent)
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					switch l := lhs.(type) {
					case *ast.SelectorExpr:
						stored(n.Rhs[i], "a struct field")
					case *ast.IndexExpr:
						stored(n.Rhs[i], "a collection element")
					case *ast.Ident:
						if obj := pass.Info.Uses[l]; obj != nil && obj.Parent() == pass.Types.Scope() {
							stored(n.Rhs[i], fmt.Sprintf("package-level variable %q", l.Name))
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					stored(v, "a composite literal")
				}
			}
			return true
		})
	}
	return nil
}
