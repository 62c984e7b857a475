package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UncheckedAnalyzer flags Unchecked/UncheckedRow/UncheckedAt results
// that flow into spawned task bodies.
//
// The escape hatches exist to mirror the paper's §5.5 static check
// eliminations: accesses the programmer can prove race-free (main-task
// phases, read-only data, task-local temporaries) may skip the shadow
// memory. That proof obligation is only dischargeable in sequential
// code. Once an uninstrumented slice or pointer crosses a spawn
// boundary — captured by an Async/Cilk closure, or obtained inside one
// — its accesses race invisibly: the detector's "no schedule of this
// input races" verdict (Theorem 2) silently stops covering them. This
// is a false-negative hole, the one failure mode SPD3 promises not to
// have.
var UncheckedAnalyzer = &Analyzer{
	Name: "unchecked",
	Doc: "report Unchecked container data crossing a spawn boundary, " +
		"where its uninstrumented accesses become invisible to the detector",
	Run: runUnchecked,
}

func runUnchecked(pass *Pass) error {
	// Pass 1: taint variables bound to Unchecked* results by simple
	// assignment (x := a.Unchecked(); x = a.Unchecked(); var x = ...),
	// including through a slice expression.
	tainted := make(map[types.Object]token.Pos)
	taint := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if call, ok := uncheckedSource(pass.Info, rhs); ok {
			// Only slices and pointers alias the container's backing
			// store; a copied element value is safe to capture.
			if tv, ok := pass.Info.Types[rhs]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Pointer:
				default:
					return
				}
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil {
				tainted[obj] = call.Pos()
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						taint(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						taint(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}

	// Lines carrying a //spd3opt:elided marker hold machine-written
	// §5.5 elisions: the Unchecked call there is backed by a dominating
	// checked access in the same step (see ElidedMarker), so it is not
	// an instrumentation hole.
	elided := make(map[string]map[int]*ast.Comment)
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		elided[name] = CommentsByLine(pass.Fset, f, "//"+ElidedMarker)
	}
	isElided := func(pos token.Pos) bool {
		p := pass.Fset.Position(pos)
		return elided[p.Filename][p.Line] != nil
	}

	// Pass 2: inside every spawned closure, flag direct Unchecked*
	// calls and captured tainted variables.
	for _, tc := range TaskClosures(pass.Package) {
		if !tc.Spawned {
			continue
		}
		seen := make(map[types.Object]bool)
		ast.Inspect(tc.Lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := isUncheckedCall(pass.Info, n); ok && !isElided(n.Pos()) {
					pass.Reportf(n.Pos(),
						"%s() inside a task spawned by %s bypasses instrumentation: the detector cannot see these accesses and its race-freedom certificate no longer covers them",
						name, tc.API)
				}
			case *ast.Ident:
				obj := pass.Info.Uses[n]
				if obj == nil {
					return true
				}
				if pos, ok := tainted[obj]; ok && tc.Captures(obj) && !seen[obj] {
					seen[obj] = true
					pass.Reportf(n.Pos(),
						"uninstrumented data %q (from the Unchecked call at %s) is captured by a task spawned by %s: accesses through it are invisible to the detector",
						n.Name, pass.Fset.Position(pos), tc.API)
				}
			}
			return true
		})
	}
	return nil
}

// uncheckedSource reports whether e is (possibly through parentheses or
// a slice expression) a call to an Unchecked* escape hatch, returning
// the call.
func uncheckedSource(info *types.Info, e ast.Expr) (*ast.CallExpr, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			if _, ok := isUncheckedCall(info, x); ok {
				return x, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}
