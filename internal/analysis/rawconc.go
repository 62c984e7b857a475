package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RawConcAnalyzer flags raw Go concurrency inside task bodies: `go`
// statements, channel operations, and bare sync primitives.
//
// The DPST models exactly the async/finish relation (PAPER §3): every
// happens-before edge the detector knows about comes from spawns and
// finish joins (plus lock events for the lock-aware baselines, fed by
// spd3.Mutex). A goroutine launched inside a task body, a channel
// rendezvous between tasks, or a bare sync.Mutex/WaitGroup creates real
// ordering and real parallelism the tree does not represent. The
// detector then either misses races in the unmodeled tasks (false
// negatives) or reports races that the unmodeled synchronization in
// fact prevents (false positives) — the dynamic checker cannot tell
// which, so the only sound answer is to keep such constructs out of
// task bodies entirely. spd3.Mutex is the one sanctioned primitive: it
// provides real exclusion and reports acquire/release to the detector.
var RawConcAnalyzer = &Analyzer{
	Name: "rawconc",
	Doc: "report go statements, channel operations, and bare sync primitives " +
		"inside task bodies: parallelism and ordering the DPST does not model",
	Run: runRawConc,
}

func runRawConc(pass *Pass) error {
	isChan := func(e ast.Expr) bool {
		tv, ok := pass.Info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		_, ok = tv.Type.Underlying().(*types.Chan)
		return ok
	}
	closures := TaskClosures(pass.Package)
	nested := make(map[*ast.FuncLit]bool, len(closures))
	for _, tc := range closures {
		nested[tc.Lit] = true
	}
	for _, tc := range closures {
		api := tc.API
		ast.Inspect(tc.Lit.Body, func(n ast.Node) bool {
			// A nested task-body closure is walked separately under its
			// own API label.
			if lit, ok := n.(*ast.FuncLit); ok && lit != tc.Lit && nested[lit] {
				return false
			}
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement inside a task body (%s): the spawned goroutine is invisible to the DPST and races in or with it go undetected; use Ctx.Async", api)
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send inside a task body (%s): channel ordering is invisible to the DPST; use async/finish joins or spd3.Mutex", api)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive inside a task body (%s): channel ordering is invisible to the DPST; use async/finish joins or spd3.Mutex", api)
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement inside a task body (%s): channel ordering is invisible to the DPST", api)
			case *ast.RangeStmt:
				if isChan(n.X) {
					pass.Reportf(n.Pos(), "range over a channel inside a task body (%s): channel ordering is invisible to the DPST", api)
				}
			case *ast.CallExpr:
				if pkg, name, ok := syncCall(pass.Info, n); ok {
					pass.Reportf(n.Pos(), "%s.%s inside a task body (%s): synchronization the DPST does not model; use spd3.Mutex (or an Accumulator) instead", pkg, name, api)
				}
			}
			return true
		})
	}
	return nil
}

// syncCall reports whether call is a method on a sync.* primitive or a
// function from sync or sync/atomic, returning a short package label
// and the called name.
func syncCall(info *types.Info, call *ast.CallExpr) (pkg, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	// Method on a sync type: mu.Lock(), wg.Wait(), once.Do(), ...
	if s, ok := info.Selections[sel]; ok {
		t := s.Recv()
		if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if n, isNamed := types.Unalias(t).(*types.Named); isNamed {
			if tp := n.Obj().Pkg(); tp != nil && (tp.Path() == "sync" || tp.Path() == "sync/atomic") {
				return tp.Path(), n.Obj().Name() + "." + sel.Sel.Name, true
			}
		}
		return "", "", false
	}
	// Package function: atomic.AddInt64(...), sync.OnceFunc(...).
	if obj, ok := info.Uses[sel.Sel]; ok {
		if fn, isFn := obj.(*types.Func); isFn && fn.Pkg() != nil {
			if p := fn.Pkg().Path(); p == "sync" || p == "sync/atomic" {
				return p, sel.Sel.Name, true
			}
		}
	}
	return "", "", false
}
