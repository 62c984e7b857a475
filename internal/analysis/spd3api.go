package analysis

import (
	"go/ast"
	"go/types"
)

// This file recognizes the spd3 API surface in type-checked syntax: the
// task context, the instrumented containers, and — most importantly —
// the call sites whose function-literal argument runs as a task body,
// possibly on a *different* task than the enclosing code. Those spawn
// boundaries are where the DPST forks (PAPER §3.1): data or contexts
// crossing them uninstrumented is exactly what voids the detector's
// guarantee.

// Import paths of the packages whose API the analyzers model. The root
// package re-exports the internal types as aliases, so recognizing the
// internal named types covers both spellings.
const (
	taskPkgPath = "spd3/internal/task"
	memPkgPath  = "spd3/internal/mem"
	rootPkgPath = "spd3"
)

// namedIn reports whether t (after stripping pointers and aliases) is
// the named type pkgPath.name, and returns the stripped named type.
func namedIn(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isCtx reports whether t is task.Ctx / *task.Ctx (a.k.a. spd3.Ctx).
func isCtx(t types.Type) bool { return namedIn(t, taskPkgPath, "Ctx") }

// isCilk reports whether t is task.Cilk / *task.Cilk (a.k.a. spd3.Cilk).
func isCilk(t types.Type) bool { return namedIn(t, taskPkgPath, "Cilk") }

// IsEngine reports whether t is (a pointer to) spd3.Engine.
func IsEngine(t types.Type) bool { return namedIn(t, rootPkgPath, "Engine") }

// ContainerKind returns the bare name of the instrumented container
// type t ("Array", "Matrix", "Var", "List", "Map", "Mutex"), or ""
// when t is not (a pointer to) one of them.
func ContainerKind(t types.Type) string {
	for _, name := range [...]string{"Array", "Matrix", "Var", "List", "Map", "Mutex"} {
		if namedIn(t, memPkgPath, name) {
			return name
		}
	}
	return ""
}

// MentionsAPI reports whether t is built from a type of the spd3 API —
// the root package, internal/mem or internal/task — directly or as an
// element, key, field, parameter, result or type argument. Such values
// already live in the instrumented world. Named types from elsewhere,
// including this module's own, are opaque: only their type arguments
// are looked into.
func MentionsAPI(t types.Type) bool {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if p := t.Obj().Pkg(); p != nil {
			switch p.Path() {
			case rootPkgPath, memPkgPath, taskPkgPath:
				return true
			}
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if MentionsAPI(t.TypeArgs().At(i)) {
				return true
			}
		}
	case *types.Pointer:
		return MentionsAPI(t.Elem())
	case *types.Slice:
		return MentionsAPI(t.Elem())
	case *types.Array:
		return MentionsAPI(t.Elem())
	case *types.Chan:
		return MentionsAPI(t.Elem())
	case *types.Map:
		return MentionsAPI(t.Key()) || MentionsAPI(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if MentionsAPI(t.Field(i).Type()) {
				return true
			}
		}
	case *types.Signature:
		return tupleMentionsAPI(t.Params()) || tupleMentionsAPI(t.Results())
	}
	return false
}

func tupleMentionsAPI(t *types.Tuple) bool {
	for i := 0; i < t.Len(); i++ {
		if MentionsAPI(t.At(i).Type()) {
			return true
		}
	}
	return false
}

// uncheckedMethods are the container escape hatches that bypass
// instrumentation (the programmer-directed §5.5 check eliminations).
var uncheckedMethods = map[string]bool{
	"Unchecked":    true,
	"UncheckedRow": true,
	"UncheckedAt":  true,
}

// RecvType returns the type of a method call's receiver expression, or
// nil when the call is not a selector call or the receiver did not
// type-check.
func RecvType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil
	}
	return tv.Type
}

// isUncheckedCall reports whether call invokes one of the Unchecked*
// escape hatches on an instrumented container, returning the method
// name.
func isUncheckedCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !uncheckedMethods[sel.Sel.Name] {
		return "", false
	}
	if ContainerKind(RecvType(info, call)) == "" {
		return "", false
	}
	return sel.Sel.Name, true
}

// A TaskClosure is a function literal that executes as a task body.
type TaskClosure struct {
	// Lit is the function literal that runs as a task body.
	Lit *ast.FuncLit
	// API is the spawning call ("Async", "ParallelFor", "Run", ...).
	API string
	// Spawned is true when the literal runs as a *different* task than
	// the enclosing code (Async, FinishAsync, ParallelFor, Cilk.Spawn):
	// free variables of such a closure are shared across tasks. It is
	// false for bodies that run on the current task (Engine.Run,
	// Runtime.Run, Ctx.Finish, RunCilk), which still execute under the
	// detector and so matter to the rawconc analyzer.
	Spawned bool
}

// Captures reports whether obj was declared outside the closure, i.e.
// the closure refers to it as a captured free variable.
func (tc TaskClosure) Captures(obj types.Object) bool {
	return obj.Pos() < tc.Lit.Pos() || obj.Pos() > tc.Lit.End()
}

// closureArg describes where a task-body literal sits in an API call's
// argument list.
type closureArg struct {
	arg     int
	spawned bool
}

// Ctx methods taking a task-body literal, by method name.
var ctxBodyArgs = map[string]closureArg{
	"Async":       {arg: 0, spawned: true},
	"FinishAsync": {arg: 1, spawned: true},
	"ParallelFor": {arg: 3, spawned: true},
	"Finish":      {arg: 0, spawned: false},
}

// TaskClosures finds every function literal in pkg that is passed
// directly to a task-body API call site, outer literals first.
func TaskClosures(pkg *Package) []TaskClosure {
	var out []TaskClosure
	add := func(call *ast.CallExpr, ca closureArg, api string) {
		if ca.arg >= len(call.Args) {
			return
		}
		if lit, ok := call.Args[ca.arg].(*ast.FuncLit); ok {
			out = append(out, TaskClosure{Lit: lit, API: api, Spawned: ca.spawned})
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			// Package-level RunCilk(c, body): body runs on the current
			// task.
			if name == "RunCilk" {
				if obj, ok := pkg.Info.Uses[sel.Sel]; ok {
					if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil &&
						(fn.Pkg().Path() == taskPkgPath || fn.Pkg().Path() == rootPkgPath) && fn.Type().(*types.Signature).Recv() == nil {
						add(call, closureArg{arg: 1, spawned: false}, "RunCilk")
						return true
					}
				}
			}
			rt := RecvType(pkg.Info, call)
			if rt == nil {
				return true
			}
			switch {
			case isCtx(rt):
				if ca, ok := ctxBodyArgs[name]; ok {
					add(call, ca, name)
				}
			case isCilk(rt) && name == "Spawn":
				add(call, closureArg{arg: 0, spawned: true}, "Spawn")
			case (IsEngine(rt) || namedIn(rt, taskPkgPath, "Runtime")) && name == "Run":
				add(call, closureArg{arg: 0, spawned: false}, "Run")
			}
			return true
		})
	}
	return out
}

// CtxParamName returns the name of ft's *Ctx parameter, or "" when the
// function type has none (or it is blank). Tools use it to know which
// task context is in scope inside a task body.
func CtxParamName(info *types.Info, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isCtx(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}
