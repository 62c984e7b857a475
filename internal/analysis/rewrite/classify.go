package rewrite

import (
	"go/ast"
	"go/token"
	"go/types"

	"spd3/internal/analysis"
)

// A kind is the container a shared variable rewrites to.
type kind int

const (
	kindVar kind = iota
	kindArray
	kindMatrix
	kindMap
	kindMutex
)

func (k kind) String() string {
	switch k {
	case kindVar:
		return "Var"
	case kindArray:
		return "Array"
	case kindMatrix:
		return "Matrix"
	case kindMap:
		return "Map"
	case kindMutex:
		return "Mutex"
	}
	return "?"
}

// kindOf maps a variable's type to the container that replaces it.
// Matrix is recognized at the declaration (a [][]T make plus its init
// loop); here [][]T classifies as matrix and the planner decides
// whether the declaration pattern actually matches.
func kindOf(t types.Type) (kind, bool) {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if _, isBasic := t.(*types.Basic); !isBasic {
			return 0, false // named basic types keep their method sets; leave them
		}
		if u.Info()&(types.IsBoolean|types.IsNumeric|types.IsString) == 0 {
			return 0, false
		}
		return kindVar, true
	case *types.Slice:
		if _, ok := u.Elem().Underlying().(*types.Slice); ok {
			return kindMatrix, true
		}
		return kindArray, true
	case *types.Map:
		return kindMap, true
	case *types.Struct:
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Mutex" {
				return kindMutex, true
			}
		}
	}
	return 0, false
}

// buildParents records the parent of every node in f.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// An accessMode says how an access site reaches the detector.
type accessMode int

const (
	modeNone accessMode = iota
	// modeCtx: the site is in a function with a named *Ctx parameter;
	// accesses route through the instrumented methods.
	modeCtx
	// modeSeq: the site is directly in a driver function (one that
	// calls Engine.Run), outside every closure. Run blocks until the
	// computation drains, so such code is sequential with respect to
	// every task and may use the Unchecked escape hatches.
	modeSeq
)

// modeAt classifies the function scope around pos and returns the Ctx
// parameter name for modeCtx.
func (r *rewriter) modeAt(pos token.Pos) (accessMode, string) {
	sc := analysis.Innermost(r.scopes, pos)
	if sc == nil {
		return modeNone, ""
	}
	if name := analysis.CtxParamName(r.pkg.Info, sc.Type); name != "" {
		return modeCtx, name
	}
	if fd, ok := sc.Func.(*ast.FuncDecl); ok {
		if _, ok := r.drivers[fd]; ok {
			return modeSeq, ""
		}
	}
	return modeNone, ""
}

// collectDrivers finds every function declaration that calls
// Engine.Run and the (single) *spd3.Engine variable visible in it. A
// driver with zero or several engine variables maps to "".
func (r *rewriter) collectDrivers() {
	r.drivers = make(map[*ast.FuncDecl]string)
	for _, f := range r.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			runs := false
			engines := make(map[types.Object]bool)
			var engineName string
			ast.Inspect(fd, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false // engine vars inside closures are not in driver scope
				}
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Run" {
						if tv, ok := r.pkg.Info.Types[sel.X]; ok && analysis.IsEngine(tv.Type) {
							runs = true
						}
					}
				case *ast.Ident:
					if obj, ok := r.pkg.Info.Defs[n]; ok && obj != nil {
						if v, ok := obj.(*types.Var); ok && analysis.IsEngine(v.Type()) {
							if !engines[obj] {
								engines[obj] = true
								engineName = n.Name
							}
						}
					}
				}
				return true
			})
			if runs {
				if len(engines) == 1 {
					r.drivers[fd] = engineName
				} else {
					r.drivers[fd] = ""
				}
			}
		}
	}
}

// isWriteLike reports whether the use id of a variable of kind k could
// store to (or alias) the variable. Anything not provably a pure read
// counts: the planner later turns unsupported-but-write-like uses into
// skip diagnostics rather than silently leaving them uninstrumented.
func isWriteLike(k kind, id *ast.Ident, parents map[ast.Node]ast.Node) bool {
	if k == kindMutex {
		return true // Lock/Unlock are always relevant
	}
	switch p := parents[id].(type) {
	case *ast.UnaryExpr:
		return p.Op == token.AND
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == id {
				return true
			}
		}
		// On the right-hand side: a scalar is copied (read); a slice or
		// map is aliased, and the alias may be written later.
		return k != kindVar
	case *ast.IncDecStmt:
		return true
	case *ast.SendStmt:
		return true
	case *ast.IndexExpr:
		if p.X != id {
			return false // id is someone else's index: a read
		}
		top := ast.Expr(p)
		if pp, ok := parents[top].(*ast.IndexExpr); ok && pp.X == top {
			top = pp
		}
		switch q := parents[top].(type) {
		case *ast.AssignStmt:
			for _, lhs := range q.Lhs {
				if lhs == top {
					return true
				}
			}
		case *ast.IncDecStmt:
			return true
		case *ast.UnaryExpr:
			return q.Op == token.AND
		}
		return false
	case *ast.CallExpr:
		if name, ok := builtinName(p.Fun); ok {
			switch name {
			case "len", "cap":
				return false
			case "delete":
				return len(p.Args) > 0 && p.Args[0] == id
			}
		}
		if p.Fun == id {
			return false // calling a captured func value: a read of it
		}
		// Passed as an argument: the callee may write or retain it. A
		// scalar is copied; everything else is conservatively a write.
		return k != kindVar
	case *ast.RangeStmt:
		return false
	case *ast.SelectorExpr:
		return true // method call or field access on the value: unknown
	}
	return k != kindVar
}

// builtinName returns the name of fun when it resolves to a Go
// builtin.
func builtinName(fun ast.Expr) (string, bool) {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	switch id.Name {
	case "len", "cap", "delete", "append", "copy", "make", "new":
		return id.Name, true
	}
	return "", false
}

// A candidate is one shared variable the rewriter will try to convert.
type candidate struct {
	obj  *types.Var
	kind kind
	// name is the container name, "<func>.<var>".
	name string
	// capturedAt is where a spawned closure first captures the
	// variable, for diagnostics when the declaration cannot be found.
	capturedAt token.Pos

	// Declaration site, filled by findDecl.
	declIdent *ast.Ident
	declStmt  ast.Node // *ast.AssignStmt, *ast.DeclStmt, or *ast.GenDecl

	// Type component texts for constructor spelling, filled by the
	// declaration planner.
	elem, key, val string
	// initLoop is the matched [][]T initialization loop (deleted).
	initLoop ast.Stmt
}

// collectCandidates finds every variable that (a) is captured by a
// spawned task closure and (b) is written — or not provably read-only —
// inside some task closure. Variables the tasks only read need no
// instrumentation: a racing pair needs a write, and driver-side writes
// are ordered before and after the whole computation (the static
// read-only check elimination of PAPER §5.5).
func (r *rewriter) collectCandidates() {
	captured := make(map[*types.Var]token.Pos)
	closures := analysis.TaskClosures(r.pkg)
	for _, tc := range closures {
		if !tc.Spawned {
			continue
		}
		ast.Inspect(tc.Lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := r.pkg.Info.Uses[id].(*types.Var)
			// Values of spd3 API types (Engine, Ctx, the containers) are
			// already part of the instrumented world.
			if !ok || v.IsField() || !tc.Captures(v) || analysis.MentionsAPI(v.Type()) {
				return true
			}
			if _, ok := captured[v]; !ok {
				captured[v] = id.Pos()
			}
			return true
		})
	}

	written := make(map[*types.Var]bool)
	for _, tc := range closures {
		file := r.fileOf(tc.Lit.Pos())
		if file == nil {
			continue
		}
		parents := r.parents[file]
		ast.Inspect(tc.Lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := r.pkg.Info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			if _, isCand := captured[v]; !isCand {
				return true
			}
			k, ok := kindOf(v.Type())
			if ok && isWriteLike(k, id, parents) {
				written[v] = true
			}
			if !ok {
				// Unclassifiable type: stay conservative so the planner
				// reports it rather than silently leaving it shared.
				if isWriteLike(kindArray, id, parents) {
					written[v] = true
				}
			}
			return true
		})
	}

	for v, pos := range captured {
		k, ok := kindOf(v.Type())
		if !ok {
			if written[v] {
				r.skipAt(pos, v.Name(), "unsupported shared type "+v.Type().String())
			}
			continue
		}
		if k != kindMutex && !written[v] {
			continue // task-read-only: provably race-free, leave it
		}
		r.cands = append(r.cands, &candidate{obj: v, kind: k, capturedAt: pos})
	}
}

// isCandidateObj reports whether obj is one of the rewrite candidates
// (used to guard source text the planner copies out of place).
func (r *rewriter) isCandidateObj(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	for _, c := range r.cands {
		if c.obj == v {
			return true
		}
	}
	return false
}

// containsCandidateUse reports whether expr mentions any rewrite
// candidate; such expressions must not be copied textually.
func (r *rewriter) containsCandidateUse(expr ast.Node) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj, ok := r.pkg.Info.Uses[id]; ok && r.isCandidateObj(obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// findDecl locates the declaration of c's variable and validates its
// shape. It returns a skip reason when the declaration form is not
// rewritable.
func (r *rewriter) findDecl(c *candidate) string {
	if c.obj.Parent() == r.pkg.Types.Scope() {
		return "package-level variable; declare it in the driver function"
	}
	var declID *ast.Ident
	var declFile *ast.File
	for _, f := range r.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && declID == nil {
				if r.pkg.Info.Defs[id] == c.obj {
					declID = id
					declFile = f
				}
			}
			return declID == nil
		})
		if declID != nil {
			break
		}
	}
	if declID == nil {
		return "declaration not found"
	}
	c.declIdent = declID
	parents := r.parents[declFile]
	switch p := parents[declID].(type) {
	case *ast.AssignStmt:
		if p.Tok != token.DEFINE {
			return "declaration not found"
		}
		if len(p.Lhs) != 1 || len(p.Rhs) != 1 {
			return "multi-variable declaration"
		}
		c.declStmt = p
	case *ast.ValueSpec:
		gd, ok := parents[p].(*ast.GenDecl)
		if !ok || len(gd.Specs) != 1 || len(p.Names) != 1 {
			return "grouped declaration"
		}
		if ds, ok := parents[gd].(*ast.DeclStmt); ok {
			c.declStmt = ds
		} else {
			c.declStmt = gd
		}
	case *ast.Field:
		return "function parameter"
	case *ast.RangeStmt:
		return "range variable"
	default:
		return "unsupported declaration form"
	}
	// Container name: "<enclosing function>.<var>".
	fn := "pkg"
	for _, d := range declFile.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Body.Pos() <= declID.Pos() && declID.Pos() <= fd.Body.End() {
			fn = fd.Name.Name
		}
	}
	c.name = fn + "." + c.obj.Name()
	return ""
}
