package rewrite

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"spd3/internal/analysis"
)

// A plan accumulates the edits for one candidate; it is merged into the
// rewriter only if every declaration and use of the variable converts.
type plan struct {
	r          *rewriter
	edits      []analysis.TextEdit
	erasedSync map[*ast.File]int
	needsSpd3  map[*ast.File]bool
}

func newPlan(r *rewriter) *plan {
	return &plan{
		r:          r,
		erasedSync: make(map[*ast.File]int),
		needsSpd3:  make(map[*ast.File]bool),
	}
}

// edit replaces [pos, end) with text; pos == end inserts.
func (p *plan) edit(pos, end token.Pos, text string) {
	p.edits = append(p.edits, analysis.TextEdit{Pos: pos, End: end, NewText: text})
}

// at renders pos for skip reasons: base filename, line, column. The
// base keeps golden output stable across checkouts.
func (r *rewriter) at(pos token.Pos) string {
	pp := r.pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(pp.Filename), pp.Line, pp.Column)
}

// plan tries to convert one candidate end to end and either commits the
// edits or records a skip.
func (r *rewriter) plan(c *candidate) {
	reason := r.findDecl(c)
	if reason == "" && r.hasDirective(c.declStmt) {
		return // explicit opt-out
	}
	p := newPlan(r)
	if reason == "" {
		reason = p.declEdits(c)
	}
	if reason == "" {
		reason = p.useEdits(c)
	}
	if reason != "" {
		r.skip(c, reason)
		return
	}
	r.edits = append(r.edits, p.edits...)
	for f, n := range p.erasedSync {
		r.erasedSync[f] += n
	}
	for f := range p.needsSpd3 {
		r.needsSpd3[f] = true
	}
	r.res.Rewritten = append(r.res.Rewritten, Rewritten{
		Var:       c.obj.Name(),
		Container: c.name,
		Kind:      c.kind.String(),
		Pos:       c.declIdent.Pos(),
	})
}

// ctorForm resolves the constructor and its scope argument for c's
// declaration: the task's Ctx inside a task body, the Engine in a
// driver function.
func (p *plan) ctorForm(c *candidate) (ctor, scope, reason string) {
	mode, scope := p.r.modeAt(c.declStmt.Pos())
	switch mode {
	case modeCtx: // scope is the Ctx parameter
	case modeSeq:
		fd, _ := analysis.Innermost(p.r.scopes, c.declStmt.Pos()).Func.(*ast.FuncDecl)
		if scope = p.r.drivers[fd]; scope == "" {
			return "", "", "no unique *spd3.Engine variable in the driver function"
		}
	default:
		return "", "", "declared at " + p.r.at(c.declStmt.Pos()) + " outside any task or driver scope"
	}
	return "spd3.New" + c.kind.String(), scope, ""
}

// declEdits rewrites c's declaration to a container constructor and
// records the type component texts later use rewrites need.
func (p *plan) declEdits(c *candidate) string {
	ctor, first, reason := p.ctorForm(c)
	if reason != "" {
		return reason
	}
	p.needsSpd3[p.r.fileOf(c.declStmt.Pos())] = true
	argPrefix := first + ", \"" + c.name + "\", "

	// Resolve the initializer expression and, for var-form decls, the
	// spec carrying the optional explicit type.
	var init ast.Expr
	var spec *ast.ValueSpec
	switch d := c.declStmt.(type) {
	case *ast.AssignStmt:
		init = d.Rhs[0]
	default:
		spec = valueSpecOf(c.declStmt)
		if spec == nil {
			return "unsupported declaration form"
		}
		if len(spec.Values) == 1 {
			init = spec.Values[0]
		} else if len(spec.Values) > 1 {
			return "multi-variable declaration"
		}
	}

	switch c.kind {
	case kindVar:
		return p.varDecl(c, ctor, argPrefix, init, spec)
	case kindArray:
		return p.arrayDecl(c, ctor, argPrefix, init, spec)
	case kindMatrix:
		return p.matrixDecl(c, ctor, argPrefix, init, spec)
	case kindMap:
		return p.mapDecl(c, ctor, argPrefix, init, spec)
	case kindMutex:
		return p.mutexDecl(c, ctor, first, spec)
	}
	return "unsupported kind"
}

// valueSpecOf unwraps a DeclStmt or GenDecl down to its single
// ValueSpec.
func valueSpecOf(n ast.Node) *ast.ValueSpec {
	gd, ok := n.(*ast.GenDecl)
	if !ok {
		ds, ok := n.(*ast.DeclStmt)
		if !ok {
			return nil
		}
		gd, ok = ds.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
	}
	if len(gd.Specs) != 1 {
		return nil
	}
	vs, _ := gd.Specs[0].(*ast.ValueSpec)
	return vs
}

func (p *plan) varDecl(c *candidate, ctor, argPrefix string, init ast.Expr, spec *ast.ValueSpec) string {
	varName := c.obj.Name()
	if init == nil {
		// var x T: spell the zero value and instantiate explicitly.
		basic, ok := c.obj.Type().(*types.Basic)
		if !ok || spec == nil || spec.Type == nil {
			return "cannot spell zero value for " + c.obj.Type().String()
		}
		zero := "0"
		switch {
		case basic.Info()&types.IsBoolean != 0:
			zero = "false"
		case basic.Info()&types.IsString != 0:
			zero = `""`
		}
		p.edit(c.declStmt.Pos(), c.declStmt.End(),
			varName+" := "+ctor+"["+p.r.text(spec.Type)+"]("+argPrefix+zero+")")
		return ""
	}
	prefix := ctor + "(" + argPrefix
	if spec != nil && spec.Type != nil {
		// var x T = expr: keep T explicit so untyped constants still
		// land on the declared type.
		prefix = ctor + "[" + p.r.text(spec.Type) + "](" + argPrefix
	}
	if spec != nil {
		p.edit(c.declStmt.Pos(), init.Pos(), varName+" := "+prefix)
	} else {
		p.edit(init.Pos(), init.Pos(), prefix)
	}
	p.edit(init.End(), init.End(), ")")
	return ""
}

// makeCall validates init as make(<type>, args...) and returns it.
func makeCall(init ast.Expr) *ast.CallExpr {
	call, ok := init.(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return nil
	}
	return call
}

// varFormPrefix rewrites the `var x [type] =` head of a var-form
// declaration to `x := `, leaving the initializer to kind-specific
// edits.
func (p *plan) varFormPrefix(c *candidate, init ast.Expr, spec *ast.ValueSpec) {
	if spec != nil {
		p.edit(c.declStmt.Pos(), init.Pos(), c.obj.Name()+" := ")
	}
}

func (p *plan) arrayDecl(c *candidate, ctor, argPrefix string, init ast.Expr, spec *ast.ValueSpec) string {
	call := makeCall(init)
	if call == nil {
		return "slice not declared as make([]T, n)"
	}
	at, ok := call.Args[0].(*ast.ArrayType)
	if !ok || at.Len != nil {
		return "slice not declared as make([]T, n)"
	}
	if len(call.Args) != 2 {
		return "make with a capacity argument"
	}
	c.elem = p.r.text(at.Elt)
	p.varFormPrefix(c, init, spec)
	p.edit(call.Pos(), call.Args[1].Pos(), ctor+"["+c.elem+"]("+argPrefix)
	p.edit(call.Args[1].End(), call.End(), ")")
	return ""
}

func (p *plan) matrixDecl(c *candidate, ctor, argPrefix string, init ast.Expr, spec *ast.ValueSpec) string {
	call := makeCall(init)
	if call == nil || len(call.Args) != 2 {
		return "[][]T not declared as make([][]T, rows)"
	}
	outer, ok := call.Args[0].(*ast.ArrayType)
	if !ok || outer.Len != nil {
		return "[][]T not declared as make([][]T, rows)"
	}
	inner, ok := outer.Elt.(*ast.ArrayType)
	if !ok || inner.Len != nil {
		return "[][]T not declared as make([][]T, rows)"
	}
	c.elem = p.r.text(inner.Elt)
	loop, cols, reason := p.matchInitLoop(c, call)
	if reason != "" {
		return reason
	}
	c.initLoop = loop
	p.varFormPrefix(c, init, spec)
	p.edit(call.Pos(), call.Args[1].Pos(), ctor+"["+c.elem+"]("+argPrefix)
	p.edit(call.Args[1].End(), call.End(), ", "+cols+")")
	p.edit(p.r.lineStart(loop.Pos()), loop.End(), "")
	return ""
}

// matchInitLoop finds the row-initialization loop that must immediately
// follow a [][]T make: either
//
//	for i := 0; i < rows; i++ { x[i] = make([]T, cols) }
//	for i := range x { x[i] = make([]T, cols) }
//
// and returns it with the column bound's source text.
func (p *plan) matchInitLoop(c *candidate, outerMake *ast.CallExpr) (loop ast.Stmt, cols string, reason string) {
	const noLoop = "no matching row-initialization loop immediately after the make"
	f := p.r.fileOf(c.declStmt.Pos())
	parents := p.r.parents[f]
	block, ok := parents[c.declStmt].(*ast.BlockStmt)
	if !ok {
		return nil, "", noLoop
	}
	idx := -1
	for i, s := range block.List {
		if s == c.declStmt {
			idx = i
		}
	}
	if idx < 0 || idx+1 >= len(block.List) {
		return nil, "", noLoop
	}
	next := block.List[idx+1]

	rowVar := func(body *ast.BlockStmt, loopVar *ast.Ident) (string, bool) {
		if len(body.List) != 1 {
			return "", false
		}
		as, ok := body.List[0].(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return "", false
		}
		ix, ok := as.Lhs[0].(*ast.IndexExpr)
		if !ok {
			return "", false
		}
		base, ok := ix.X.(*ast.Ident)
		if !ok || p.r.pkg.Info.Uses[base] != types.Object(c.obj) {
			return "", false
		}
		iid, ok := ix.Index.(*ast.Ident)
		if !ok || loopVar == nil || iid.Name != loopVar.Name {
			return "", false
		}
		mk := makeCall(as.Rhs[0])
		if mk == nil || len(mk.Args) != 2 {
			return "", false
		}
		it, ok := mk.Args[0].(*ast.ArrayType)
		if !ok || it.Len != nil || p.r.text(it.Elt) != c.elem {
			return "", false
		}
		if p.r.containsCandidateUse(mk.Args[1]) {
			return "", false
		}
		return p.r.text(mk.Args[1]), true
	}

	switch fl := next.(type) {
	case *ast.ForStmt:
		initAs, ok := fl.Init.(*ast.AssignStmt)
		if !ok || initAs.Tok != token.DEFINE || len(initAs.Lhs) != 1 {
			return nil, "", noLoop
		}
		loopVar, _ := initAs.Lhs[0].(*ast.Ident)
		cond, ok := fl.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.LSS || p.r.text(cond.Y) != p.r.text(outerMake.Args[1]) {
			return nil, "", noLoop
		}
		if cx, ok := cond.X.(*ast.Ident); !ok || loopVar == nil || cx.Name != loopVar.Name {
			return nil, "", noLoop
		}
		colsText, ok := rowVar(fl.Body, loopVar)
		if !ok {
			return nil, "", noLoop
		}
		return fl, colsText, ""
	case *ast.RangeStmt:
		loopVar, _ := fl.Key.(*ast.Ident)
		x, ok := fl.X.(*ast.Ident)
		if !ok || p.r.pkg.Info.Uses[x] != types.Object(c.obj) || fl.Value != nil || fl.Tok != token.DEFINE {
			return nil, "", noLoop
		}
		colsText, ok := rowVar(fl.Body, loopVar)
		if !ok {
			return nil, "", noLoop
		}
		return fl, colsText, ""
	}
	return nil, "", noLoop
}

func (p *plan) mapDecl(c *candidate, ctor, argPrefix string, init ast.Expr, spec *ast.ValueSpec) string {
	var mt *ast.MapType
	var span ast.Expr
	if call := makeCall(init); call != nil {
		m, ok := call.Args[0].(*ast.MapType)
		if !ok {
			return "map not declared as make(map[K]V) or map[K]V{}"
		}
		mt, span = m, call // a make size hint carries no semantics; drop it
	} else if lit, ok := init.(*ast.CompositeLit); ok {
		m, isMap := lit.Type.(*ast.MapType)
		if !isMap {
			return "map not declared as make(map[K]V) or map[K]V{}"
		}
		if len(lit.Elts) != 0 {
			return "map literal with entries"
		}
		mt, span = m, lit
	} else {
		return "map not declared as make(map[K]V) or map[K]V{}"
	}
	c.key, c.val = p.r.text(mt.Key), p.r.text(mt.Value)
	p.varFormPrefix(c, init, spec)
	p.edit(span.Pos(), span.End(),
		ctor+"["+c.key+", "+c.val+"]("+strings.TrimSuffix(argPrefix, ", ")+")")
	return ""
}

func (p *plan) mutexDecl(c *candidate, ctor, first string, spec *ast.ValueSpec) string {
	if spec == nil || spec.Type == nil || len(spec.Values) != 0 {
		return "mutex not declared as var mu sync.Mutex"
	}
	if _, ok := spec.Type.(*ast.SelectorExpr); !ok {
		return "mutex not declared as var mu sync.Mutex"
	}
	p.edit(c.declStmt.Pos(), c.declStmt.End(), c.obj.Name()+" := "+ctor+"("+first+")")
	p.erasedSync[p.r.fileOf(c.declStmt.Pos())]++ // the sync.Mutex qualifier inside the replaced span
	return ""
}
