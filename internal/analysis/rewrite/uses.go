package rewrite

import (
	"go/ast"
	"go/token"
	"strings"
)

// useEdits plans the rewrite of every use of c's variable. The first
// use that cannot be converted soundly aborts the whole candidate with
// a reason.
func (p *plan) useEdits(c *candidate) string {
	for _, f := range p.r.pkg.Files {
		parents := p.r.parents[f]
		reason := ""
		ast.Inspect(f, func(n ast.Node) bool {
			if reason != "" {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if p.r.pkg.Info.Uses[id] != c.obj {
				return true
			}
			if c.initLoop != nil && id.Pos() >= c.initLoop.Pos() && id.Pos() <= c.initLoop.End() {
				return true // the deleted row-initialization loop
			}
			reason = p.useEdit(c, id, parents)
			return true
		})
		if reason != "" {
			return reason
		}
	}
	return ""
}

// useEdit plans one use site.
func (p *plan) useEdit(c *candidate, id *ast.Ident, parents map[ast.Node]ast.Node) string {
	mode, ctx := p.r.modeAt(id.Pos())
	if mode == modeNone {
		return "use at " + p.r.at(id.Pos()) + " is in a function without a task context " +
			"(plain closure or helper); the access cannot be attributed to a task"
	}
	switch c.kind {
	case kindVar:
		return p.varUse(c, id, parents, mode, ctx)
	case kindArray:
		return p.arrayUse(c, id, parents, mode, ctx)
	case kindMatrix:
		return p.matrixUse(c, id, parents, mode, ctx)
	case kindMap:
		return p.mapUse(c, id, parents, mode, ctx)
	case kindMutex:
		return p.mutexUse(c, id, parents, mode, ctx)
	}
	return "unsupported kind"
}

// opText returns the operator of an op-assign token ("+=" -> "+").
func opText(tok token.Token) string { return strings.TrimSuffix(tok.String(), "=") }

// lhsContains reports whether e appears on the left side of as.
func lhsContains(as *ast.AssignStmt, e ast.Expr) bool {
	for _, lhs := range as.Lhs {
		if lhs == e {
			return true
		}
	}
	return false
}

// containsIdentNamed reports whether n mentions an identifier name
// (used to guard closure parameter names injected by Update rewrites).
func containsIdentNamed(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isLenCall reports whether call is len(id).
func isLenCall(call *ast.CallExpr, arg ast.Expr) bool {
	fn, ok := call.Fun.(*ast.Ident)
	return ok && fn.Name == "len" && len(call.Args) == 1 && call.Args[0] == arg
}

func (p *plan) varUse(c *candidate, id *ast.Ident, parents map[ast.Node]ast.Node, mode accessMode, ctx string) string {
	if mode == modeSeq {
		if u, ok := parents[id].(*ast.UnaryExpr); ok && u.Op == token.AND {
			return "address taken at " + p.r.at(id.Pos())
		}
		p.edit(id.Pos(), id.End(), "(*"+id.Name+".Unchecked())")
		return ""
	}
	switch par := parents[id].(type) {
	case *ast.AssignStmt:
		if !lhsContains(par, id) {
			break // a read on the right-hand side
		}
		if par.Tok == token.DEFINE {
			break // shadowing define of the same name resolves elsewhere
		}
		if len(par.Lhs) != 1 || len(par.Rhs) != 1 {
			return "multi-assignment at " + p.r.at(par.Pos())
		}
		rhs := par.Rhs[0]
		if par.Tok == token.ASSIGN {
			p.edit(id.Pos(), rhs.Pos(), id.Name+".Set("+ctx+", ")
			p.edit(rhs.End(), rhs.End(), ")")
			return ""
		}
		p.edit(id.Pos(), rhs.Pos(), id.Name+".Set("+ctx+", "+id.Name+".Get("+ctx+") "+opText(par.Tok)+" (")
		p.edit(rhs.End(), rhs.End(), "))")
		return ""
	case *ast.IncDecStmt:
		op := "+"
		if par.Tok == token.DEC {
			op = "-"
		}
		p.edit(par.Pos(), par.End(), id.Name+".Set("+ctx+", "+id.Name+".Get("+ctx+")"+op+"1)")
		return ""
	case *ast.UnaryExpr:
		if par.Op == token.AND {
			return "address taken at " + p.r.at(id.Pos())
		}
	}
	p.edit(id.Pos(), id.End(), id.Name+".Get("+ctx+")")
	return ""
}

func (p *plan) arrayUse(c *candidate, id *ast.Ident, parents map[ast.Node]ast.Node, mode accessMode, ctx string) string {
	par := parents[id]
	if u, ok := par.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return "address taken at " + p.r.at(id.Pos())
	}
	if as, ok := par.(*ast.AssignStmt); ok && lhsContains(as, id) && as.Tok != token.DEFINE {
		return "slice header reassigned at " + p.r.at(id.Pos())
	}
	if mode == modeSeq {
		// Driver code is sequential; the raw slice is safe everywhere.
		p.edit(id.Pos(), id.End(), id.Name+".Unchecked()")
		return ""
	}
	switch par := par.(type) {
	case *ast.IndexExpr:
		if par.X != id {
			break // id is the index of another expression: a plain read below
		}
		return p.indexedUse(c, id, par, nil, parents, ctx, c.elem)
	case *ast.CallExpr:
		if isLenCall(par, id) {
			p.edit(par.Pos(), par.End(), id.Name+".Len()")
			return ""
		}
		return "passed as an argument at " + p.r.at(id.Pos())
	case *ast.RangeStmt:
		if par.X == id {
			return p.sliceRange(c, id, par, ctx)
		}
	case *ast.AssignStmt:
		if !lhsContains(par, id) {
			return "slice aliased at " + p.r.at(id.Pos())
		}
	case *ast.SliceExpr:
		return "sliced at " + p.r.at(id.Pos())
	}
	return "unsupported use at " + p.r.at(id.Pos())
}

// indexedUse rewrites x[i] (j == nil) or x[i][j] accesses: reads to
// Get, plain stores to Set, compound stores to Update.
func (p *plan) indexedUse(c *candidate, id *ast.Ident, p1 *ast.IndexExpr, p2 *ast.IndexExpr, parents map[ast.Node]ast.Node, ctx, elem string) string {
	top := ast.Expr(p1)
	idxArgs := func(method string) {
		p.edit(id.Pos(), p1.Index.Pos(), id.Name+"."+method+"("+ctx+", ")
		if p2 != nil {
			p.edit(p1.Index.End(), p2.Index.Pos(), ", ")
		}
	}
	lastIdx := p1.Index
	if p2 != nil {
		top = p2
		lastIdx = p2.Index
	}
	switch g := parents[top].(type) {
	case *ast.AssignStmt:
		if !lhsContains(g, top) {
			break
		}
		if len(g.Lhs) != 1 || len(g.Rhs) != 1 {
			return "multi-assignment at " + p.r.at(g.Pos())
		}
		rhs := g.Rhs[0]
		if g.Tok == token.ASSIGN {
			idxArgs("Set")
			p.edit(lastIdx.End(), rhs.Pos(), ", ")
			p.edit(rhs.End(), rhs.End(), ")")
			return ""
		}
		if containsIdentNamed(rhs, "old") {
			return "compound assignment at " + p.r.at(g.Pos()) + " uses the identifier \"old\""
		}
		idxArgs("Update")
		p.edit(lastIdx.End(), rhs.Pos(), ", func(old "+elem+") "+elem+" { return old "+opText(g.Tok)+" (")
		p.edit(rhs.End(), rhs.End(), ") })")
		return ""
	case *ast.IncDecStmt:
		op := "+"
		if g.Tok == token.DEC {
			op = "-"
		}
		idxArgs("Update")
		p.edit(lastIdx.End(), g.End(), ", func(old "+elem+") "+elem+" { return old "+op+" 1 })")
		return ""
	case *ast.UnaryExpr:
		if g.Op == token.AND {
			return "address of element taken at " + p.r.at(g.Pos())
		}
	}
	idxArgs("Get")
	p.edit(lastIdx.End(), top.End(), ")")
	return ""
}

// sliceRange rewrites `for i[, v] := range x` over an instrumented
// array into a range over x.Len() with an explicit Get for the value.
func (p *plan) sliceRange(c *candidate, id *ast.Ident, rng *ast.RangeStmt, ctx string) string {
	if rng.Tok == token.ASSIGN {
		return "range with assignment at " + p.r.at(rng.Pos())
	}
	if rng.Key == nil {
		// for range x
		p.edit(id.Pos(), id.End(), id.Name+".Len()")
		return ""
	}
	if rng.Value == nil || isBlank(rng.Value) {
		p.edit(id.Pos(), id.End(), id.Name+".Len()")
		if rng.Value != nil {
			p.edit(rng.Key.End(), rng.Value.End(), "")
		}
		return ""
	}
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok {
		return "unsupported range at " + p.r.at(rng.Pos())
	}
	valID, ok := rng.Value.(*ast.Ident)
	if !ok {
		return "unsupported range at " + p.r.at(rng.Pos())
	}
	keyName := keyID.Name
	if keyName == "_" {
		keyName = "ri"
		if containsIdentNamed(rng, "ri") {
			return "range at " + p.r.at(rng.Pos()) + " needs a fresh index name but \"ri\" is taken"
		}
		p.edit(keyID.Pos(), keyID.End(), keyName)
	}
	p.edit(rng.Key.End(), rng.Value.End(), "")
	p.edit(id.Pos(), id.End(), id.Name+".Len()")
	p.edit(rng.Body.Lbrace+1, rng.Body.Lbrace+1, "\n"+valID.Name+" := "+id.Name+".Get("+ctx+", "+keyName+")\n")
	return ""
}

func (p *plan) matrixUse(c *candidate, id *ast.Ident, parents map[ast.Node]ast.Node, mode accessMode, ctx string) string {
	par := parents[id]
	if u, ok := par.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return "address taken at " + p.r.at(id.Pos())
	}
	if as, ok := par.(*ast.AssignStmt); ok && lhsContains(as, id) && as.Tok != token.DEFINE {
		return "matrix reassigned at " + p.r.at(id.Pos())
	}
	switch par := par.(type) {
	case *ast.IndexExpr:
		if par.X != id {
			break
		}
		p2, ok := parents[par].(*ast.IndexExpr)
		if !ok || p2.X != par {
			// x[i] alone: only len(x[i]) is meaningful.
			if call, isCall := parents[par].(*ast.CallExpr); isCall && isLenCall(call, par) {
				switch par.Index.(type) {
				case *ast.Ident, *ast.BasicLit:
					p.edit(call.Pos(), call.End(), id.Name+".Cols()")
					return ""
				}
				return "len of a row with a complex index at " + p.r.at(par.Pos())
			}
			return "row used as a slice at " + p.r.at(par.Pos())
		}
		if mode == modeSeq {
			// x[i][j] -> x.UncheckedRow(i)[j]; works for reads and writes.
			p.edit(id.Pos(), par.Index.Pos(), id.Name+".UncheckedRow(")
			p.edit(par.Index.End(), p2.Index.Pos(), ")[")
			return ""
		}
		return p.indexedUse(c, id, par, p2, parents, ctx, c.elem)
	case *ast.CallExpr:
		if isLenCall(par, id) {
			p.edit(par.Pos(), par.End(), id.Name+".Rows()")
			return ""
		}
		return "passed as an argument at " + p.r.at(id.Pos())
	case *ast.RangeStmt:
		if par.X == id {
			if par.Tok == token.ASSIGN || (par.Value != nil && !isBlank(par.Value)) {
				return "range over matrix rows at " + p.r.at(par.Pos())
			}
			p.edit(id.Pos(), id.End(), id.Name+".Rows()")
			if par.Value != nil {
				p.edit(par.Key.End(), par.Value.End(), "")
			}
			return ""
		}
	case *ast.AssignStmt:
		if !lhsContains(par, id) {
			return "matrix aliased at " + p.r.at(id.Pos())
		}
	}
	return "unsupported use at " + p.r.at(id.Pos())
}

func (p *plan) mapUse(c *candidate, id *ast.Ident, parents map[ast.Node]ast.Node, mode accessMode, ctx string) string {
	par := parents[id]
	if u, ok := par.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return "address taken at " + p.r.at(id.Pos())
	}
	if as, ok := par.(*ast.AssignStmt); ok && lhsContains(as, id) && as.Tok != token.DEFINE {
		return "map reassigned at " + p.r.at(id.Pos())
	}
	if mode == modeSeq {
		return p.seqMapUse(c, id, parents)
	}
	switch par := par.(type) {
	case *ast.IndexExpr:
		if par.X != id {
			break
		}
		g := parents[par]
		// v, ok := x[k]
		if as, ok := g.(*ast.AssignStmt); ok && !lhsContains(as, par) &&
			len(as.Rhs) == 1 && as.Rhs[0] == ast.Expr(par) && len(as.Lhs) == 2 {
			p.edit(id.Pos(), par.Index.Pos(), id.Name+".Lookup("+ctx+", ")
			p.edit(par.Index.End(), par.End(), ")")
			return ""
		}
		switch g := g.(type) {
		case *ast.AssignStmt:
			if !lhsContains(g, par) {
				break
			}
			if len(g.Lhs) != 1 || len(g.Rhs) != 1 {
				return "multi-assignment at " + p.r.at(g.Pos())
			}
			rhs := g.Rhs[0]
			if g.Tok == token.ASSIGN {
				p.edit(id.Pos(), par.Index.Pos(), id.Name+".Set("+ctx+", ")
				p.edit(par.Index.End(), rhs.Pos(), ", ")
				p.edit(rhs.End(), rhs.End(), ")")
				return ""
			}
			if containsIdentNamed(rhs, "old") {
				return "compound assignment at " + p.r.at(g.Pos()) + " uses the identifier \"old\""
			}
			p.edit(id.Pos(), par.Index.Pos(), id.Name+".Update("+ctx+", ")
			p.edit(par.Index.End(), rhs.Pos(), ", func(old "+c.val+") "+c.val+" { return old "+opText(g.Tok)+" (")
			p.edit(rhs.End(), rhs.End(), ") })")
			return ""
		case *ast.IncDecStmt:
			op := "+"
			if g.Tok == token.DEC {
				op = "-"
			}
			p.edit(id.Pos(), par.Index.Pos(), id.Name+".Update("+ctx+", ")
			p.edit(par.Index.End(), g.End(), ", func(old "+c.val+") "+c.val+" { return old "+op+" 1 })")
			return ""
		}
		// Plain read.
		p.edit(id.Pos(), par.Index.Pos(), id.Name+".Get("+ctx+", ")
		p.edit(par.Index.End(), par.End(), ")")
		return ""
	case *ast.CallExpr:
		if isLenCall(par, id) {
			p.edit(par.Pos(), par.End(), id.Name+".Len("+ctx+")")
			return ""
		}
		if fn, ok := par.Fun.(*ast.Ident); ok && fn.Name == "delete" && len(par.Args) == 2 && par.Args[0] == ast.Expr(id) {
			p.edit(par.Pos(), par.Args[1].Pos(), id.Name+".Delete("+ctx+", ")
			return ""
		}
		return "passed as an argument at " + p.r.at(id.Pos())
	case *ast.RangeStmt:
		if par.X == id {
			return "range over a shared map at " + p.r.at(par.Pos()) + "; use explicit keys or Range by hand"
		}
	}
	return "unsupported use at " + p.r.at(id.Pos())
}

// seqMapUse handles driver-scope map uses: reads go through the
// Unchecked copy; writes would be lost on a copy, so they skip.
func (p *plan) seqMapUse(c *candidate, id *ast.Ident, parents map[ast.Node]ast.Node) string {
	switch par := parents[id].(type) {
	case *ast.IndexExpr:
		if par.X == id {
			switch g := parents[par].(type) {
			case *ast.AssignStmt:
				if lhsContains(g, par) {
					return "map written in driver scope at " + p.r.at(id.Pos()) +
						" (Unchecked returns a copy); move the write into the run"
				}
			case *ast.IncDecStmt:
				return "map written in driver scope at " + p.r.at(id.Pos())
			}
		}
	case *ast.CallExpr:
		if fn, ok := par.Fun.(*ast.Ident); ok && fn.Name == "delete" && len(par.Args) > 0 && par.Args[0] == ast.Expr(id) {
			return "map written in driver scope at " + p.r.at(id.Pos())
		}
	}
	p.edit(id.Pos(), id.End(), id.Name+".Unchecked()")
	return ""
}

func (p *plan) mutexUse(c *candidate, id *ast.Ident, parents map[ast.Node]ast.Node, mode accessMode, ctx string) string {
	sel, ok := parents[id].(*ast.SelectorExpr)
	if !ok || sel.X != ast.Expr(id) {
		return "unsupported mutex use at " + p.r.at(id.Pos())
	}
	call, ok := parents[sel].(*ast.CallExpr)
	if !ok || call.Fun != ast.Expr(sel) || len(call.Args) != 0 {
		return "unsupported mutex use at " + p.r.at(id.Pos())
	}
	if sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock" {
		return "unsupported mutex method " + sel.Sel.Name + " at " + p.r.at(id.Pos())
	}
	if mode != modeCtx {
		return "mutex locked outside a task body at " + p.r.at(id.Pos())
	}
	p.edit(call.Rparen, call.Rparen, ctx)
	return ""
}
