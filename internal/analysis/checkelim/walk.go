package checkelim

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"spd3/internal/analysis"
)

// A fact records that the current step has already checked one
// container cell: readPos/wrotePos anchor the dominating read and
// write checks (NoPos when that flavor has not run). deps are the
// variables the key's receiver, ctx, and index render through — any
// reassignment of one retires the fact.
type fact struct {
	readPos, wrotePos token.Pos
	deps              []types.Object
	kind              string
}

// killInfo is a tombstone for a retired fact: what ended it, for skip
// reporting ("earlier check invalidated by Async at ...").
type killInfo struct {
	what string
	pos  token.Pos
}

// walker runs the straight-line, evaluation-order analysis over one
// region. facts map canonical access keys to live facts; kills holds
// tombstones for keys whose facts were retired since their last
// access.
type walker struct {
	info *types.Info
	res  *Result
	pkgf *pkgFacts
	fb   *fixBuilder
	// regionPos..regionEnd span the enclosing function including its
	// parameter list; objects declared inside are flow-tracked, objects
	// captured from outside must be effectively final package-wide.
	regionPos, regionEnd token.Pos
	facts                map[string]*fact
	kills                map[string]killInfo
	// stmtCall is the call at statement level of the ExprStmt being
	// walked, if any: only there can a Set be rewritten to an
	// assignment.
	stmtCall *ast.CallExpr
}

func newWalker(info *types.Info, res *Result, pkgf *pkgFacts, fb *fixBuilder, sc analysis.FuncScope) *walker {
	return &walker{
		info:      info,
		res:       res,
		pkgf:      pkgf,
		fb:        fb,
		regionPos: sc.Func.Pos(),
		regionEnd: sc.Func.End(),
		facts:     make(map[string]*fact),
		kills:     make(map[string]killInfo),
	}
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			w.stmtCall = call
		}
		w.expr(s.X)
		w.stmtCall = nil
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
		for _, l := range s.Lhs {
			w.expr(l) // index/receiver operands of the target evaluate too
		}
		for _, l := range s.Lhs {
			w.killTarget(l, s.Tok == token.DEFINE)
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
		w.killTarget(s.X, false)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		thenOut := w.branch(func(bw *walker) { bw.stmt(s.Body) })
		elseOut := cloneFacts(w.facts)
		if s.Else != nil {
			elseOut = w.branch(func(bw *walker) { bw.stmt(s.Else) })
		}
		w.facts = intersectFacts(thenOut, elseOut)
	case *ast.ForStmt:
		w.forStmt(s)
	case *ast.RangeStmt:
		w.rangeStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.caseBranches(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		w.caseBranches(s.Body)
	case *ast.SelectStmt:
		// Channel communication is a schedule point the detector cannot
		// model (rawconc territory); forget everything and do not
		// analyze the clause bodies.
		w.clearAll("select statement", s.Pos())
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			w.expr(a)
		}
		w.clearAll("go statement", s.Pos())
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		w.clearAll("channel send", s.Pos())
	case *ast.DeferStmt:
		// Arguments evaluate now; the call itself runs after the
		// region's last access, so it is not a barrier here.
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
		w.clearAll("return", s.Pos())
	case *ast.BranchStmt, *ast.EmptyStmt:
		// break/continue/fallthrough only jump forward out of constructs
		// whose conservative merges already discard branch-born facts;
		// statements after an unconditional jump are unreachable, where
		// any verdict is vacuously sound.
	default:
		// Anything unmodeled (labeled statements are pre-filtered, but
		// keep the default honest): forget everything.
		w.clearAll("unmodeled statement", s.Pos())
	}
}

// branch runs fn on a copy of the current facts and returns the copy's
// final state. Tombstones are shared: a kill on either path explains a
// later miss either way.
func (w *walker) branch(fn func(bw *walker)) map[string]*fact {
	bw := *w
	bw.facts = cloneFacts(w.facts)
	bw.stmtCall = nil
	fn(&bw)
	return bw.facts
}

// caseBranches merges the clause bodies of a switch: each runs on its
// own copy, and — because no clause may run at all without a default —
// the fall-through state joins the intersection.
func (w *walker) caseBranches(body *ast.BlockStmt) {
	outs := []map[string]*fact{}
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		outs = append(outs, w.branch(func(bw *walker) {
			for _, e := range cc.List {
				bw.expr(e)
			}
			bw.stmts(cc.Body)
		}))
	}
	if !hasDefault {
		outs = append(outs, cloneFacts(w.facts))
	}
	if len(outs) == 0 {
		return
	}
	w.facts = intersectFacts(outs...)
}

func (w *walker) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		w.stmt(s.Init)
	}
	eff := scanEffects(w.info, s.Body, s.Cond, s.Post)
	pre := cloneFacts(w.facts)
	// Loop-entry facts: what provably survives every iteration.
	if eff.barrier {
		w.clearAll("loop body with task operations", s.Pos())
	} else {
		w.killObjs(eff.killed, "assignment inside loop", s.Pos())
	}
	if s.Cond != nil {
		w.expr(s.Cond)
	}
	w.stmts(s.Body.List)
	if s.Post != nil {
		w.stmt(s.Post)
	}
	w.hoistLoop(s, eff)
	// After the loop (which may have run zero times): the pre-loop
	// facts minus everything the loop could retire.
	w.facts = pre
	if eff.barrier {
		w.clearAll("loop body with task operations", s.Pos())
	} else {
		w.killObjs(eff.killed, "assignment inside loop", s.Pos())
	}
}

func (w *walker) rangeStmt(s *ast.RangeStmt) {
	if s.X != nil {
		w.expr(s.X)
	}
	eff := scanEffects(w.info, s)
	pre := cloneFacts(w.facts)
	if eff.barrier {
		w.clearAll("loop body with task operations", s.Pos())
	} else {
		w.killObjs(eff.killed, "assignment inside loop", s.Pos())
	}
	w.stmts(s.Body.List)
	w.facts = pre
	if eff.barrier {
		w.clearAll("loop body with task operations", s.Pos())
	} else {
		w.killObjs(eff.killed, "assignment inside loop", s.Pos())
	}
}

// expr walks e in evaluation order: operands before operators,
// arguments before calls, with conditional subtrees (&&/|| right
// sides) merged like branches.
func (w *walker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil, *ast.Ident, *ast.BasicLit, *ast.FuncLit, *ast.ArrayType,
		*ast.MapType, *ast.ChanType, *ast.StructType, *ast.InterfaceType, *ast.FuncType:
		// Literals and types have no effects; function literals are
		// separate regions and defining one runs nothing.
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
		for _, i := range e.Indices {
			w.expr(i)
		}
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.expr(e.X)
			w.clearAll("channel receive", e.Pos())
			return
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.LAND || e.Op == token.LOR {
			w.expr(e.X)
			rhs := w.branch(func(bw *walker) { bw.expr(e.Y) })
			w.facts = intersectFacts(rhs, w.facts)
			return
		}
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.CallExpr:
		w.call(e)
	default:
		w.clearAll("unmodeled expression", e.Pos())
	}
}

func (w *walker) call(call *ast.CallExpr) {
	stmtLevel := call == w.stmtCall
	// Receiver and arguments evaluate before the call itself.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	}
	for _, a := range call.Args {
		w.expr(a)
	}
	kind, acc := classifyCall(w.info, call)
	switch kind {
	case kindSafe:
	case kindAccess:
		w.access(acc, stmtLevel)
	default:
		w.clearAll(callDesc(call), call.Pos())
	}
}

// access applies the elimination rules to one checked Get/Set.
func (w *walker) access(a *access, stmtLevel bool) {
	key, deps, ok := w.accessKey(a)
	if !ok {
		return // unkeyable: the check happens, nothing to track
	}
	f := w.facts[key]
	pos := a.call.Pos()
	if a.write {
		if f != nil && f.wrotePos.IsValid() && stmtLevel {
			w.fb.addElision(a, f.wrotePos)
			return
		}
		if f != nil && f.wrotePos.IsValid() {
			// Dominated but syntactically unrewritable (a Set not in
			// statement position cannot become an assignment) — should
			// not occur since Set has no results, but stay honest.
			w.skipf(pos, RuleDup, "dominated write not in statement position")
			return
		}
		if f != nil && f.readPos.IsValid() {
			w.skipf(pos, RuleDup, "earlier read check at %s does not subsume a write check", w.fb.at(f.readPos))
			f.wrotePos = pos
			return
		}
		w.newFact(key, deps, a.kind, pos, true)
		return
	}
	// Read.
	if f != nil && f.readPos.IsValid() {
		w.fb.addElision(a, f.readPos)
		return
	}
	if f != nil && f.wrotePos.IsValid() {
		w.skipf(pos, RuleWriteDom,
			"read after same-step write at %s: eliding it would drop the reader record later write checks compare against",
			w.fb.at(f.wrotePos))
		f.readPos = pos
		return
	}
	if ki, ok := w.kills[key]; ok {
		w.skipf(pos, RuleDup, "earlier check invalidated by %s at %s", ki.what, w.fb.at(ki.pos))
	}
	w.newFact(key, deps, a.kind, pos, false)
}

func (w *walker) newFact(key string, deps []types.Object, kind string, pos token.Pos, write bool) {
	f := &fact{deps: deps, kind: kind}
	if write {
		f.wrotePos = pos
	} else {
		f.readPos = pos
	}
	w.facts[key] = f
	delete(w.kills, key)
}

func (w *walker) skipf(pos token.Pos, rule Rule, format string, args ...any) {
	w.res.Skips = append(w.res.Skips, Skip{Pos: pos, Rule: rule, Reason: fmt.Sprintf(format, args...)})
}

// accessKey canonicalizes a's receiver, ctx, and index into one fact
// key, vetting every dependency: region-locals are covered by the
// flow-sensitive kills, anything captured from an outer scope must be
// effectively final package-wide.
func (w *walker) accessKey(a *access) (string, []types.Object, bool) {
	key, deps, ok := pureKey(w.info, a.sel.X)
	if !ok {
		return "", nil, false
	}
	ck, cdeps, ok := pureKey(w.info, a.ctx)
	if !ok {
		return "", nil, false
	}
	key += "|" + ck
	deps = append(deps, cdeps...)
	for _, idx := range a.index {
		ik, ideps, ok := pureKey(w.info, idx)
		if !ok {
			return "", nil, false
		}
		key += "|" + ik
		deps = append(deps, ideps...)
	}
	for _, d := range deps {
		if !w.depOK(d) {
			return "", nil, false
		}
	}
	return a.kind + "|" + key, deps, true
}

// depOK vets one variable a fact key depends on.
func (w *walker) depOK(obj types.Object) bool {
	if w.pkgf.addrTaken[obj] {
		return false // writes through the pointer are invisible to kills
	}
	if obj.Pos() >= w.regionPos && obj.Pos() < w.regionEnd {
		return true // region-local: the walker sees every assignment
	}
	// Captured or global: another task could share it, so it must never
	// be reassigned after initialization — and provably so, which the
	// package-wide scan can only promise for this package's unexported
	// or function-local variables.
	if obj.Pkg() == nil || obj.Pkg() != w.pkgf.pkg {
		return false
	}
	if w.pkgf.assigned[obj] {
		return false
	}
	if obj.Exported() && obj.Parent() == obj.Pkg().Scope() {
		return false
	}
	return true
}

// killTarget retires facts invalidated by an assignment to l.
func (w *walker) killTarget(l ast.Expr, define bool) {
	switch t := ast.Unparen(l).(type) {
	case *ast.Ident:
		if define {
			return // a fresh object cannot invalidate keys of older ones
		}
		if obj := w.info.Uses[t]; obj != nil {
			w.killObj(obj, "reassignment of "+t.Name, t.Pos())
		}
	case *ast.StarExpr:
		// A write through a pointer can change anything addressable.
		// Fact deps are never address-taken, so their values are safe —
		// but the conservative default costs little.
		w.clearAll("assignment through pointer", t.Pos())
	default:
		if obj := rootObject(w.info, l); obj != nil {
			w.killObj(obj, "assignment through "+obj.Name(), l.Pos())
		} else {
			w.clearAll("assignment to unmodeled target", l.Pos())
		}
	}
}

func (w *walker) killObj(obj types.Object, what string, pos token.Pos) {
	for key, f := range w.facts {
		for _, d := range f.deps {
			if d == obj {
				delete(w.facts, key)
				w.kills[key] = killInfo{what: what, pos: pos}
				break
			}
		}
	}
}

func (w *walker) killObjs(objs map[types.Object]bool, what string, pos token.Pos) {
	for key, f := range w.facts {
		for _, d := range f.deps {
			if objs[d] {
				delete(w.facts, key)
				w.kills[key] = killInfo{what: what, pos: pos}
				break
			}
		}
	}
}

func (w *walker) clearAll(what string, pos token.Pos) {
	for key := range w.facts {
		delete(w.facts, key)
		w.kills[key] = killInfo{what: what, pos: pos}
	}
}

func cloneFacts(m map[string]*fact) map[string]*fact {
	out := make(map[string]*fact, len(m))
	for k, f := range m {
		cp := *f
		out[k] = &cp
	}
	return out
}

// intersectFacts merges control-flow joins per fact flavor: a
// dominating read (write) survives only if every incoming path agrees
// on the same dominating position.
func intersectFacts(outs ...map[string]*fact) map[string]*fact {
	merged := make(map[string]*fact)
	for key, f := range outs[0] {
		rp, wp := f.readPos, f.wrotePos
		ok := true
		for _, m := range outs[1:] {
			g := m[key]
			if g == nil {
				ok = false
				break
			}
			if g.readPos != rp {
				rp = token.NoPos
			}
			if g.wrotePos != wp {
				wp = token.NoPos
			}
		}
		if ok && (rp.IsValid() || wp.IsValid()) {
			merged[key] = &fact{readPos: rp, wrotePos: wp, deps: f.deps, kind: f.kind}
		}
	}
	return merged
}

// effects is the conservative summary of a loop body used to decide
// which facts survive into and beyond the loop.
type effects struct {
	killed  map[types.Object]bool
	barrier bool
}

// scanEffects summarizes nodes: every object any iteration might
// reassign, and whether any iteration might perform a task operation
// (or anything else unclassifiable).
func scanEffects(info *types.Info, nodes ...ast.Node) *effects {
	eff := &effects{killed: make(map[types.Object]bool)}
	mark := func(e ast.Expr) {
		if obj := rootObject(info, e); obj != nil {
			eff.killed[obj] = true
		}
	}
	for _, node := range nodes {
		if node == nil {
			continue
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						mark(lhs)
						if _, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
							eff.barrier = true
						}
					}
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
				if n.Op == token.ARROW {
					eff.barrier = true
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					mark(n.Key)
					mark(n.Value)
				}
			case *ast.CallExpr:
				if k, _ := classifyCall(info, n); k == kindBarrier {
					eff.barrier = true
				}
			case *ast.GoStmt, *ast.SendStmt, *ast.SelectStmt, *ast.ReturnStmt, *ast.DeferStmt:
				eff.barrier = true
			}
			return true
		})
	}
	return eff
}

// callDesc names a barrier call for tombstones: the selector or
// function expression's last identifier.
func callDesc(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return "call to " + fun.Name
	case *ast.SelectorExpr:
		return "call to " + fun.Sel.Name
	default:
		return "function call"
	}
}
