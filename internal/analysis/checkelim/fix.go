package checkelim

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"spd3/internal/analysis"
)

// fixBuilder accumulates one file's pending rewrites and materializes
// them as diagnostics with non-overlapping SuggestedFix edits. The two
// wrinkles it owns:
//
//   - Nesting. An elided Get can sit inside an elided Set's value (or
//     inside a hoist-replaced occurrence). Only the outermost rewrite
//     gets a text edit; inner rewrites are spliced into the outer
//     replacement text, so analysis.Apply never sees overlapping spans.
//   - One insert per anchor. All elision markers for one line merge
//     into one //spd3opt:elided comment naming every dominator, and
//     all hoisted declarations for one loop merge into one insert
//     above it.
type fixBuilder struct {
	fset *token.FileSet
	src  []byte
	// file is the parsed file, for line arithmetic.
	file *ast.File
	// comments holds the first comment on each line, where a marker
	// must go in front of it.
	comments map[int]*ast.Comment
	// names holds every identifier spelled in the file, for fresh
	// hoist-local names.
	names    map[string]bool
	elisions []*pendElision
	byCall   map[*ast.CallExpr]*pendElision
	hoists   []*pendHoist
	// repls is the flush-time span-replacement list (sorted by Pos).
	repls []*repl
}

// A pendElision is a proven-redundant access awaiting flush: a later
// hoist of the same key may still subsume it.
type pendElision struct {
	a      *access
	domPos token.Pos
	// cancelled marks dup elisions subsumed by a hoist of the same key
	// (the hoist replaces the whole occurrence).
	cancelled bool
}

type pendHoist struct {
	loop *ast.ForStmt
	g    *hoistGroup
	name string
}

func newFixBuilder(fset *token.FileSet, src []byte, f *ast.File) *fixBuilder {
	fb := &fixBuilder{
		fset:     fset,
		src:      src,
		file:     f,
		comments: analysis.CommentsByLine(fset, f, ""),
		names:    make(map[string]bool),
		byCall:   make(map[*ast.CallExpr]*pendElision),
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			fb.names[id.Name] = true
		}
		return true
	})
	return fb
}

// at renders a position as "line N" for messages.
func (fb *fixBuilder) at(pos token.Pos) string {
	return fmt.Sprintf("line %d", fb.fset.Position(pos).Line)
}

func (fb *fixBuilder) addElision(a *access, domPos token.Pos) {
	p := &pendElision{a: a, domPos: domPos}
	fb.elisions = append(fb.elisions, p)
	fb.byCall[a.call] = p
}

// addHoist registers a hoist of g out of loop, cancelling dup elisions
// on the replaced occurrences. It reports false when every occurrence
// was already elided (the hoist would only add a checked access).
func (fb *fixBuilder) addHoist(loop *ast.ForStmt, g *hoistGroup) bool {
	allElided := true
	for _, o := range g.occs {
		if p := fb.byCall[o.call]; p == nil || p.cancelled {
			allElided = false
		}
	}
	if allElided {
		return false
	}
	for _, o := range g.occs {
		if p := fb.byCall[o.call]; p != nil {
			p.cancelled = true
		}
	}
	fb.hoists = append(fb.hoists, &pendHoist{loop: loop, g: g, name: fb.freshName(g)})
	return true
}

// freshName derives a collision-free local for a hoisted value.
func (fb *fixBuilder) freshName(g *hoistGroup) string {
	base := "hoisted"
	if id := lastIdent(g.occs[0].sel.X); id != "" {
		base = id + "Inv"
	}
	name := base
	for i := 2; fb.names[name]; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	fb.names[name] = true
	return name
}

func lastIdent(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return lastIdent(e.X)
	case *ast.StarExpr:
		return lastIdent(e.X)
	}
	return ""
}

// A repl is one pending span replacement (elision rewrite or hoist
// occurrence), used both for splicing nested rewrites and for deciding
// outermost spans.
type repl struct {
	pos, end token.Pos
	text     func() string
}

// flush materializes the file's pending work into res and resets
// nothing (the builder is per-file).
func (fb *fixBuilder) flush(fset *token.FileSet, res *Result) {
	var repls []*repl
	active := fb.activeElisions()
	for _, p := range active {
		p := p
		repls = append(repls, &repl{pos: p.a.call.Pos(), end: p.a.call.End(),
			text: func() string { return fb.textFor(p) }})
	}
	for _, h := range fb.hoists {
		for _, o := range h.g.occs {
			name := h.name
			repls = append(repls, &repl{pos: o.call.Pos(), end: o.call.End(),
				text: func() string { return name }})
		}
	}
	sort.Slice(repls, func(i, j int) bool { return repls[i].pos < repls[j].pos })
	fb.repls = repls

	// Outermost spans get edits; nested ones are spliced into them.
	outermost := make(map[*repl]bool)
	var maxEnd token.Pos
	for _, r := range repls {
		if r.pos >= maxEnd {
			outermost[r] = true
			maxEnd = r.end
		}
	}

	// One marker insert per line naming every dominator on it. A
	// nested elision's marker anchors to its outermost container's
	// line: after the rewrite, that is where the unchecked access
	// lives, and inserting inside a replaced span would overlap.
	container := func(pos, end token.Pos) *repl {
		for _, r := range repls {
			if outermost[r] && r.pos <= pos && end <= r.end {
				return r
			}
		}
		return nil
	}
	// Each hoisted group inserts one declaration line above its loop,
	// shifting every later line down; dominator references describe
	// the rewritten file, so renumber them past the insertion points.
	adjust := func(line int) int {
		shifted := line
		for _, h := range fb.hoists {
			if fb.fset.Position(h.loop.Pos()).Line <= line {
				shifted++
			}
		}
		return shifted
	}
	markers := make(map[int][]int) // line -> dominator lines
	for _, p := range active {
		line := fb.fset.Position(p.a.call.Pos()).Line
		if c := container(p.a.call.Pos(), p.a.call.End()); c != nil {
			line = fb.fset.Position(c.pos).Line
		}
		markers[line] = append(markers[line], adjust(fb.fset.Position(p.domPos).Line))
	}
	markerDone := make(map[int]bool)

	for _, p := range active {
		res.Elisions = append(res.Elisions, Elision{
			Rule:      RuleDup,
			Pos:       p.a.call.Pos(),
			End:       p.a.call.End(),
			Container: p.a.kind,
			DomPos:    p.domPos,
		})
		d := analysis.Diagnostic{
			Pos:      p.a.call.Pos(),
			Analyzer: analyzerName,
			Message:  fb.msgFor(p),
		}
		// A nested rewrite's fix has no edits: its text is spliced
		// into the outer access's edit, so applying that fixes both.
		d.Fix = &analysis.SuggestedFix{Message: "rewritten inside the enclosing access's fix"}
		r := fb.replAt(p.a.call.Pos(), p.a.call.End())
		if outermost[r] {
			edits := []analysis.TextEdit{{Pos: r.pos, End: r.end, NewText: r.text()}}
			line := fb.fset.Position(p.a.call.Pos()).Line
			if !markerDone[line] {
				markerDone[line] = true
				edits = append(edits, fb.markerEdit(line, markers[line]))
			}
			d.Fix = &analysis.SuggestedFix{Message: "rewrite to unchecked access", Edits: edits}
		}
		res.Diags = append(res.Diags, d)
	}

	// Hoists, merged per loop so the declaration insert offset is
	// unique.
	byLoop := make(map[*ast.ForStmt][]*pendHoist)
	var loops []*ast.ForStmt
	for _, h := range fb.hoists {
		if byLoop[h.loop] == nil {
			loops = append(loops, h.loop)
		}
		byLoop[h.loop] = append(byLoop[h.loop], h)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i].Pos() < loops[j].Pos() })
	for _, loop := range loops {
		hs := byLoop[loop]
		var decl strings.Builder
		var edits []analysis.TextEdit
		first := token.Pos(0)
		for _, h := range hs {
			occ0 := h.g.occs[0]
			if !first.IsValid() || occ0.call.Pos() < first {
				first = occ0.call.Pos()
			}
			fmt.Fprintf(&decl, "%s := %s //spd3opt:hoisted loop-invariant\n",
				h.name, fb.renderRange(occ0.call.Pos(), occ0.call.End()))
			for _, o := range h.g.occs {
				r := fb.replAt(o.call.Pos(), o.call.End())
				if outermost[r] {
					edits = append(edits, analysis.TextEdit{Pos: r.pos, End: r.end, NewText: h.name})
				}
				res.Elisions = append(res.Elisions, Elision{
					Rule:      RuleHoist,
					Pos:       o.call.Pos(),
					End:       o.call.End(),
					Container: o.kind,
					DomPos:    loop.Pos(),
				})
			}
		}
		edits = append(edits, analysis.TextEdit{Pos: loop.Pos(), End: loop.Pos(), NewText: decl.String()})
		res.Diags = append(res.Diags, analysis.Diagnostic{
			Pos:      first,
			Analyzer: analyzerName,
			Message: fmt.Sprintf("loop-invariant read check in a provably-entered, barrier-free loop: "+
				"hoist to a single check before the loop at %s", fb.at(loop.Pos())),
			Fix: &analysis.SuggestedFix{Message: "hoist the checked read out of the loop", Edits: edits},
		})
	}
}

// replAt finds the registered repl for a span.
func (fb *fixBuilder) replAt(pos, end token.Pos) *repl {
	for _, r := range fb.repls {
		if r.pos == pos && r.end == end {
			return r
		}
	}
	return nil
}

// renderRange returns the source for [pos, end) with every nested
// pending replacement spliced in.
func (fb *fixBuilder) renderRange(pos, end token.Pos) string {
	var sb strings.Builder
	cur := pos
	for _, r := range fb.repls {
		// Skip the span itself (a hoist declaration renders the
		// original checked call, not its own replacement).
		if r.pos == pos && r.end == end {
			continue
		}
		if r.pos >= cur && r.end <= end {
			sb.Write(fb.slice(cur, r.pos))
			sb.WriteString(r.text())
			cur = r.end
		}
	}
	sb.Write(fb.slice(cur, end))
	return sb.String()
}

func (fb *fixBuilder) slice(pos, end token.Pos) []byte {
	p, q := fb.fset.Position(pos).Offset, fb.fset.Position(end).Offset
	return fb.src[p:q]
}

// textFor renders the unchecked rewrite of one elided access, splicing
// in any nested rewrites within its operands.
func (fb *fixBuilder) textFor(p *pendElision) string {
	a := p.a
	recv := fb.renderRange(a.sel.X.Pos(), a.sel.X.End())
	var idx []string
	for _, ie := range a.index {
		idx = append(idx, fb.renderRange(ie.Pos(), ie.End()))
	}
	val := ""
	if a.value != nil {
		val = fb.renderRange(a.value.Pos(), a.value.End())
	}
	switch a.kind {
	case "Array":
		if a.write {
			return fmt.Sprintf("%s.Unchecked()[%s] = %s", recv, idx[0], val)
		}
		return fmt.Sprintf("%s.Unchecked()[%s]", recv, idx[0])
	case "Matrix":
		if a.write {
			return fmt.Sprintf("%s.UncheckedRow(%s)[%s] = %s", recv, idx[0], idx[1], val)
		}
		return fmt.Sprintf("%s.UncheckedRow(%s)[%s]", recv, idx[0], idx[1])
	default: // Var
		if a.write {
			return fmt.Sprintf("*%s.Unchecked() = %s", recv, val)
		}
		return fmt.Sprintf("(*%s.Unchecked())", recv)
	}
}

func (fb *fixBuilder) msgFor(p *pendElision) string {
	if p.a.write {
		return fmt.Sprintf("redundant write check: cell already write-checked at %s in the same step",
			fb.at(p.domPos))
	}
	return fmt.Sprintf("redundant read check: cell already read-checked at %s in the same step",
		fb.at(p.domPos))
}

// markerEdit builds the end-of-line //spd3opt:elided insert for line.
func (fb *fixBuilder) markerEdit(line int, domLines []int) analysis.TextEdit {
	sort.Ints(domLines)
	var refs []string
	seen := make(map[int]bool)
	for _, l := range domLines {
		if !seen[l] {
			seen[l] = true
			refs = append(refs, fmt.Sprintf("L%d", l))
		}
	}
	marker := " //" + analysis.ElidedMarker + " dominated-by " + strings.Join(refs, ", ")
	// If the line already carries a comment, insert before it — text
	// appended after a // comment would become part of that comment and
	// the marker scan would never see it.
	if c := fb.comments[line]; c != nil {
		return analysis.TextEdit{Pos: c.Pos(), End: c.Pos(), NewText: strings.TrimPrefix(marker, " ") + " "}
	}
	pos := fb.lineEnd(line)
	return analysis.TextEdit{Pos: pos, End: pos, NewText: marker}
}

// lineEnd returns the position just before line's terminating newline.
func (fb *fixBuilder) lineEnd(line int) token.Pos {
	tf := fb.fset.File(fb.file.Pos())
	if line < tf.LineCount() {
		return tf.LineStart(line+1) - 1
	}
	return token.Pos(tf.Base() + tf.Size())
}

// activeElisions returns the non-cancelled pending elisions.
func (fb *fixBuilder) activeElisions() []*pendElision {
	var out []*pendElision
	for _, p := range fb.elisions {
		if !p.cancelled {
			out = append(out, p)
		}
	}
	return out
}
