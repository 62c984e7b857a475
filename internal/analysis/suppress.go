package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Comment directives. Every tool in the toolchain reads its directives
// through CommentsByLine:
//
//	//spd3vet:ignore <reason>            suppresses findings (below)
//	//spd3opt:elided dominated-by L<n>   marks a checkelim elision
//	//spd3inst:skip <reason>             opts a declaration out of spd3inst

// CommentsByLine maps each line of f (in fset coordinates) to the first
// comment on it whose text starts with prefix; an empty prefix matches
// every comment.
func CommentsByLine(fset *token.FileSet, f *ast.File, prefix string) map[int]*ast.Comment {
	lines := make(map[int]*ast.Comment)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			if line := fset.Position(c.Pos()).Line; lines[line] == nil {
				lines[line] = c
			}
		}
	}
	return lines
}

// Suppression: a comment of the form
//
//	//spd3vet:ignore <reason>
//
// on the flagged line (or the line immediately above it) drops every
// diagnostic for that line. The reason is mandatory — an unsuppressed
// guarantee hole should cost at least one written justification — and
// directives without one are themselves reported as findings, so a bare
// ignore cannot silently widen the gap.
const ignoreDirective = "//spd3vet:ignore"

// The spd3opt elision marker: checkelim's fixes rewrite a provably
// redundant checked access to its Unchecked form and stamp the line
// with
//
//	//spd3opt:elided dominated-by L<line>
//
// naming the dominating checked access. The unchecked analyzer trusts
// the marker: an Unchecked call on a marked line is a machine-written
// §5.5 elision backed by a same-step dominating check, not a
// programmer-opened soundness hole, so it is not flagged. Hand-writing
// the marker asserts the same proof obligation by hand — equivalent to
// a //spd3vet:ignore with the proof as the reason. Unlike an ignore
// directive the marker covers only its own line: fixes append it to the
// rewritten access's line, and trusting a neighbor would widen the hole.
const ElidedMarker = "spd3opt:elided"

// Suppress drops diagnostics covered by ignore directives in pkg's
// files and appends a finding for every malformed directive. It returns
// the surviving diagnostics and the number suppressed.
func Suppress(pkg *Package, diags []Diagnostic) (kept []Diagnostic, suppressed int) {
	byFile := make(map[string]map[int]bool)
	for _, f := range pkg.Files {
		lines := make(map[int]bool)
		for line, c := range CommentsByLine(pkg.Fset, f, ignoreDirective) {
			if strings.TrimSpace(strings.TrimPrefix(c.Text, ignoreDirective)) == "" {
				kept = append(kept, Diagnostic{
					Pos:      c.Pos(),
					Analyzer: "suppress",
					Message:  "spd3vet:ignore directive without a reason; write //spd3vet:ignore <why this is safe>",
				})
				continue
			}
			// The directive covers its own line (trailing comment) and
			// the next line (comment above the flagged statement).
			lines[line] = true
			lines[line+1] = true
		}
		byFile[pkg.Fset.Position(f.Pos()).Filename] = lines
	}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if byFile[pos.Filename][pos.Line] {
			suppressed++
			continue
		}
		kept = append(kept, d)
	}
	SortDiagnostics(pkg.Fset, kept)
	return kept, suppressed
}
