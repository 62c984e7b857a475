package analysis

import (
	"bytes"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// at is an edit given as byte offsets.
type at struct {
	off, end int
	text     string
}

// applyAt runs Apply over src with edits given as byte offsets.
func applyAt(src string, edits ...at) (string, error) {
	tf := token.NewFileSet().AddFile("x.go", -1, len(src))
	var tes []TextEdit
	for _, e := range edits {
		base := tf.Base()
		tes = append(tes, TextEdit{Pos: token.Pos(base + e.off), End: token.Pos(base + e.end), NewText: e.text})
	}
	out, err := Apply(tf, []byte(src), tes)
	return string(out), err
}

func TestApplySameOffsetInsertsKeepOrder(t *testing.T) {
	got, err := applyAt("ab", at{1, 1, "1"}, at{1, 1, "2"}, at{1, 1, "3"})
	if err != nil || got != "a123b" {
		t.Errorf("got %q, %v; want a123b", got, err)
	}
}

func TestApplyInsertBeforeReplacement(t *testing.T) {
	// The replacement is listed first; the insert at its start still
	// lands before the replacement text, and one at its end after it.
	got, err := applyAt("f(x)", at{2, 3, "y"}, at{3, 3, "+1"}, at{2, 2, "-"})
	if err != nil || got != "f(-y+1)" {
		t.Errorf("got %q, %v; want f(-y+1)", got, err)
	}
}

func TestApplyRejectsOverlap(t *testing.T) {
	for name, edits := range map[string][]at{
		"crossing":      {{0, 3, "x"}, {2, 4, "y"}},
		"same span":     {{1, 3, "x"}, {1, 3, "y"}},
		"insert inside": {{0, 4, "x"}, {2, 2, "y"}},
	} {
		if got, err := applyAt("abcdef", edits...); err == nil || !strings.Contains(err.Error(), "overlapping") {
			t.Errorf("%s: got %q, %v; want an overlap error", name, got, err)
		}
	}
}

func TestApplyRejectsOutOfRange(t *testing.T) {
	for name, e := range map[string]at{
		"past end":     {2, 9, "x"},
		"before start": {-1, 1, "x"},
		"reversed":     {3, 1, "x"},
	} {
		if got, err := applyAt("abcd", e); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: got %q, %v; want an out-of-range error", name, got, err)
		}
	}
}

// TestApplyFixesAllOrNothing: one file's fix is good, the other's edits
// overlap. The bad file must fail the whole batch before the good one
// is written. Files used to be rewritten one at a time in map order, so
// the run repeats until either order would have been hit many times.
func TestApplyFixesAllOrNothing(t *testing.T) {
	const good = "package p\n\nvar A = 1\n"
	const bad = "package p\n\nvar B = 2\n"
	for i := 0; i < 32; i++ {
		dir := t.TempDir()
		for name, src := range map[string]string{"a.go": good, "b.go": bad} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		loader, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var diags []Diagnostic
		for _, f := range pkg.Files {
			lit := f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.ValueSpec).Values[0]
			edits := []TextEdit{{Pos: lit.Pos(), End: lit.End(), NewText: "3"}}
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "b.go") {
				edits = append(edits, TextEdit{Pos: lit.Pos(), End: lit.End(), NewText: "4"})
			}
			diags = append(diags, Diagnostic{Pos: lit.Pos(), Fix: &SuggestedFix{Edits: edits}})
		}
		if _, _, err := ApplyFixes([]*Package{pkg}, diags); err == nil {
			t.Fatal("ApplyFixes accepted overlapping edits")
		}
		for name, want := range map[string]string{"a.go": good, "b.go": bad} {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte(want)) {
				t.Fatalf("run %d: %s changed although the batch failed:\n%s", i, name, got)
			}
		}
	}
}
