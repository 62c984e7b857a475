package analysis

import (
	"fmt"
	"go/format"
	"go/token"
	"io/fs"
	"os"
	"sort"
)

// Apply returns src — the bytes file was parsed from — with edits
// spliced in. Edits apply in stable order: by start offset, and at one
// offset an insert goes before a replacement; inserts sharing an offset
// keep their order in edits. Overlapping or out-of-range edits are
// errors. src itself is not modified.
func Apply(file *token.File, src []byte, edits []TextEdit) ([]byte, error) {
	type span struct {
		off, end int
		text     string
	}
	spans := make([]span, len(edits))
	for i, e := range edits {
		off, end := int(e.Pos)-file.Base(), int(e.End)-file.Base()
		if off < 0 || off > end || end > len(src) {
			return nil, fmt.Errorf("analysis: edit out of range in %s", file.Name())
		}
		spans[i] = span{off, end, e.NewText}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].off != spans[j].off {
			return spans[i].off < spans[j].off
		}
		return spans[i].end < spans[j].end
	})
	out := make([]byte, 0, len(src))
	last := 0
	for _, s := range spans {
		if s.off < last {
			return nil, fmt.Errorf("analysis: overlapping edits in %s", file.Name())
		}
		out = append(out, src[last:s.off]...)
		out = append(out, s.text...)
		last = s.end
	}
	return append(out, src[last:]...), nil
}

// ApplyFixes applies every diagnostic's SuggestedFix to the source pkgs
// were loaded from, gofmts the results, and writes them back. Every file
// is computed before any is written, so a bad edit leaves all files
// untouched. It returns the diagnostics that had no fix (still
// outstanding) and the number of fixes applied.
func ApplyFixes(pkgs []*Package, diags []Diagnostic) (remaining []Diagnostic, applied int, err error) {
	byFile := make(map[*token.File][]TextEdit)
	src := make(map[*token.File][]byte)
	for _, d := range diags {
		if d.Fix == nil {
			remaining = append(remaining, d)
			continue
		}
		for _, e := range d.Fix.Edits {
			tf, b := sourceOf(pkgs, e.Pos)
			if tf == nil {
				return nil, 0, fmt.Errorf("analysis: fix edit outside the loaded sources")
			}
			byFile[tf] = append(byFile[tf], e)
			src[tf] = b
		}
		applied++
	}
	files := make(map[string][]byte, len(byFile))
	for tf, edits := range byFile {
		out, err := Apply(tf, src[tf], edits)
		if err != nil {
			return nil, 0, err
		}
		if fmted, err := format.Source(out); err == nil {
			out = fmted
		}
		files[tf.Name()] = out
	}
	if err := WriteFiles(files); err != nil {
		return nil, 0, err
	}
	return remaining, applied, nil
}

// sourceOf finds the loaded file holding pos and the bytes it was
// parsed from.
func sourceOf(pkgs []*Package, pos token.Pos) (*token.File, []byte) {
	for _, pkg := range pkgs {
		if tf := pkg.Fset.File(pos); tf != nil {
			if b, ok := pkg.Src[tf.Name()]; ok {
				return tf, b
			}
		}
	}
	return nil, nil
}

// WriteFiles replaces the content of each named file, keeping its
// permission bits. Every file is stat'ed before any is written, so a
// missing file fails the batch without writing the others.
func WriteFiles(files map[string][]byte) error {
	names := make([]string, 0, len(files))
	modes := make(map[string]fs.FileMode, len(files))
	for name := range files {
		info, err := os.Stat(name)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		names = append(names, name)
		modes[name] = info.Mode().Perm()
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(name, files[name], modes[name]); err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
	}
	return nil
}
