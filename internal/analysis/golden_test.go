package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"spd3/internal/analysis"
	"spd3/internal/analysis/atest"
	"spd3/internal/analysis/checkelim"
)

// TestRegistryGoldens drives the known-bad fixtures from the analyzer
// registry: every registered analyzer with a testdata/<name>/bad
// directory runs as a subtest, and the built-in suite must all be
// covered — an analyzer whose fixtures go missing fails here rather
// than silently losing coverage.
func TestRegistryGoldens(t *testing.T) {
	covered := atest.RegistryGoldens(t, "testdata")
	sort.Strings(covered)
	want := []string{"ctxescape", "rawconc", "unchecked"}
	for _, name := range want {
		found := false
		for _, c := range covered {
			found = found || c == name
		}
		if !found {
			t.Errorf("registry golden walk missed %s (covered: %v)", name, covered)
		}
	}
}

func TestUncheckedNoFalsePositives(t *testing.T) {
	// The safe fixture has no want annotations: any diagnostic fails.
	atest.RunGolden(t, "testdata/unchecked/safe", analysis.All()...)
}

func mustLookup(t *testing.T, name string) *analysis.Analyzer {
	t.Helper()
	a, ok := analysis.Lookup(name)
	if !ok {
		t.Fatalf("analyzer %q not registered", name)
	}
	return a
}

func TestSuppressGolden(t *testing.T) {
	atest.RunGolden(t, "testdata/suppress/bad", mustLookup(t, "rawconc"))
}

// TestSuppressCounts pins the mechanics the golden matcher can't see:
// the justified directive suppresses exactly one finding.
func TestSuppressCounts(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/suppress/bad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{mustLookup(t, "rawconc")})
	if err != nil {
		t.Fatal(err)
	}
	kept, suppressed := analysis.Suppress(pkg, diags)
	if suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", suppressed)
	}
	// Two findings survive: the unsuppressed go statement and the
	// reason-less directive.
	if len(kept) != 2 {
		t.Errorf("kept = %d findings (%v), want 2", len(kept), kept)
	}
}

// TestDiagnosticPositions pins that findings carry accurate positions:
// the known-bad unchecked fixture reports the capture on the exact
// line and column of the captured identifier.
func TestDiagnosticPositions(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/unchecked/bad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{mustLookup(t, "unchecked")})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics on known-bad fixture")
	}
	pos := pkg.Fset.Position(diags[0].Pos)
	if !strings.HasSuffix(pos.Filename, "bad.go") || pos.Line != 15 || pos.Column != 4 {
		t.Errorf("first finding at %s, want .../bad.go:15:4 (the captured raw[i] write)", pos)
	}
	if diags[0].Analyzer != "unchecked" {
		t.Errorf("analyzer = %q, want unchecked", diags[0].Analyzer)
	}
}

// TestRegistryLookup pins the registry surface the drivers build on:
// All returns a fresh slice, Lookup and ByName resolve registered
// names and reject unknown ones.
func TestRegistryLookup(t *testing.T) {
	all := analysis.All()
	if len(all) < 3 {
		t.Fatalf("All() = %d analyzers, want at least the built-in 3", len(all))
	}
	all[0] = nil
	if analysis.All()[0] == nil {
		t.Error("All() returned an aliased slice: caller mutation leaked into the registry")
	}
	for _, name := range []string{"unchecked", "ctxescape", "rawconc"} {
		if _, ok := analysis.Lookup(name); !ok {
			t.Errorf("Lookup(%q) missed a built-in analyzer", name)
		}
	}
	if _, err := analysis.ByName([]string{"unchecked", "nosuch"}); err == nil {
		t.Error("ByName accepted an unknown analyzer name")
	}
	got, err := analysis.ByName([]string{"rawconc", "unchecked"})
	if err != nil || len(got) != 2 || got[0].Name != "rawconc" || got[1].Name != "unchecked" {
		t.Errorf("ByName order/content wrong: %v, %v", got, err)
	}
}

// TestJSONEnvelope pins the wire format: the same tool/version header
// over a findings array that the other commands' -stats dumps use.
func TestJSONEnvelope(t *testing.T) {
	pkg := loadClean(t, "checkelim/testdata/dup")
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{checkelim.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.NewJSONReport(pkg.Fset, diags)
	if rep.Tool != "spd3vet" || rep.Version != analysis.Version {
		t.Errorf("envelope header = %q/%q", rep.Tool, rep.Version)
	}
	if len(rep.Findings) != 7 {
		t.Fatalf("findings = %d, want 7", len(rep.Findings))
	}
	for _, f := range rep.Findings {
		if f.Analyzer != "checkelim" || f.Line == 0 || f.Col == 0 || f.Fix == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
	var sb strings.Builder
	if err := analysis.WriteJSON(&sb, pkg.Fset, diags); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"tool": "spd3vet"`, `"findings"`, fmt.Sprintf("%q", analysis.Version)} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("JSON output missing %s:\n%s", want, sb.String())
		}
	}
}

// TestApplyFixesRoundTrip copies a checkelim fixture into a 0600 file,
// applies the suggested rewrites, and verifies the result keeps its
// file mode, type-checks, and re-analyzes to zero findings under the
// default suite and checkelim itself. The fixture nests one elided read
// inside an elided write: its fix has no edits of its own, and it does
// not remain outstanding.
func TestApplyFixesRoundTrip(t *testing.T) {
	src, err := os.ReadFile("checkelim/testdata/dup/dup.go")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "dup.go")
	if err := os.WriteFile(target, src, 0o600); err != nil {
		t.Fatal(err)
	}

	pkg := loadClean(t, dir)
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{checkelim.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 7 {
		t.Fatalf("diagnostics = %d, want 7: %v", len(diags), diags)
	}
	remaining, applied, err := analysis.ApplyFixes([]*analysis.Package{pkg}, diags)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 7 || len(remaining) != 0 {
		t.Fatalf("applied = %d remaining = %d, want 7/0", applied, len(remaining))
	}

	info, err := os.Stat(target)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Errorf("fixed file mode = %v, want 0600", info.Mode().Perm())
	}
	fixed, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"y := a.Unchecked()[i]", "m.UncheckedRow(i)[0] = float64(y)", "*v.Unchecked() = y",
		"a.Unchecked()[i] = a.Unchecked()[i] + 1"} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed file missing %q:\n%s", want, fixed)
		}
	}

	// A fresh load of the rewritten file must type-check and be clean.
	diags2, err := analysis.Run(loadClean(t, dir), append(analysis.All(), checkelim.Analyzer))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags2) != 0 {
		t.Fatalf("rewritten fixture still has findings: %v", diags2)
	}
}

// loadClean loads the package in dir through a fresh loader and fails
// the test on type errors.
func loadClean(t *testing.T, dir string) *analysis.Package {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("%s has type errors: %v", dir, pkg.TypeErrors)
	}
	return pkg
}
