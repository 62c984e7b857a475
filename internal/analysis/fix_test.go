package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestApplyFixesRoundTrip copies the deprecated fixture (written
// against removed API, so it has type errors), applies the suggested
// rewrites, and verifies the result type-checks cleanly and re-analyzes
// to zero findings.
func TestApplyFixesRoundTrip(t *testing.T) {
	src, err := os.ReadFile("testdata/deprecated/bad/bad.go")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "bad.go")
	if err := os.WriteFile(target, src, 0o644); err != nil {
		t.Fatal(err)
	}

	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("fixture unexpectedly type-checks: the removed-API scenario is gone")
	}
	diags, err := Run(pkg, []*Analyzer{DeprecatedAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3 {
		t.Fatalf("diagnostics = %d, want 3: %v", len(diags), diags)
	}
	remaining, applied, err := ApplyFixes(pkg.Fset, diags)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 || len(remaining) != 0 {
		t.Fatalf("applied = %d remaining = %d, want 3/0", applied, len(remaining))
	}

	fixed, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.Unchecked()[0]", "m.UncheckedRow(0)[0]", "rep.Stats.Footprint"} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed file missing %q:\n%s", want, fixed)
		}
	}

	// A fresh load of the rewritten file must type-check and be clean.
	loader2, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := loader2.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg2.TypeErrors) != 0 {
		t.Fatalf("rewritten fixture has type errors: %v", pkg2.TypeErrors)
	}
	diags2, err := Run(pkg2, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags2) != 0 {
		t.Fatalf("rewritten fixture still has findings: %v", diags2)
	}
}

// TestApplyFixesEngineScoped round-trips the Engine-idiom rule: the
// fixture compiles against the current API, the fixes swap each
// constructor for its Ctx-scoped form and the Engine argument for the
// enclosing function's Ctx parameter, and the result type-checks and
// re-analyzes clean.
func TestApplyFixesEngineScoped(t *testing.T) {
	src, err := os.ReadFile("testdata/deprecated/enginescoped/old.go")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "old.go")
	if err := os.WriteFile(target, src, 0o644); err != nil {
		t.Fatal(err)
	}

	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
	}
	diags, err := Run(pkg, []*Analyzer{DeprecatedAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 7 {
		t.Fatalf("diagnostics = %d, want 7: %v", len(diags), diags)
	}
	remaining, applied, err := ApplyFixes(pkg.Fset, diags)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 7 || len(remaining) != 0 {
		t.Fatalf("applied = %d remaining = %d, want 7/0", applied, len(remaining))
	}

	fixed, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spd3.NewArrayIn[int](c, "a", 8)`,
		`spd3.NewMatrixIn[float64](c, "m", 2, 2)`,
		`spd3.NewVarIn(c, "v", 0)`,
		`spd3.NewListIn[int](c, "l")`,
		`spd3.NewMapIn[string, int](c, "mp")`,
		`spd3.NewMutexIn(c)`,
		`spd3.NewVarIn(c, "inner", i)`,
		`spd3.NewArray[int](eng, "pre", 4)`,  // pre-run allocation untouched
		`spd3.NewArray[int](eng, "fill", 2)`, // nested plain closure untouched
	} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed file missing %q:\n%s", want, fixed)
		}
	}
	checkCleanReload(t, dir)
}

// checkCleanReload asserts that the rewritten fixture in dir
// type-checks and re-analyzes to zero findings.
func checkCleanReload(t *testing.T, dir string) {
	t.Helper()

	loader2, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := loader2.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg2.TypeErrors) != 0 {
		t.Fatalf("rewritten fixture has type errors: %v", pkg2.TypeErrors)
	}
	diags2, err := Run(pkg2, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags2) != 0 {
		t.Fatalf("rewritten fixture still has findings: %v", diags2)
	}
}
