package checkelim_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spd3/internal/analysis"
	"spd3/internal/analysis/atest"
	"spd3/internal/analysis/checkelim"
)

func TestDupGolden(t *testing.T) {
	atest.RunGolden(t, "testdata/dup", checkelim.Analyzer)
}

func TestHoistGolden(t *testing.T) {
	atest.RunGolden(t, "testdata/hoist", checkelim.Analyzer)
}

// TestNoElideGolden: the fixture has no want annotations, so any
// diagnostic — any elision of a non-redundant check — fails.
func TestNoElideGolden(t *testing.T) {
	atest.RunGolden(t, "testdata/noelide", checkelim.Analyzer)
}

func load(t *testing.T, dir string) *analysis.Package {
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
		t.Fatalf("fixture %s has type errors: %v", dir, pkg.TypeErrors)
	}
	return pkg
}

// TestWriteDomDefault pins that a write-dominated read is kept and
// surfaces as a writedom skip.
func TestWriteDomDefault(t *testing.T) {
	pkg := load(t, "testdata/writedom")
	res, err := checkelim.Analyze(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Elisions); n != 0 {
		t.Errorf("elided %d accesses in the writedom fixture, want 0", n)
	}
	found := false
	for _, s := range res.Skips {
		if s.Rule == checkelim.RuleWriteDom && strings.Contains(s.Reason, "read after same-step write") {
			found = true
		}
	}
	if !found {
		t.Errorf("no writedom skip recorded; skips: %+v", res.Skips)
	}
}

// TestCounts pins per-rule counting and the skip reasons the corpus
// reports aggregate.
func TestCounts(t *testing.T) {
	pkg := load(t, "testdata/dup")
	res, err := checkelim.Analyze(pkg)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Counts()
	if counts["dup"] != 7 {
		t.Errorf("dup count = %d, want 7 (5 in pairs, 2 in nested)", counts["dup"])
	}
	if counts["hoist"] != 0 || counts["writedom"] != 0 {
		t.Errorf("unexpected non-dup elisions: %v", counts)
	}
	// The read-then-write pairs must be skips, not elisions.
	readWrite := 0
	for _, s := range res.Skips {
		if strings.Contains(s.Reason, "does not subsume a write check") {
			readWrite++
		}
	}
	if readWrite == 0 {
		t.Error("no read-does-not-subsume-write skip recorded")
	}

	pkg = load(t, "testdata/noelide")
	res, err = checkelim.Analyze(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Elisions) != 0 {
		t.Fatalf("noelide fixture produced elisions: %+v", res.Elisions)
	}
	wantReasons := []string{
		"invalidated by call to Async",
		"invalidated by call to Lock",
		"invalidated by reassignment of i",
		"invalidated by call to Update",
	}
	for _, want := range wantReasons {
		found := false
		for _, s := range res.Skips {
			found = found || strings.Contains(s.Reason, want)
		}
		if !found {
			t.Errorf("missing skip reason %q; got %+v", want, res.Skips)
		}
	}
}

// TestHoistCountsAndSkips pins rule-2 accounting on the hoist fixture.
func TestHoistCountsAndSkips(t *testing.T) {
	pkg := load(t, "testdata/hoist")
	res, err := checkelim.Analyze(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counts()["hoist"]; got != 2 {
		t.Errorf("hoist count = %d, want 2 (s.Get in dots, w.Get in relax)", got)
	}

	pkg = load(t, "testdata/noelide")
	res, err = checkelim.Analyze(pkg)
	if err != nil {
		t.Fatal(err)
	}
	// f.Get in the first varying loop is invariant but conditional-only.
	found := false
	for _, s := range res.Skips {
		if s.Rule == checkelim.RuleHoist && strings.Contains(s.Reason, "no unconditional occurrence") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing conditional-only hoist skip; got %+v", res.Skips)
	}
}

// roundTrip applies the fixes to a temp copy of dir and verifies the
// result type-checks, is clean under every registered analyzer
// (including unchecked, which must trust the elision markers), and is
// a fixed point of the eliminator.
func roundTrip(t *testing.T, dir string) {
	t.Helper()
	tmp, err := os.MkdirTemp("testdata", "fixtmp-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(tmp) })
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkg := load(t, tmp)
	res, err := checkelim.Analyze(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Elisions) == 0 {
		t.Fatal("fixture produced no elisions; round trip is vacuous")
	}
	if _, applied, err := analysis.ApplyFixes([]*analysis.Package{pkg}, res.Diags); err != nil || applied == 0 {
		t.Fatalf("ApplyFixes: applied=%d err=%v", applied, err)
	}

	pkg2 := load(t, tmp) // load() fails the test on type errors
	diags, err := analysis.Run(pkg2, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	diags, _ = analysis.Suppress(pkg2, diags)
	for _, d := range diags {
		t.Errorf("rewritten fixture not vet-clean: %s: %s [%s]",
			pkg2.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	res2, err := checkelim.Analyze(pkg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Elisions) != 0 {
		t.Errorf("not a fixed point: second pass elided %d more", len(res2.Elisions))
	}
}

func TestFixRoundTripDup(t *testing.T)   { roundTrip(t, "testdata/dup") }
func TestFixRoundTripHoist(t *testing.T) { roundTrip(t, "testdata/hoist") }
