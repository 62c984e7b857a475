package rewrite

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spd3/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the .golden files")

// load loads the package in dir through a fresh loader.
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
	if pkg == nil {
		t.Fatalf("no Go files in %s", dir)
	}
	return pkg
}

// TestGolden pins the full rewritten output for one fixture per
// construct family. Each fixture is a single main.go; the expected
// output lives next to it as main.go.golden (refresh with -update).
func TestGolden(t *testing.T) {
	for _, name := range []string{"array", "matrix", "mapmutex", "skips", "localstruct", "taskscoped"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			pkg := load(t, dir)
			res, err := Rewrite(pkg)
			if err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(filepath.Join(dir, "main.go"))
			if err != nil {
				t.Fatal(err)
			}
			got, ok := res.Files[abs]
			if !ok {
				t.Fatalf("no rewrite produced for %s (rewritten=%v skips=%v)", abs, res.Rewritten, res.Skips)
			}
			golden := filepath.Join(dir, "main.go.golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("rewritten output differs from %s:\n--- got ---\n%s", golden, got)
			}
		})
	}
}

// TestSequentialUntouched: a run with no spawned tasks has no shared
// variables, so the rewriter proposes nothing at all.
func TestSequentialUntouched(t *testing.T) {
	pkg := load(t, filepath.Join("testdata", "sequential"))
	res, err := Rewrite(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != 0 || len(res.Rewritten) != 0 || len(res.Skips) != 0 {
		t.Errorf("sequential fixture changed: files=%d rewritten=%v skips=%v",
			len(res.Files), res.Rewritten, res.Skips)
	}
}

// TestSkipsReported pins the skip bookkeeping on the skips fixture: the
// escaping slice and the plain-closure scalar produce diagnostics and
// directive comments, the hand-opted variable stays silent, and no
// variable is rewritten.
func TestSkipsReported(t *testing.T) {
	pkg := load(t, filepath.Join("testdata", "skips"))
	res, err := Rewrite(pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rewritten) != 0 {
		t.Errorf("rewritten = %v, want none", res.Rewritten)
	}
	byVar := make(map[string]string)
	for _, s := range res.Skips {
		byVar[s.Var] = s.Reason
	}
	if len(byVar) != 2 {
		t.Fatalf("skips = %v, want exactly shared and lost", res.Skips)
	}
	if r := byVar["shared"]; !strings.Contains(r, "argument") {
		t.Errorf("shared skip reason = %q, want an argument-escape reason", r)
	}
	if r := byVar["lost"]; !strings.Contains(r, "without a task context") {
		t.Errorf("lost skip reason = %q, want a no-task-context reason", r)
	}
	if _, opted := byVar["opted"]; opted {
		t.Error("hand-opted variable produced a diagnostic")
	}
	for _, content := range res.Files {
		if n := strings.Count(string(content), Directive); n != 3 {
			t.Errorf("output carries %d directives, want 3 (1 hand-written + 2 emitted):\n%s", n, content)
		}
	}
}

// writeResult materializes a rewrite result (plus unchanged files) into
// a fresh directory and returns it.
func writeResult(t *testing.T, srcDir string, res *Result) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		abs, err := filepath.Abs(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		content, ok := res.Files[abs]
		if !ok {
			if content, err = os.ReadFile(abs); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRewriteRoundTrip: every rewritten fixture type-checks, passes the
// spd3vet suite, and re-rewrites to a fixed point (idempotence — the
// second pass sees containers and directives, not plain shared data).
func TestRewriteRoundTrip(t *testing.T) {
	for _, name := range []string{"array", "matrix", "mapmutex", "skips", "localstruct", "taskscoped"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			res, err := Rewrite(load(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			out := writeResult(t, dir, res)
			pkg2 := load(t, out)
			if len(pkg2.TypeErrors) != 0 {
				t.Fatalf("rewritten fixture has type errors: %v", pkg2.TypeErrors)
			}
			diags, err := analysis.Run(pkg2, analysis.All())
			if err != nil {
				t.Fatal(err)
			}
			diags, _ = analysis.Suppress(pkg2, diags)
			if len(diags) != 0 {
				t.Errorf("spd3vet findings on rewritten fixture: %v", diags)
			}
			res2, err := Rewrite(pkg2)
			if err != nil {
				t.Fatal(err)
			}
			if len(res2.Files) != 0 || len(res2.Skips) != 0 {
				t.Errorf("second rewrite not a fixed point: files=%d skips=%v", len(res2.Files), res2.Skips)
			}
		})
	}
}
