package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoaderResolvesModulePackages(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("../mem")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "spd3/internal/mem" {
		t.Errorf("import path = %q, want spd3/internal/mem", pkg.Path)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors in internal/mem: %v", pkg.TypeErrors)
	}
	if pkg.Types == nil || pkg.Types.Scope().Lookup("Array") == nil {
		t.Error("mem.Array not in package scope")
	}
}

func TestLoaderPatternWalkSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 4 {
		t.Fatalf("loaded %d packages under internal/analysis, want 4 (analysis + atest + checkelim + rewrite, testdata skipped)", len(pkgs))
	}
	if pkgs[0].Path != "spd3/internal/analysis" {
		t.Errorf("path = %q", pkgs[0].Path)
	}
	for _, p := range pkgs {
		if strings.Contains(p.Dir, "testdata") {
			t.Errorf("pattern walk descended into %s", p.Dir)
		}
	}
}

func TestLoaderSharesDependencyAcrossTargets(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	a, err := loader.LoadDir("testdata/unchecked/bad")
	if err != nil {
		t.Fatal(err)
	}
	b, err := loader.LoadDir("testdata/ctxescape/bad")
	if err != nil {
		t.Fatal(err)
	}
	// Both fixtures import the root package; the loader must hand both
	// the same types.Package so cross-package identity checks hold.
	find := func(p *Package) any {
		for _, imp := range p.Types.Imports() {
			if imp.Path() == "spd3" {
				return imp
			}
		}
		return nil
	}
	if ia, ib := find(a), find(b); ia == nil || ia != ib {
		t.Errorf("spd3 imported as distinct packages: %v vs %v", ia, ib)
	}
}

func TestLoaderUnknownDir(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadDir("testdata/nonexistent"); err == nil {
		t.Error("expected error for missing directory")
	}
}

// TestLoaderToleratesTypeErrors: a package that does not type-check
// still loads, with its errors on the package, and the suite runs on it.
func TestLoaderToleratesTypeErrors(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nimport \"spd3\"\n\nvar _ = spd3.NoSuchName\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
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
		t.Fatal("no type error recorded for an undefined selector")
	}
	if _, err := Run(pkg, All()); err != nil {
		t.Errorf("suite refused a package with type errors: %v", err)
	}
}
