package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package: the unit an analyzer
// pass runs over.
type Package struct {
	// Path is the package's import path ("spd3/internal/mem"), or a
	// directory-derived pseudo-path for packages outside the module's
	// build graph (golden-test fixtures under testdata).
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Src holds the bytes each file was parsed from, by filename. Tools
	// that edit source start from these, never from a second read.
	Src   map[string][]byte
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds any type-check errors. Loading is tolerant:
	// analyzers run on best-effort type information, and the tools that
	// rewrite source (rewrite.Rewrite, spd3inst) refuse a package with
	// type errors.
	TypeErrors []error
}

// A Loader parses and type-checks packages from source. In-module
// import paths resolve by directory mapping under the module root;
// everything else (the standard library) goes through the stdlib source
// importer. Loaded packages are cached, so a dependency shared by many
// targets type-checks once.
type Loader struct {
	Fset    *token.FileSet
	modRoot string
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path, including dependencies
	loading map[string]bool     // cycle detection
}

// NewLoader returns a loader rooted at the module containing dir (or
// any ancestor of it holding a go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		Fset:    fset,
		modRoot: root,
		modPath: path,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// findModule walks upward from dir to the nearest go.mod and returns
// the module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		d = parent
	}
}

// Load resolves patterns — directories, or dir/... walks — to package
// directories and loads each. Walked patterns skip testdata, hidden,
// and underscore-prefixed directories (matching the go tool); naming a
// directory explicitly always loads it, which is how the golden tests
// reach fixtures under testdata.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if base == "." || base == "" {
				base = "."
			}
			walked, err := walkPackageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
			continue
		}
		add(pat)
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("analysis: no packages match %v", patterns)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// walkPackageDirs returns every directory under root containing .go
// files, skipping testdata and hidden/underscore directories.
func walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// LoadDir loads the package in dir, or nil when the directory holds no
// non-test Go files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(l.importPathFor(abs), abs)
}

// importPathFor derives an import path for a directory: the module-
// relative path when the directory is inside the module, otherwise the
// directory itself (a pseudo-path; such packages cannot be imported by
// others, only analyzed).
func (l *Loader) importPathFor(abs string) string {
	if rel, err := filepath.Rel(l.modRoot, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return abs
}

// Import implements types.Importer over the loader: in-module paths
// load from source by directory mapping; "unsafe" is built in; all
// other paths (the standard library) go to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	switch {
	case path == "unsafe":
		return types.Unsafe, nil
	case path == l.modPath || strings.HasPrefix(path, l.modPath+"/"):
		dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		return pkg.Types, nil
	default:
		return l.std.ImportFrom(path, l.modRoot, 0)
	}
}

// load parses and type-checks the package in dir under import path
// path, returning the cached result on repeat calls and nil when the
// directory has no non-test Go files.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	sort.Strings(names)
	if len(names) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	src := make(map[string][]byte, len(names))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		f, err := parser.ParseFile(l.Fset, name, data, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
		src[name] = data
	}

	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Src:   src,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns an error on any type error; the collected
	// pkg.TypeErrors carry the detail and analysis proceeds best-effort.
	tpkg, _ := conf.Check(path, l.Fset, files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}
