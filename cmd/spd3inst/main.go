// Command spd3inst rewrites plain Go programs that already use the
// spd3 task structure (Engine.Run, Ctx.Async/Finish/ParallelFor) but
// plain shared data into instrumented spd3 programs: shared slices
// become spd3.Array, [][]T becomes spd3.Matrix, scalars become
// spd3.Var, maps become spd3.Map, and sync.Mutex becomes spd3.Mutex.
// Task-local data is left alone, and variables the rewrite cannot
// handle soundly are annotated with a //spd3inst:skip directive and
// reported instead of silently half-instrumented.
//
// Usage:
//
//	spd3inst ./...          # report proposed rewrites, exit 1 if any
//	spd3inst -diff ./...    # unified diff of the proposed rewrites
//	spd3inst -w ./...       # rewrite files in place
//	spd3inst -o dir ./pkg   # write the full rewritten package into dir
//	spd3inst -json ./...    # machine-readable envelope
//
// A variable can be excluded by hand with a directive on (or one line
// above) its declaration:
//
//	//spd3inst:skip <reason>
//
// In -o mode the rewritten package is then optimized by the §5.5
// static check eliminator (internal/analysis/checkelim): checked
// accesses whose verdict is provably implied by an earlier same-step
// access are downgraded to unchecked forms under //spd3opt:elided
// markers, and the elided-site count is stamped into a generated
// zz_spd3opt.go so it surfaces in every Report.Stats as
// mem.checks_elided_static. -no-elide turns the post-pass off.
//
// Exit status: 0 when nothing needs rewriting (or after a successful
// -w/-o), 1 when rewrites are pending in report modes, 2 on usage or
// load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spd3/internal/analysis"
	"spd3/internal/analysis/checkelim"
	"spd3/internal/analysis/rewrite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// pkgResult pairs one loaded package with its rewrite outcome.
type pkgResult struct {
	pkg *analysis.Package
	res *rewrite.Result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spd3inst", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		diffOut = fs.Bool("diff", false, "print a unified diff of the proposed rewrites")
		write   = fs.Bool("w", false, "rewrite files in place")
		outDir  = fs.String("o", "", "write the full rewritten package (changed and unchanged files) into `dir`")
		jsonOut = fs.Bool("json", false, "emit the result as a JSON envelope")
		noElide = fs.Bool("no-elide", false, "disable the static check-elimination post-pass in -o mode")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	modes := 0
	for _, on := range []bool{*diffOut, *write, *outDir != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(stderr, "spd3inst: -diff, -w and -o are mutually exclusive")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "spd3inst:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "spd3inst:", err)
		return 2
	}
	if *outDir != "" && len(pkgs) != 1 {
		fmt.Fprintf(stderr, "spd3inst: -o needs exactly one package, got %d\n", len(pkgs))
		return 2
	}

	var results []pkgResult
	changed := 0
	for _, pkg := range pkgs {
		res, err := rewrite.Rewrite(pkg)
		if err != nil {
			fmt.Fprintln(stderr, "spd3inst:", err)
			return 2
		}
		changed += len(res.Files)
		results = append(results, pkgResult{pkg, res})
	}

	switch {
	case *write:
		files := make(map[string][]byte, changed)
		for _, pr := range results {
			maps.Copy(files, pr.res.Files)
		}
		if err := analysis.WriteFiles(files); err != nil {
			fmt.Fprintln(stderr, "spd3inst:", err)
			return 2
		}
		reportSkips(stderr, loader, results)
		if *jsonOut {
			return emitJSON(stdout, stderr, loader, results, 0, nil)
		}
		if changed > 0 {
			fmt.Fprintf(stderr, "spd3inst: rewrote %d file(s)\n", changed)
		}
		return 0

	case *outDir != "":
		pr := results[0]
		if err := writePackage(*outDir, pr.pkg, pr.res); err != nil {
			fmt.Fprintln(stderr, "spd3inst:", err)
			return 2
		}
		var elide *elideOutcome
		if !*noElide {
			elide, err = elidePackage(*outDir)
			if err != nil {
				fmt.Fprintln(stderr, "spd3inst:", err)
				return 2
			}
			if n := len(elide.res.Elisions); n > 0 {
				fmt.Fprintf(stderr, "spd3inst: statically elided %d redundant check(s)\n", n)
			}
		}
		reportSkips(stderr, loader, results)
		if *jsonOut {
			return emitJSON(stdout, stderr, loader, results, 0, elide)
		}
		return 0

	case *diffOut:
		for _, pr := range results {
			for _, name := range sortedFiles(pr.res) {
				fmt.Fprintf(stdout, "--- %s\n+++ %s\n", display(name), display(name))
				writeUnified(stdout, splitLines(string(pr.pkg.Src[name])), splitLines(string(pr.res.Files[name])))
			}
		}
		if changed > 0 {
			return 1
		}
		return 0

	default:
		if *jsonOut {
			code := 0
			if changed > 0 {
				code = 1
			}
			return emitJSON(stdout, stderr, loader, results, code, nil)
		}
		for _, pr := range results {
			for _, rw := range pr.res.Rewritten {
				fmt.Fprintf(stdout, "%s: rewrite %s -> spd3.%s %q\n",
					position(loader, rw.Pos), rw.Var, rw.Kind, rw.Container)
			}
			for _, sk := range pr.res.Skips {
				fmt.Fprintf(stdout, "%s: skip %s: %s\n", position(loader, sk.Pos), sk.Var, sk.Reason)
			}
		}
		if changed > 0 {
			fmt.Fprintf(stderr, "spd3inst: %d file(s) need rewriting (use -w or -diff)\n", changed)
			return 1
		}
		return 0
	}
}

// elideOutcome pairs the checkelim post-pass result with the file set
// that produced it (positions in the result belong to the post-pass
// loader over the output directory, not the driver's input loader).
type elideOutcome struct {
	res  *checkelim.Result
	fset *token.FileSet
}

// elidePackage runs the §5.5 static check eliminator over the freshly
// written output directory: it reloads the rewritten package, applies
// the default (digest-preserving) elision fixes in place, and stamps
// the elided-site count into a generated zz_spd3opt.go whose init
// registers it with the runtime (mem.checks_elided_static).
func elidePackage(dir string) (*elideOutcome, error) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, err
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	if len(pkg.TypeErrors) > 0 {
		return nil, fmt.Errorf("rewritten package does not type-check: %v", pkg.TypeErrors[0])
	}
	res, err := checkelim.Analyze(pkg)
	if err != nil {
		return nil, err
	}
	if n := len(res.Elisions); n > 0 {
		if _, _, err := analysis.ApplyFixes([]*analysis.Package{pkg}, res.Diags); err != nil {
			return nil, err
		}
		if err := stampElided(dir, pkg.Types.Name(), n); err != nil {
			return nil, err
		}
	}
	return &elideOutcome{res: res, fset: pkg.Fset}, nil
}

// stampElided writes the generated zz_spd3opt.go recording how many
// check sites the eliminator removed, so the optimized package reports
// the count at runtime through Report.Stats.
func stampElided(dir, pkgName string, n int) error {
	src := fmt.Sprintf(`// Code generated by spd3inst; DO NOT EDIT.

package %s

import "spd3"

// spd3optElidedStatic is the number of container access sites in this
// package whose dynamic race checks were removed at compile time by
// the §5.5 static check eliminator (//spd3opt:elided markers).
const spd3optElidedStatic = %d

func init() { spd3.RegisterStaticElided(spd3optElidedStatic) }
`, pkgName, n)
	return os.WriteFile(filepath.Join(dir, "zz_spd3opt.go"), []byte(src), 0o644)
}

// writePackage materializes the full rewritten package into dir:
// changed files from the result, unchanged ones from the loaded source,
// and the files the loader did not parse (tests) copied from disk.
func writePackage(dir string, pkg *analysis.Package, res *rewrite.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(pkg.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src := filepath.Join(pkg.Dir, e.Name())
		content, ok := res.Files[src]
		if !ok {
			content, ok = pkg.Src[src]
		}
		if !ok {
			if content, err = os.ReadFile(src); err != nil {
				return err
			}
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), content, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func reportSkips(stderr io.Writer, loader *analysis.Loader, results []pkgResult) {
	for _, pr := range results {
		for _, sk := range pr.res.Skips {
			fmt.Fprintf(stderr, "%s: skip %s: %s\n", position(loader, sk.Pos), sk.Var, sk.Reason)
		}
	}
}

// position renders a token.Pos as a cwd-relative file:line:col string.
func position(loader *analysis.Loader, pos token.Pos) string {
	p := loader.Fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", display(p.Filename), p.Line, p.Column)
}

func sortedFiles(res *rewrite.Result) []string {
	names := make([]string, 0, len(res.Files))
	for name := range res.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// display shortens an absolute filename to cwd-relative when possible.
func display(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return name
}

// jsonEnvelope is the -json output shape, mirroring spd3vet's envelope.
type jsonEnvelope struct {
	Tool     string        `json:"tool"`
	Version  string        `json:"version"`
	Packages []jsonPackage `json:"packages"`
}

type jsonPackage struct {
	Package   string          `json:"package"`
	Files     []string        `json:"files"`
	Rewritten []jsonRewritten `json:"rewritten"`
	Skips     []jsonSkip      `json:"skips"`
	// Elided counts the checks removed by the -o post-pass, per
	// checkelim rule ("dup", "hoist"); absent outside -o or with
	// -no-elide. ElideSkips are candidate accesses the eliminator
	// proved it could NOT remove, with the reason — the aggregate a
	// corpus sweep reads to see how much §5.5 buys and what blocks it.
	Elided     map[string]int  `json:"elided,omitempty"`
	ElideSkips []jsonElideSkip `json:"elide_skips,omitempty"`
}

type jsonRewritten struct {
	Var       string `json:"var"`
	Container string `json:"container"`
	Kind      string `json:"kind"`
	Pos       string `json:"pos"`
}

type jsonSkip struct {
	Var    string `json:"var"`
	Reason string `json:"reason"`
	Pos    string `json:"pos"`
}

type jsonElideSkip struct {
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
	Pos    string `json:"pos"`
}

func emitJSON(stdout, stderr io.Writer, loader *analysis.Loader, results []pkgResult, code int, elide *elideOutcome) int {
	env := jsonEnvelope{Tool: "spd3inst", Version: analysis.Version}
	for _, pr := range results {
		jp := jsonPackage{
			Package:   pr.res.Package,
			Files:     []string{},
			Rewritten: []jsonRewritten{},
			Skips:     []jsonSkip{},
		}
		for _, name := range sortedFiles(pr.res) {
			jp.Files = append(jp.Files, display(name))
		}
		for _, rw := range pr.res.Rewritten {
			jp.Rewritten = append(jp.Rewritten, jsonRewritten{
				Var: rw.Var, Container: rw.Container, Kind: rw.Kind,
				Pos: position(loader, rw.Pos),
			})
		}
		for _, sk := range pr.res.Skips {
			jp.Skips = append(jp.Skips, jsonSkip{
				Var: sk.Var, Reason: sk.Reason, Pos: position(loader, sk.Pos),
			})
		}
		// -o analyzes exactly one package; the post-pass outcome, when
		// present, belongs to it.
		if elide != nil {
			jp.Elided = elide.res.Counts()
			jp.ElideSkips = []jsonElideSkip{}
			for _, s := range elide.res.Skips {
				p := elide.fset.Position(s.Pos)
				jp.ElideSkips = append(jp.ElideSkips, jsonElideSkip{
					Rule:   string(s.Rule),
					Reason: s.Reason,
					Pos:    fmt.Sprintf("%s:%d:%d", display(p.Filename), p.Line, p.Column),
				})
			}
		}
		env.Packages = append(env.Packages, jp)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		fmt.Fprintln(stderr, "spd3inst:", err)
		return 2
	}
	return code
}
