// Command spd3vet statically checks programs written against the spd3
// API for uses that void the detector's soundness guarantee: escape-
// hatch data crossing spawn boundaries, task contexts escaping their
// task, and raw Go concurrency inside task bodies. It also carries the
// §5.5 checkelim optimizer as an opt-in analyzer: checks it proves
// redundant are reported as findings whose fixes (-fix) rewrite them to
// unchecked accesses under a //spd3opt:elided marker.
//
// Usage:
//
//	spd3vet ./...                      # analyze packages, exit 1 on findings
//	spd3vet -json ./...                # JSON envelope (tool, version, findings)
//	spd3vet -analyzers unchecked,rawconc ./internal/bench
//	spd3vet -analyzers checkelim -fix ./pkg   # elide provably redundant checks
//
// A finding can be suppressed with a justified directive on (or one
// line above) the flagged line:
//
//	//spd3vet:ignore <reason>
//
// Directives without a reason are themselves findings. Exit status: 0
// when clean, 1 on findings, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spd3/internal/analysis"
	_ "spd3/internal/analysis/checkelim" // register the checkelim analyzer
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spd3vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit findings as a JSON envelope (tool, version, findings)")
		fix       = fs.Bool("fix", false, "apply machine-applicable rewrites, then report what remains")
		analyzers = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list      = fs.Bool("list", false, "list the analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analysis.All()
	if *list {
		for _, a := range analysis.Registered() {
			tag := ""
			if a.OptIn {
				tag = " (opt-in: run with -analyzers)"
			}
			fmt.Fprintf(stdout, "%-12s %s%s\n", a.Name, a.Doc, tag)
		}
		return 0
	}
	if *analyzers != "" {
		var err error
		suite, err = analysis.ByName(strings.Split(*analyzers, ","))
		if err != nil {
			fmt.Fprintln(stderr, "spd3vet:", err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "spd3vet:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "spd3vet:", err)
		return 2
	}

	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, suite)
		if err != nil {
			fmt.Fprintln(stderr, "spd3vet:", err)
			return 2
		}
		diags, _ = analysis.Suppress(pkg, diags)
		all = append(all, diags...)
	}
	analysis.SortDiagnostics(loader.Fset, all)

	if *fix {
		remaining, applied, err := analysis.ApplyFixes(pkgs, all)
		if err != nil {
			fmt.Fprintln(stderr, "spd3vet:", err)
			return 2
		}
		if applied > 0 {
			fmt.Fprintf(stderr, "spd3vet: applied %d fix(es)\n", applied)
		}
		all = remaining
	}

	if *jsonOut {
		if err := analysis.WriteJSON(stdout, loader.Fset, all); err != nil {
			fmt.Fprintln(stderr, "spd3vet:", err)
			return 2
		}
	} else if err := analysis.WriteText(stdout, loader.Fset, all); err != nil {
		fmt.Fprintln(stderr, "spd3vet:", err)
		return 2
	}
	if len(all) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "spd3vet: %d finding(s)\n", len(all))
		}
		return 1
	}
	return 0
}
