// Command experiments regenerates the paper's tables and figures on the
// Go reproduction.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig3 -scale 2 -repeats 3 -threads 1,2,4,8,16
//	experiments -run stats -stats          # machine-readable counter dump
//	experiments -list
//
// Experiment IDs: table1, fig3, fig4, table2, table3, fig5, fig6,
// stats, ablation-sample.
//
// With -stats, the rendered tables are replaced by a JSON array with one
// element per measurement — {"benchmark", "tool", "workers", "stats"} —
// where "stats" is the observability snapshot of that measurement's best
// run (see internal/stats.Snapshot for the schema).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"spd3/internal/harness"
	"spd3/internal/stats"
)

// statsEntry is one element of the -stats JSON document.
type statsEntry struct {
	Benchmark string         `json:"benchmark"`
	Tool      string         `json:"tool"`
	Workers   int            `json:"workers"`
	Stats     stats.Snapshot `json:"stats"`
}

func main() {
	var (
		run      = flag.String("run", "all", "experiment id or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		scale    = flag.Float64("scale", 1, "problem-size multiplier")
		repeats  = flag.Int("repeats", 3, "runs per data point (smallest wins)")
		threads  = flag.String("threads", "1,2,4,8,16", "comma-separated worker sweep")
		format   = flag.String("format", "text", "output format: text | csv")
		emitJSON = flag.Bool("stats", false, "emit per-measurement observability snapshots as JSON instead of tables")
	)
	flag.Parse()

	var render harness.Format
	switch *format {
	case "text":
		render = harness.Text
	case "csv":
		render = harness.CSV
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	var sweep []int
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "experiments: bad -threads entry %q\n", part)
			os.Exit(2)
		}
		sweep = append(sweep, n)
	}
	cfg := harness.Config{
		Scale:   *scale,
		Repeats: *repeats,
		Threads: sweep,
	}

	var collected []statsEntry
	out := io.Writer(os.Stdout)
	if *emitJSON {
		cfg.OnStats = func(benchmark string, tool harness.Tool, workers int, s stats.Snapshot) {
			collected = append(collected, statsEntry{
				Benchmark: benchmark,
				Tool:      string(tool),
				Workers:   workers,
				Stats:     s,
			})
		}
		// The tables would interleave with the JSON document; drop them.
		out = io.Discard
	}

	var exps []harness.Experiment
	if *run == "all" {
		exps = harness.Experiments()
	} else {
		e, err := harness.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}
	for i, e := range exps {
		if i > 0 {
			fmt.Fprintln(out)
		}
		tbl, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := tbl.Render(out, render); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *emitJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}
