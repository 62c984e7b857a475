// Command benchmark is the repository's one performance instrument: it
// measures the two paths users take — an instrumented program under
// spd3.Engine, and a recorded trace through the real cmd/spd3d binary —
// on five fixed workloads, prints every metric of BENCHMARK.json by name
// with its unit, and checks every output it times.
//
//	go run ./benchmark                      # all workloads, untraced then traced pass
//	go run ./benchmark -workload engine_stencil -seed 7 -trace 0
//	go run ./benchmark -aa                  # untraced pass twice, compared against the bounds
//
// The untraced pass yields the end-to-end metrics; the traced pass
// yields the per-layer ones. See README.md in this directory for the
// glossary and for which layer metric is expected to move which
// end-to-end metric on which workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

type workload struct {
	name string
	why  string
}

// workloads are fixed by name; later issues cite them.
var workloads = []workload{
	{"engine_stencil", "dense red-black stencil: sequential indices, publish-heavy shadow words, the check path does most of the work"},
	{"engine_gather", "seeded sparse gather: scattered indices defeat the page cache, read-shared cells, the DPST outweighs the shadow"},
	{"engine_spawn", "Cilk-style fib: a quarter of a million tiny tasks on a deep tree, spawn and DPST insertion dominate, few checks"},
	{"daemon_jobs", "many small warm /v2 jobs whose segments are all store dedup hits: fixed per-job cost and replay are the latency"},
	{"daemon_stream", "few large cold /v1 uploads of never-seen amplified traces: limiter, splitter, store writes and shard replay in series"},
}

// config is one invocation's settings, shared by every pass.
type config struct {
	root      string // the checkout: the directory holding go.mod
	daemonBin string
	nproc     int
	seed      uint64
	quick     bool
	inject    string
	duration  time.Duration

	setupReps    int
	minSamples   int // engine iterations per timing
	minJobs      int // daemon_jobs operations
	minUploads   int // daemon_stream uploads
	streamBytes  int // size of one amplified upload
	ladderReps   int
	overheadReps int
	directReps   int
	overshootN   int // jobs in the WaitJob-overshoot sub-sample

	cal *calibrator // the machine-speed probe, shared by every pass

	mu      sync.Mutex
	daemons map[*daemon]struct{} // running children, for the exit paths
}

func (c *config) track(d *daemon) {
	c.mu.Lock()
	c.daemons[d] = struct{}{}
	c.mu.Unlock()
}

func (c *config) untrack(d *daemon) {
	c.mu.Lock()
	delete(c.daemons, d)
	c.mu.Unlock()
}

// stopAll is the exit path of last resort (signal, fatal error): stop
// every child still running and remove its directory.
func (c *config) stopAll() {
	c.mu.Lock()
	var ds []*daemon
	for d := range c.daemons {
		ds = append(ds, d)
	}
	c.mu.Unlock()
	for _, d := range ds {
		d.stop(c)
	}
}

// findRoot walks up from the working directory to the one holding
// go.mod: the checkout root under `go run ./benchmark`, the parent
// directory under `go test`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

func isDaemon(name string) bool { return name == "daemon_jobs" || name == "daemon_stream" }

func runUntraced(name string, cfg *config) *result {
	switch name {
	case "daemon_jobs":
		return runJobsUntraced(cfg)
	case "daemon_stream":
		return runStreamUntraced(cfg)
	}
	return runEngineUntraced(name, cfg)
}

func runTraced(name string, cfg *config, tr *tracer) *result {
	switch name {
	case "daemon_jobs":
		return runJobsTraced(cfg, tr)
	case "daemon_stream":
		return runStreamTraced(cfg, tr)
	}
	return runEngineTraced(name, cfg, tr)
}

// compareAA prints the relative difference of each end-to-end metric
// between two untraced passes of the same build and reports whether all
// stayed within their bounds.
func compareAA(w io.Writer, a, b *result) bool {
	ok := true
	fmt.Fprintf(w, "== %s A/A\n", a.workload)
	for _, d := range endToEnd {
		va, vb := a.metrics[d.Name], b.metrics[d.Name]
		worse := (vb - va) / va // positive = second run worse, for "lower is better"
		if d.Better == "higher" {
			worse = -worse
		}
		verdict := "within"
		if worse > d.Bound || -worse > d.Bound {
			verdict, ok = "EXCEEDS", false
		}
		fmt.Fprintf(w, "%-18s %14.6g %14.6g %s  diff %+.2f%%  %s bound %.0f%%\n", d.Name, va, vb, d.Unit, 100*worse, verdict, 100*d.Bound)
	}
	return ok
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadF = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 12, "length of each measured loop in seconds")
		traceF    = fs.String("trace", "", "0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics), empty = both")
		quick     = fs.Bool("quick", false, "tiny inputs and few iterations: an end-to-end smoke run, not a measurement")
		aa        = fs.Bool("aa", false, "run the untraced pass twice and fail if any end-to-end metric differs by more than its bound")
		traceOut  = fs.String("trace-out", "", "write the traced pass's spans to this file as JSON")
		jsonOnly  = fs.Bool("json", false, "print only the one-line JSON result of each pass")
		inject    = fs.String("inject", "", "force a failure to show the gates bite: checksum or twin")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceF != "" && *traceF != "0" && *traceF != "1" {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if *inject != "" && *inject != "checksum" && *inject != "twin" {
		fmt.Fprintln(os.Stderr, "benchmark: -inject takes checksum or twin")
		return 2
	}
	var selected []string
	for _, w := range workloads {
		if *workloadF == "all" || *workloadF == w.name {
			selected = append(selected, w.name)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadF)
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg := &config{
		root: root, nproc: runtime.NumCPU(), seed: *seed, quick: *quick, inject: *inject,
		duration:  time.Duration(*seconds * float64(time.Second)),
		setupReps: 3, minSamples: 11, minJobs: 200, minUploads: 5, streamBytes: 48 * mib,
		ladderReps: 5, overheadReps: 3, directReps: 5, overshootN: 100,
		daemons: map[*daemon]struct{}{},
	}
	if cfg.quick {
		cfg.duration = 0
		cfg.setupReps, cfg.minSamples, cfg.minJobs, cfg.minUploads, cfg.streamBytes = 1, 2, 16, 2, 256<<10
		cfg.ladderReps, cfg.overheadReps, cfg.directReps, cfg.overshootN = 1, 1, 1, 4
	}

	if cfg.cal, err = newCalibrator(cfg.nproc); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer cfg.cal.close()

	human := stdout
	if *jsonOnly {
		human = io.Discard
	}
	needDaemon := false
	for _, name := range selected {
		needDaemon = needDaemon || isDaemon(name)
	}
	if needDaemon {
		if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		bin, buildS, err := buildDaemon(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		cfg.daemonBin = bin
		fmt.Fprintf(human, "build_s %.3f s (cmd/spd3d, not part of setup_s)\n", buildS)
	}

	// A signal must not leave a daemon or its store behind.
	sigc, finished := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigc:
			cfg.stopAll()
			os.Exit(130)
		case <-finished:
		}
	}()
	defer func() {
		signal.Stop(sigc)
		close(finished)
		cfg.stopAll()
	}()

	emit := func(r *result) bool {
		r.printHuman(human)
		fmt.Fprintln(stdout, r.jsonLine())
		return r.failed == 0 && r.attempted > 0
	}
	ok := true
	if *aa {
		for _, name := range selected {
			a, b := runUntraced(name, cfg), runUntraced(name, cfg)
			ok = emit(a) && ok
			ok = emit(b) && ok
			ok = compareAA(stdout, a, b) && ok
		}
	} else {
		if *traceF != "1" {
			for _, name := range selected {
				ok = emit(runUntraced(name, cfg)) && ok
			}
		}
		if *traceF != "0" {
			tr := newTracer()
			for _, name := range selected {
				ok = emit(runTraced(name, cfg, tr)) && ok
			}
			if *traceOut != "" {
				if err := tr.writeFile(*traceOut); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					ok = false
				}
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}
