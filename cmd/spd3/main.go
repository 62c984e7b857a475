// Command spd3 runs one program of the evaluation corpus — a Table 1
// benchmark or one of the racy programs, all listed by -list — under a
// chosen race detector and reports time, memory, and any detected races.
//
// Usage:
//
//	spd3 -list
//	spd3 -bench Crypt -detector spd3 -workers 4
//	spd3 -bench LUFact -detector fasttrack -chunked -scale 2
//	spd3 -bench RacyMonteCarlo -detector spd3
//	spd3 -bench SOR -stats          # append the observability snapshot as JSON
//	spd3 -bench SOR -workload       # the workload itself: a run under detector none
//
// Record once, analyze offline under several detectors:
//
//	spd3 -bench SOR -record sor.trc
//	spd3 -replay sor.trc -detector spd3
//	spd3 -replay sor.trc -detector fasttrack
//
// Recorded traces are also the unit of work of the spd3d analysis
// service: submit one to a running daemon instead of replaying locally,
// then fetch the job's result (see cmd/spd3d, and cmd/spd3load for
// service-level benchmarks):
//
//	curl -fsS --data-binary @sor.trc 'http://127.0.0.1:7331/v2/jobs?detector=all'
//	curl -fsS http://127.0.0.1:7331/v2/jobs/<job_id>/result
//
// Detectors come from the detect registry (see -detector's usage string
// for the current list).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"spd3/internal/bench"
	"spd3/internal/detect"
	_ "spd3/internal/detectors" // populate the detector registry
	"spd3/internal/sample"
	"spd3/internal/stats"
	"spd3/internal/task"
	"spd3/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spd3", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "list the benchmark suite and the racy programs, and exit")
		name      = fs.String("bench", "", "program name (see -list)")
		detector  = fs.String("detector", "spd3", "one of: "+strings.Join(detect.Names(), " | "))
		workers   = fs.Int("workers", 4, "worker count (pool executor)")
		scale     = fs.Float64("scale", 1, "problem-size multiplier")
		chunked   = fs.Bool("chunked", false, "coarse one-chunk-per-worker loops")
		halt      = fs.Bool("halt", false, "stop checking after the first race (paper semantics)")
		record    = fs.String("record", "", "record the execution trace to this file instead of detecting (replay with -replay or POST to spd3d)")
		replay    = fs.String("replay", "", "replay a recorded trace into -detector instead of executing")
		statsDump = fs.Bool("stats", false, "append the run's observability snapshot as JSON")
		workload  = fs.Bool("workload", false, "print workload statistics (spawned tasks, per-region traffic) instead of detecting")
		smpSpec   = fs.String("sample", "", "check-sampling spec mode:rate (bernoulli:0.01, burst:0.02); empty or off checks everything")
		smpBudget = fs.String("overhead-budget", "", "sampling overhead budget (e.g. 5% or 0.05): a feedback loop adapts the rate online to hold it; empty freezes the rate")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, a ...any) int {
		fmt.Fprintln(stderr, append([]any{"spd3:"}, a...)...)
		return code
	}

	if *list {
		w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Source\tBenchmark\tDescription")
		for _, b := range append(bench.All(), bench.Racy()...) {
			fmt.Fprintf(w, "%s\t%s\t%s\n", b.Source, strings.TrimSpace(b.Name+" "+b.Args), b.Desc)
		}
		w.Flush()
		return 0
	}
	if *name == "" && *replay == "" {
		fmt.Fprintln(stderr, "spd3: need -bench, -replay, or -list")
		fs.Usage()
		return 2
	}
	// The runtime and the containers count spawns and region traffic; a
	// replay runs neither, so its workload view would read all zeros.
	if *workload && *replay != "" {
		return fail(2, "-workload needs a live run (-bench), not -replay")
	}

	// -workload is a run under detector "none": the containers still
	// tally their traffic into the session's recorder.
	detName := *detector
	if *workload {
		detName = "none"
	}
	budget, err := sample.ParseBudget(*smpBudget)
	if err != nil {
		return fail(2, "-overhead-budget:", err)
	}
	smp, err := sample.Govern(*smpSpec, budget)
	if err != nil {
		return fail(2, "-sample:", err)
	}
	// A replay drives the detector from this goroutine alone: it is owned.
	ses, err := detect.Open(detName, detect.SessionOpts{Halt: *halt, Sampler: smp, Owned: *replay != ""})
	if err != nil {
		return fail(2, err)
	}
	det := ses.Det
	// report prints what follows a run or replay: the workload view, or
	// the sampling state at the rate the snapshot just adapted, the
	// -stats dump, and the races.
	report := func(elapsed time.Duration) int {
		snap := ses.Snapshot(elapsed)
		if *workload {
			printWorkload(stdout, snap)
			return 0
		}
		if smp != nil {
			fmt.Fprintf(stdout, "sampling  : %s  rate: %.4f  checked: %d  skipped: %d\n",
				smp.Mode(), smp.Rate(), snap.Get(stats.SampleChecked), snap.Get(stats.SampleSkipped))
		}
		if *statsDump {
			out, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				return fail(1, err)
			}
			fmt.Fprintf(stdout, "stats     :\n%s\n", out)
		}
		return printRaces(stdout, ses.Sink, ses.Det)
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		start := time.Now()
		if err := trace.ReplayWithLimits(f, det, ses.Rec, trace.DefaultLimits()); err != nil {
			// The typed trace errors let us say what went wrong with the
			// file instead of dumping a decoder position.
			switch {
			case errors.Is(err, trace.ErrBadMagic):
				fmt.Fprintf(stderr, "spd3: %s is not an SPD3 trace (record one with -record)\n", *replay)
			case errors.Is(err, trace.ErrTruncated):
				fmt.Fprintf(stderr, "spd3: %s is truncated — the recording was interrupted or the copy is partial (%v)\n", *replay, err)
			case errors.Is(err, trace.ErrSequentialOnly):
				fmt.Fprintf(stderr, "spd3: detector %q only accepts depth-first traces; re-record with a sequential-only detector selected (e.g. -detector %s -record)\n", detName, detName)
			default:
				fmt.Fprintln(stderr, "spd3:", err)
			}
			return 1
		}
		elapsed := time.Since(start)
		fmt.Fprintf(stdout, "replayed  : %s into %s in %v\n", *replay, det.Name(), elapsed)
		return report(elapsed)
	}

	b, err := bench.ByName(*name)
	if err != nil {
		return fail(1, err)
	}
	var rec *trace.Recorder
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		rec = trace.NewRecorder(f, detect.DepthFirst(det))
		det = rec
	}
	rt, err := task.New(task.Config{Executor: task.Auto, Workers: *workers, Detector: det, Stats: ses.Rec})
	if err != nil {
		return fail(1, err)
	}

	start := time.Now()
	sum, err := b.Run(rt, bench.Input{Scale: *scale, Chunked: *chunked})
	elapsed := time.Since(start)
	if err != nil {
		return fail(1, err)
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "recorded  : %s (checksum %g, %v)\n", *record, sum, elapsed)
		return 0
	}
	if !*workload {
		fmt.Fprintf(stdout, "benchmark : %s\n", b.Name)
		fmt.Fprintf(stdout, "detector  : %s  workers: %d  chunked: %v  scale: %g\n",
			det.Name(), *workers, *chunked, *scale)
		fmt.Fprintf(stdout, "time      : %v\n", elapsed)
		fmt.Fprintf(stdout, "checksum  : %g\n", sum)
		fp := det.Footprint()
		fmt.Fprintf(stdout, "footprint : %.2f MB (shadow %.2f, tree %.2f, clocks %.2f, sets %.2f)\n",
			float64(fp.Total())/(1<<20), float64(fp.ShadowBytes)/(1<<20),
			float64(fp.TreeBytes)/(1<<20), float64(fp.ClockBytes)/(1<<20),
			float64(fp.SetBytes)/(1<<20))
	}
	return report(elapsed)
}

// printWorkload prints a -workload run's snapshot: the spawn count and
// one row per instrumented region. How many locations are monitored and
// how hot they are is what explains the per-benchmark slowdown spread
// of the paper's Figure 3.
func printWorkload(w io.Writer, snap stats.Snapshot) {
	fmt.Fprintf(w, "workload  : tasks spawned %d, reads %d, writes %d\n",
		snap.Get(stats.TaskSpawn), snap.Reads, snap.Writes)
	fmt.Fprintln(w, "regions   :")
	for _, r := range snap.Regions {
		fmt.Fprintf(w, "  %-22s %8d elems  %10d reads  %10d writes\n", r.Name, r.Elems, r.Reads, r.Writes)
	}
}

// printRaces reports the sink's races and returns the exit code: 1 when
// any were found. The all-schedules certification claim only holds for
// the detectors that are sound and precise per input on async/finish
// programs (SPD3, ESP-bags); FastTrack and Eraser verdicts cover the
// observed execution.
func printRaces(w io.Writer, sink *detect.Sink, det detect.Detector) int {
	races := sink.Races()
	if len(races) == 0 {
		switch det.Name() {
		case "spd3", "espbags":
			fmt.Fprintln(w, "races     : none (this input is certified race-free for all schedules)")
		default:
			fmt.Fprintln(w, "races     : none detected in this execution")
		}
		return 0
	}
	fmt.Fprintf(w, "races     : %d distinct location(s)\n", len(races))
	for i, r := range races {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more\n", len(races)-10)
			break
		}
		fmt.Fprintf(w, "  %v\n", r)
	}
	return 1
}
