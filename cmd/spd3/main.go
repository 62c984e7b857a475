// Command spd3 runs one benchmark of the evaluation suite under a chosen
// race detector and reports time, memory, and any detected races.
//
// Usage:
//
//	spd3 -list
//	spd3 -bench Crypt -detector spd3 -workers 4
//	spd3 -bench LUFact -detector fasttrack -chunked -scale 2
//	spd3 -racy RacyMonteCarlo -detector spd3
//	spd3 -bench SOR -stats          # append the observability snapshot as JSON
//	spd3 -bench SOR -workload       # profile the workload itself (no detection)
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
	var (
		list      = flag.Bool("list", false, "list the benchmark suite and exit")
		name      = flag.String("bench", "", "benchmark name (see -list)")
		racy      = flag.String("racy", "", "run a deliberately racy variant (RacyMonteCarlo, BuggyBarrier)")
		detector  = flag.String("detector", "spd3", "one of: "+strings.Join(detect.Names(), " | "))
		workers   = flag.Int("workers", 4, "worker count (pool executor)")
		scale     = flag.Float64("scale", 1, "problem-size multiplier")
		chunked   = flag.Bool("chunked", false, "coarse one-chunk-per-worker loops")
		halt      = flag.Bool("halt", false, "stop checking after the first race (paper semantics)")
		record    = flag.String("record", "", "record the execution trace to this file instead of detecting (replay with -replay or POST to spd3d)")
		replay    = flag.String("replay", "", "replay a recorded trace into -detector instead of executing")
		statsDump = flag.Bool("stats", false, "append the run's observability snapshot as JSON")
		workload  = flag.Bool("workload", false, "print workload statistics (spawned tasks, per-region traffic) instead of detecting")
		smpSpec   = flag.String("sample", "", "check-sampling spec mode:rate (bernoulli:0.01, burst:0.02); empty or off checks everything")
		smpBudget = flag.String("overhead-budget", "", "sampling overhead budget (e.g. 5% or 0.05): a feedback loop adapts the rate online to hold it; empty freezes the rate")
	)
	flag.Parse()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Source\tBenchmark\tDescription")
		for _, b := range bench.All() {
			fmt.Fprintf(w, "%s\t%s %s\t%s\n", b.Source, b.Name, b.Args, b.Desc)
		}
		for _, rb := range bench.Racy() {
			fmt.Fprintf(w, "racy\t%s\t%s\n", rb.Name, rb.Desc)
		}
		w.Flush()
		return
	}

	run := func(rt *task.Runtime, in bench.Input) (float64, error) {
		if *racy != "" {
			for _, rb := range bench.Racy() {
				if rb.Name == *racy {
					return rb.Run(rt, in)
				}
			}
			return 0, fmt.Errorf("unknown racy variant %q", *racy)
		}
		b, err := bench.ByName(*name)
		if err != nil {
			return 0, err
		}
		return b.Run(rt, in)
	}
	if *name == "" && *racy == "" && *replay == "" {
		fmt.Fprintln(os.Stderr, "spd3: need -bench, -racy, -replay, or -list")
		flag.Usage()
		os.Exit(2)
	}

	if *workload {
		if err := profileWorkload(os.Stdout, run, *workers, bench.Input{Scale: *scale, Chunked: *chunked}); err != nil {
			fmt.Fprintln(os.Stderr, "spd3:", err)
			os.Exit(1)
		}
		return
	}

	detName := *detector
	if detName == "" {
		detName = "spd3"
	}
	budget, err := sample.ParseBudget(*smpBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spd3: -overhead-budget:", err)
		os.Exit(2)
	}
	smp, err := sample.Govern(*smpSpec, budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spd3: -sample:", err)
		os.Exit(2)
	}
	// A replay drives the detector from this goroutine alone: it is owned.
	ses, err := detect.Open(detName, detect.SessionOpts{Halt: *halt, Sampler: smp, Owned: *replay != ""})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spd3:", err)
		os.Exit(2)
	}
	det := ses.Det
	// report prints what follows a run or replay: the sampling state at
	// the rate the snapshot just adapted, the -stats dump, and the races.
	report := func(elapsed time.Duration) {
		snap := ses.Snapshot(elapsed)
		if smp != nil {
			fmt.Printf("sampling  : %s  rate: %.4f  checked: %d  skipped: %d\n",
				smp.Mode(), smp.Rate(), snap.Get(stats.SampleChecked), snap.Get(stats.SampleSkipped))
		}
		if *statsDump {
			printStats(snap)
		}
		printRaces(ses.Sink, ses.Det)
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spd3:", err)
			os.Exit(1)
		}
		defer f.Close()
		start := time.Now()
		if err := trace.ReplayWithLimits(f, det, ses.Rec, trace.DefaultLimits()); err != nil {
			// The typed trace errors let us say what went wrong with the
			// file instead of dumping a decoder position.
			switch {
			case errors.Is(err, trace.ErrBadMagic):
				fmt.Fprintf(os.Stderr, "spd3: %s is not an SPD3 trace (record one with -record)\n", *replay)
			case errors.Is(err, trace.ErrTruncated):
				fmt.Fprintf(os.Stderr, "spd3: %s is truncated — the recording was interrupted or the copy is partial (%v)\n", *replay, err)
			case errors.Is(err, trace.ErrSequentialOnly):
				fmt.Fprintf(os.Stderr, "spd3: detector %q only accepts depth-first traces; re-record with a sequential-only detector selected (e.g. -detector %s -record)\n", detName, detName)
			default:
				fmt.Fprintln(os.Stderr, "spd3:", err)
			}
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Printf("replayed  : %s into %s in %v\n", *replay, det.Name(), elapsed)
		report(elapsed)
		return
	}

	var rec *trace.Recorder
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spd3:", err)
			os.Exit(1)
		}
		defer f.Close()
		rec = trace.NewRecorder(f, detect.DepthFirst(det))
		det = rec
	}
	rt, err := task.New(task.Config{Executor: task.Auto, Workers: *workers, Detector: det, Stats: ses.Rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spd3:", err)
		os.Exit(1)
	}

	start := time.Now()
	sum, err := run(rt, bench.Input{Scale: *scale, Chunked: *chunked})
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spd3:", err)
		os.Exit(1)
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "spd3:", err)
			os.Exit(1)
		}
		fmt.Printf("recorded  : %s (checksum %g, %v)\n", *record, sum, elapsed)
		return
	}

	fmt.Printf("benchmark : %s%s\n", *name, *racy)
	fmt.Printf("detector  : %s  workers: %d  chunked: %v  scale: %g\n",
		det.Name(), *workers, *chunked, *scale)
	fmt.Printf("time      : %v\n", elapsed)
	fmt.Printf("checksum  : %g\n", sum)
	fp := det.Footprint()
	fmt.Printf("footprint : %.2f MB (shadow %.2f, tree %.2f, clocks %.2f, sets %.2f)\n",
		float64(fp.Total())/(1<<20), float64(fp.ShadowBytes)/(1<<20),
		float64(fp.TreeBytes)/(1<<20), float64(fp.ClockBytes)/(1<<20),
		float64(fp.SetBytes)/(1<<20))
	report(elapsed)
}

// profileWorkload runs the program under detector "none" — the
// containers still tally their traffic into the session's recorder —
// and prints the spawn count and one row per instrumented region: how
// many locations are monitored and how hot they are is what explains the
// per-benchmark slowdown spread of the paper's Figure 3.
func profileWorkload(w io.Writer, run func(*task.Runtime, bench.Input) (float64, error), workers int, in bench.Input) error {
	ses, err := detect.Open("none", detect.SessionOpts{})
	if err != nil {
		return err
	}
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: workers, Detector: ses.Det, Stats: ses.Rec})
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := run(rt, in); err != nil {
		return err
	}
	snap := ses.Snapshot(time.Since(start))
	fmt.Fprintf(w, "workload  : tasks spawned %d, reads %d, writes %d\n",
		snap.Get(stats.TaskSpawn), snap.Reads, snap.Writes)
	fmt.Fprintln(w, "regions   :")
	for _, r := range snap.Regions {
		fmt.Fprintf(w, "  %-22s %8d elems  %10d reads  %10d writes\n", r.Name, r.Elems, r.Reads, r.Writes)
	}
	return nil
}

// printStats dumps the merged observability snapshot as indented JSON.
func printStats(snap stats.Snapshot) {
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spd3:", err)
		os.Exit(1)
	}
	fmt.Printf("stats     :\n%s\n", out)
}

// printRaces reports the sink's races and exits non-zero when any were
// found. The all-schedules certification claim only holds for the
// detectors that are sound and precise per input on async/finish
// programs (SPD3, ESP-bags); FastTrack and Eraser verdicts cover the
// observed execution.
func printRaces(sink *detect.Sink, det detect.Detector) {
	races := sink.Races()
	if len(races) == 0 {
		switch det.Name() {
		case "spd3", "espbags":
			fmt.Println("races     : none (this input is certified race-free for all schedules)")
		default:
			fmt.Println("races     : none detected in this execution")
		}
		return
	}
	fmt.Printf("races     : %d distinct location(s)\n", len(races))
	for i, r := range races {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(races)-10)
			break
		}
		fmt.Printf("  %v\n", r)
	}
	os.Exit(1)
}
