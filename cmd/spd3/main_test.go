package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"spd3/internal/bench"
	"spd3/internal/detect"
	"spd3/internal/task"
)

// TestWorkloadPrintsRegionRows: the -workload printer keeps the spawn
// count on the summary line and one traffic row per instrumented region
// of a run under detector "none".
func TestWorkloadPrintsRegionRows(t *testing.T) {
	b, err := bench.ByName("Crypt")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := detect.Open("none", detect.SessionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := task.New(task.Config{Workers: 2, Detector: ses.Det, Stats: ses.Rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(rt, bench.Input{Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	snap := ses.Snapshot(time.Second)
	var out bytes.Buffer
	printWorkload(&out, snap)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(snap.Regions) == 0 || len(lines) != 2+len(snap.Regions) {
		t.Fatalf("%d output lines for %d regions:\n%s", len(lines), len(snap.Regions), &out)
	}
	if !strings.HasPrefix(lines[0], "workload  : tasks spawned ") || strings.Contains(lines[0], "spawned 0,") {
		t.Errorf("summary line = %q", lines[0])
	}
	for i, r := range snap.Regions {
		if f := strings.Fields(lines[2+i]); len(f) != 7 || f[0] != r.Name || f[3] == "0" && f[5] == "0" {
			t.Errorf("region %s: row %q", r.Name, lines[2+i])
		}
	}
}

// TestCLI drives the command end to end: its exit code, and lines its
// stdout or stderr must or must not hold. The racy runs use one worker:
// their races are real at the Go level too, and `go test -race` must not
// fail on the race the detector is asserted to report.
func TestCLI(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		code      int
		lines     int      // stdout line count, when > 0
		has       []string // substrings of stdout+stderr
		hasNot    []string
		stderrHas string
	}{
		{args: []string{"-list"}, lines: 1 + 18, has: []string{"Source    Benchmark", "racy      BarrierSOR"}},
		{args: []string{"-bench", "RacyMonteCarlo", "-scale", "0.2", "-workers", "1"}, code: 1,
			has: []string{"detector  : spd3", "write-write race on racymc.init[0]"}},
		{args: []string{"-bench", "BarrierSOR", "-detector", "espbags"}, code: 1,
			stderrHas: "deadlocks under the sequential executor"},
		{args: []string{"-bench", "RacyMonteCarlo", "-scale", "0.2", "-workers", "1", "-workload"},
			has: []string{"workload  : tasks spawned", "  racymc.results ", "  racymc.init "}, hasNot: []string{"races"}},
		{args: []string{"-bench", "SOR", "-scale", "0.2", "-detector", "none"},
			has: []string{"detector  : none", "races     : none detected"}},
		{args: []string{"-racy", "RacyMonteCarlo"}, code: 2},
		{args: []string{"-replay", "x.trc", "-workload"}, code: 2, stderrHas: "-workload needs a live run"},
		{args: []string{"-bench", "NoSuch"}, code: 1, stderrHas: `unknown benchmark "NoSuch"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			out := stdout.String() + stderr.String()
			if code != tc.code {
				t.Fatalf("exit %d, want %d:\n%s", code, tc.code, out)
			}
			if n := strings.Count(stdout.String(), "\n"); tc.lines > 0 && n != tc.lines {
				t.Errorf("%d stdout lines, want %d:\n%s", n, tc.lines, &stdout)
			}
			for _, s := range tc.has {
				if !strings.Contains(out, s) {
					t.Errorf("output lacks %q:\n%s", s, out)
				}
			}
			for _, s := range tc.hasNot {
				if strings.Contains(out, s) {
					t.Errorf("output has %q:\n%s", s, out)
				}
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderrHas, &stderr)
			}
		})
	}
}
