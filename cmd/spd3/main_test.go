package main

import (
	"bytes"
	"strings"
	"testing"

	"spd3/internal/bench"
	"spd3/internal/task"
)

// TestWorkloadPrintsRegionRows: -workload profiles the program through a
// detector-less session; its output must keep the spawn count on the
// summary line and one traffic row per instrumented region.
func TestWorkloadPrintsRegionRows(t *testing.T) {
	b, err := bench.ByName("Crypt")
	if err != nil {
		t.Fatal(err)
	}
	var regions []string
	run := func(rt *task.Runtime, in bench.Input) (float64, error) {
		sum, err := b.Run(rt, in)
		for _, r := range rt.Stats().Snapshot().Regions {
			regions = append(regions, r.Name)
		}
		return sum, err
	}
	var out bytes.Buffer
	if err := profileWorkload(&out, run, 2, bench.Input{Scale: 0.05}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(regions) == 0 || len(lines) != 2+len(regions) {
		t.Fatalf("%d output lines for %d regions:\n%s", len(lines), len(regions), &out)
	}
	if !strings.HasPrefix(lines[0], "workload  : tasks spawned ") || strings.Contains(lines[0], "spawned 0,") {
		t.Errorf("summary line = %q", lines[0])
	}
	for i, name := range regions {
		if f := strings.Fields(lines[2+i]); len(f) != 7 || f[0] != name || f[3] == "0" && f[5] == "0" {
			t.Errorf("region %s: row %q", name, lines[2+i])
		}
	}
}
