package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"spd3/internal/analysis"
)

const (
	fixtures = "../../internal/analysis/testdata"
	// dup is a checkelim fixture: seven findings, one of them nested
	// inside another's rewrite.
	dup = "../../internal/analysis/checkelim/testdata/dup"
)

func TestDriverExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		exit int
	}{
		{"known-bad fixture", []string{fixtures + "/unchecked/bad"}, 1},
		{"safe fixture", []string{fixtures + "/unchecked/safe"}, 0},
		{"unknown analyzer", []string{"-analyzers", "nope", "."}, 2},
		{"missing dir", []string{fixtures + "/does-not-exist"}, 2},
		{"list", []string{"-list"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if got := run(tc.args, &out, &errOut); got != tc.exit {
				t.Errorf("run(%v) = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					tc.args, got, tc.exit, out.String(), errOut.String())
			}
		})
	}
}

// TestDriverPositionAccurate pins the acceptance criterion: a known-bad
// fixture (an Unchecked slice captured by a spawned task) makes the
// driver exit non-zero with a file:line:col-accurate diagnostic.
func TestDriverPositionAccurate(t *testing.T) {
	var out, errOut strings.Builder
	if got := run([]string{"-analyzers", "unchecked", fixtures + "/unchecked/bad"}, &out, &errOut); got != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", got, errOut.String())
	}
	if !regexp.MustCompile(`bad\.go:15:4: uninstrumented data "raw"`).MatchString(out.String()) {
		t.Errorf("missing position-accurate diagnostic in:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "finding(s)") {
		t.Errorf("missing summary on stderr: %q", errOut.String())
	}
}

func TestDriverJSONEnvelope(t *testing.T) {
	var out, errOut strings.Builder
	if got := run([]string{"-json", "-analyzers", "checkelim", dup}, &out, &errOut); got != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", got, errOut.String())
	}
	var rep analysis.JSONReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Tool != "spd3vet" || rep.Version != analysis.Version || len(rep.Findings) != 7 {
		t.Errorf("envelope = %q/%q with %d findings, want spd3vet/%s with 7",
			rep.Tool, rep.Version, len(rep.Findings), analysis.Version)
	}

	// A clean target still emits the envelope, with an empty findings
	// array, and exits 0.
	out.Reset()
	if got := run([]string{"-json", fixtures + "/unchecked/safe"}, &out, &errOut); got != 0 {
		t.Fatalf("exit = %d on clean target, want 0", got)
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil || rep.Findings == nil || len(rep.Findings) != 0 {
		t.Errorf("clean envelope = %s (err %v), want empty findings array", out.String(), err)
	}
}

func TestDriverFix(t *testing.T) {
	src, err := os.ReadFile(dup + "/dup.go")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "dup.go")
	if err := os.WriteFile(target, src, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if got := run([]string{"-analyzers", "checkelim", "-fix", dir}, &out, &errOut); got != 0 {
		t.Fatalf("exit = %d, want 0 (all findings fixable); stdout:\n%s\nstderr:\n%s",
			got, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "applied 7 fix(es)") {
		t.Errorf("stderr = %q, want applied 7 fix(es)", errOut.String())
	}
	fixed, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(fixed), ".Unchecked"); n != 7 {
		t.Errorf("%d sites rewritten, want all 7:\n%s", n, fixed)
	}
	// Second runs over the rewritten source, under checkelim and the
	// default suite, are clean.
	for _, args := range [][]string{{"-analyzers", "checkelim", dir}, {dir}} {
		if got := run(args, &out, &errOut); got != 0 {
			t.Errorf("exit after fix of %v = %d, want 0", args, got)
		}
	}
}

// TestDriverDogfood runs the full suite over this repository, which
// must stay vet-clean: the CI gate runs exactly this.
func TestDriverDogfood(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	var out, errOut strings.Builder
	if got := run([]string{"../../..."}, &out, &errOut); got != 0 {
		t.Errorf("spd3vet is not clean on its own repo (exit %d):\n%s%s", got, out.String(), errOut.String())
	}
}
