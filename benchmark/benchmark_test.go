package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"spd3"
)

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesSource holds BENCHMARK.json and the tables in
// the source to each other, and both to the contract's limits.
func TestBenchmarkJSONMatchesSource(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in source", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %+v", i, b.Workloads[i], w)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the contract's limits", w.name)
		}
	}
	seen := map[string]bool{}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in source", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound", kind, d.Name)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %s breaks the contract's limits", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("name %s used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the contract requires setup_s in s, lower is better")
	}
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runLines(t *testing.T, args ...string) (int, []resultLine) {
	t.Helper()
	var out bytes.Buffer
	code := run(append([]string{"-json"}, args...), &out)
	var lines []resultLine
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var r resultLine
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		lines = append(lines, r)
	}
	return code, lines
}

// TestQuickAllWorkloads runs all five workloads end to end at the -quick
// scale, daemon child included, through both passes, and checks that
// each result line carries exactly the metrics BENCHMARK.json names.
func TestQuickAllWorkloads(t *testing.T) {
	code, lines := runLines(t, "-quick")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if len(lines) != 2*len(workloads) {
		t.Fatalf("%d result lines, want %d", len(lines), 2*len(workloads))
	}
	for i, r := range lines {
		defs := endToEnd
		if i >= len(workloads) {
			defs = perLayer
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("line %d: correct=%v attempted=%d failed=%d", i, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("line %d: %d metrics, want %d", i, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("line %d: metric %s missing or unit %q != %q", i, d.Name, m.Unit, d.Unit)
			}
			if i < len(workloads) && m.Value <= 0 {
				t.Errorf("line %d: end-to-end metric %s is %v, must never be 0", i, d.Name, m.Value)
			}
		}
	}
}

// TestInjectedFaultsFail removes a racy twin's race, then forces a wrong
// checksum: either must fail the run with failed > 0.
func TestInjectedFaultsFail(t *testing.T) {
	for _, inject := range []string{"twin", "checksum"} {
		code, lines := runLines(t, "-quick", "-workload", "engine_gather", "-trace", "0", "-inject", inject)
		if code == 0 || len(lines) != 1 || lines[0].Correct || lines[0].Failed == 0 {
			t.Errorf("-inject %s: exit %d, %+v", inject, code, lines)
		}
	}
}

// TestChecksumsAgree compares, per kernel, the sequential raw-slice
// checksum with the plain-slice task form and the instrumented form.
func TestChecksumsAgree(t *testing.T) {
	for _, w := range workloads[:3] {
		in := newEngineInput(w.name, 3, true)
		ref := in.full.rawSeq()
		for _, det := range []spd3.Detector{spd3.None, spd3.SPD3} {
			eng, err := spd3.New(spd3.Options{Detector: det, Workers: runtime.NumCPU()})
			if err != nil {
				t.Fatal(err)
			}
			if sum, _, err := in.full.rawTask(host{eng: eng}); err != nil || sum != ref {
				t.Errorf("%s rawTask under %s: %#x (err %v), want %#x", w.name, det, sum, err, ref)
			}
			eng, err = spd3.New(spd3.Options{Detector: det, Workers: runtime.NumCPU()})
			if err != nil {
				t.Fatal(err)
			}
			sum, rep, err := in.full.inst(host{eng: eng}, fault{})
			if err != nil || sum != ref || !rep.RaceFree() {
				t.Errorf("%s inst under %s: %#x (err %v, %d races), want %#x", w.name, det, sum, err, len(rep.Races), ref)
			}
		}
	}
}

// TestSeedMovesInputs: one seed always gives the same inputs, another
// seed gives other gather columns and other trace bytes.
func TestSeedMovesInputs(t *testing.T) {
	a, a2, b := newGather(64, 16, 1, 1), newGather(64, 16, 1, 1), newGather(64, 16, 1, 2)
	if !reflect.DeepEqual(a.cols, a2.cols) || reflect.DeepEqual(a.cols, b.cols) {
		t.Errorf("gather columns: same seed equal=%v, other seed equal=%v", reflect.DeepEqual(a.cols, a2.cols), reflect.DeepEqual(a.cols, b.cols))
	}
	for _, racy := range []bool{false, true} {
		ta, err1 := traceVariant(1, racy, 1, true)
		ta2, err2 := traceVariant(1, racy, 1, true)
		tb, err3 := traceVariant(1, racy, 2, true)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		if !bytes.Equal(ta.data, ta2.data) || bytes.Equal(ta.data, tb.data) {
			t.Errorf("trace bytes (racy=%v): same seed equal=%v, other seed equal=%v", racy, bytes.Equal(ta.data, ta2.data), bytes.Equal(ta.data, tb.data))
		}
	}
}
