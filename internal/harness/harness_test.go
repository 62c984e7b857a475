package harness

import (
	"strings"
	"testing"

	"spd3/internal/bench"
)

// tinyCfg keeps the full experiment matrix fast in tests.
func tinyCfg() Config {
	return Config{Scale: 0.08, Repeats: 1, Threads: []int{1, 2}}
}

// TestEveryExperimentRuns executes every experiment end to end at a
// tiny scale and sanity-checks their tables.
func TestEveryExperimentRuns(t *testing.T) {
	wantTitle := map[string]string{
		"table1":          "Table 1",
		"fig3":            "Figure 3",
		"fig4":            "Figure 4",
		"table2":          "Table 2",
		"table3":          "Table 3",
		"fig5":            "Figure 5",
		"fig6":            "Figure 6",
		"stats":           "Observability counters",
		"ablation-sample": "Sampling ablation",
	}
	exps := Experiments()
	if len(exps) != len(wantTitle) {
		t.Fatalf("%d experiments, want %d", len(exps), len(wantTitle))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(tinyCfg())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(tbl.Title, wantTitle[e.ID]) {
				t.Errorf("title = %q, want prefix %q", tbl.Title, wantTitle[e.ID])
			}
			if len(tbl.Header) < 2 || len(tbl.Rows) < 2 {
				t.Errorf("suspiciously small table: %dx%d", len(tbl.Rows), len(tbl.Header))
			}
			for i, r := range tbl.Rows {
				if len(r) != len(tbl.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(r), len(tbl.Header))
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id must fail")
	}
}

// TestFig3RowsCoverSuite: fig3 must emit one row per benchmark plus the
// geomean.
func TestFig3RowsCoverSuite(t *testing.T) {
	tbl, err := fig3(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(bench.All()) + 1; len(tbl.Rows) != want {
		t.Fatalf("fig3 has %d rows, want %d", len(tbl.Rows), want)
	}
	names := map[string]bool{}
	for _, r := range tbl.Rows {
		names[r[0]] = true
	}
	for _, b := range bench.All() {
		if !names[b.Name] {
			t.Errorf("fig3 missing %s", b.Name)
		}
	}
	if !names["GeoMean"] {
		t.Error("fig3 missing GeoMean row")
	}
}

// TestFig6MemoryShape pins the headline memory shape at test scale:
// FastTrack's footprint must grow markedly with workers while SPD3's
// stays near-constant.
func TestFig6MemoryShape(t *testing.T) {
	// Scale must be large enough that per-location shadow state (O(n²)
	// for LUFact) dominates the DPST (O(n·workers) when chunked); at
	// real scales the gap is orders of magnitude (see EXPERIMENTS.md
	// fig6).
	cfg := Config{Scale: 0.4, Repeats: 1}
	b, err := bench.ByName("LUFact")
	if err != nil {
		t.Fatal(err)
	}
	in := bench.Input{Scale: cfg.Scale, Chunked: true}
	cfg = cfg.withDefaults()
	ft1, err := cfg.measure(b, FastTrack, 1, in)
	if err != nil {
		t.Fatal(err)
	}
	ft16, err := cfg.measure(b, FastTrack, 16, in)
	if err != nil {
		t.Fatal(err)
	}
	sp1, err := cfg.measure(b, SPD3, 1, in)
	if err != nil {
		t.Fatal(err)
	}
	sp16, err := cfg.measure(b, SPD3, 16, in)
	if err != nil {
		t.Fatal(err)
	}
	ftGrowth := float64(ft16.Footprint.Total()) / float64(ft1.Footprint.Total())
	spGrowth := float64(sp16.Footprint.Total()) / float64(sp1.Footprint.Total())
	if ftGrowth < 2 {
		t.Errorf("FastTrack memory growth 1->16 workers = %.2fx, want >= 2x", ftGrowth)
	}
	// SPD3's per-location state is constant; only the DPST grows (with
	// task count, which chunking ties to the worker count), so its
	// growth must stay well below FastTrack's.
	if spGrowth > ftGrowth/2 {
		t.Errorf("SPD3 memory growth %.2fx not clearly below FastTrack's %.2fx", spGrowth, ftGrowth)
	}
	if ft16.Footprint.Total() < 2*sp16.Footprint.Total() {
		t.Errorf("FastTrack (%d B) not clearly above SPD3 (%d B) at 16 workers",
			ft16.Footprint.Total(), sp16.Footprint.Total())
	}
}

func TestGeoMean(t *testing.T) {
	if g := geoMean([]float64{2, 8}); g != 4 {
		t.Errorf("geoMean(2,8) = %v, want 4", g)
	}
	if g := geoMean(nil); g != 0 {
		t.Errorf("geoMean(nil) = %v, want 0", g)
	}
}

func TestTableRenderText(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Notes:  []string{"note"},
		Header: []string{"A", "B"},
	}
	tbl.AddRow("x", 1.5)
	var sb strings.Builder
	if err := tbl.Render(&sb, Text); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T\n", "note", "A", "B", "x", "1.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"A", "B"}}
	tbl.AddRow("x", 2.0)
	tbl.AddRow("y", 3)
	var sb strings.Builder
	if err := tbl.Render(&sb, CSV); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 || lines[1] != "A,B" || lines[2] != "x,2.00" || lines[3] != "y,3" {
		t.Fatalf("csv output = %q", sb.String())
	}
}
