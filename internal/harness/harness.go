// Package harness regenerates every table and figure of the paper's
// evaluation (§6) on the Go reproduction: Figure 3 (SPD3 scalability),
// Figure 4 (ESP-bags vs SPD3), Table 2 (Eraser/FastTrack/SPD3 slowdown),
// Table 3 (memory), Figure 5 (Crypt scaling), Figure 6 (LUFact memory),
// plus Table 1 (the suite), the observability profile and the sampling
// ablation.
//
// Methodology follows the paper where the substrate allows: the reported
// time for each configuration is the smallest of cfg.Repeats runs (§6:
// "the smallest time measured in 3 runs"), slowdowns are relative to the
// uninstrumented baseline at the same worker count unless the experiment
// says otherwise, and averages are geometric means. Memory is the
// detector's deterministic analytic footprint (see detect.Footprint),
// with the process allocation delta reported alongside.
//
// Experiments produce structured Tables renderable as aligned text or
// CSV; cmd/experiments is the command-line front end.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"spd3/internal/bench"
	"spd3/internal/detect"
	_ "spd3/internal/detectors" // populate the detector registry
	"spd3/internal/stats"
	"spd3/internal/task"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies benchmark problem sizes (default 1).
	Scale float64
	// Repeats is the number of runs per data point; the smallest time
	// wins (default 3).
	Repeats int
	// Threads is the worker-count sweep (default 1,2,4,8,16).
	Threads []int
	// OnStats, when non-nil, receives the observability snapshot of the
	// best run of every measurement (cmd/experiments -stats collects
	// these into a JSON document).
	OnStats func(benchmark string, tool Tool, workers int, s stats.Snapshot)
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8, 16}
	}
	return c
}

// maxThreads returns the largest entry of the sweep (the paper's "16").
func (c Config) maxThreads() int {
	m := 1
	for _, t := range c.Threads {
		if t > m {
			m = t
		}
	}
	return m
}

// Tool names a detector configuration in the experiment tables.
type Tool string

// Tools. Each name except Base and SPD3NoStats is a detect registry name.
const (
	Base        Tool = "base"
	SPD3        Tool = "spd3"
	SPD3NoStats Tool = "spd3-nostats" // SPD3 with the stats recorder disabled (the <5% observability budget's instrument)
	ESPBags     Tool = "espbags"
	FastTrack   Tool = "fasttrack"
	Eraser      Tool = "eraser"
)

// Open opens a fresh detect session for tool: o with the tool's registry
// name and, for Base and SPD3NoStats, the recorder left out.
func Open(tool Tool, o detect.SessionOpts) *detect.Session {
	name := string(tool)
	switch tool {
	case Base:
		name, o.NoStats = "none", true
	case SPD3NoStats:
		name, o.NoStats = "spd3", true
	}
	ses, err := detect.Open(name, o)
	if err != nil {
		// Every Tool constant is registered; an unknown tool is a
		// harness bug.
		panic(err)
	}
	return ses
}

// Measurement is one experimental data point.
type Measurement struct {
	Time      time.Duration
	Footprint detect.Footprint
	// Stats is the observability snapshot of the fastest run.
	Stats stats.Snapshot
	// AllocDelta is the Go heap allocation delta of the fastest run,
	// a secondary, GC-sensitive memory signal.
	AllocDelta int64
}

// runOnce runs b once under a fresh session of tool opened with o and
// returns the session, the run's wall clock and its Go heap allocation
// delta.
func runOnce(b *bench.Benchmark, tool Tool, o detect.SessionOpts, workers int, in bench.Input) (*detect.Session, time.Duration, int64, error) {
	ses := Open(tool, o)
	rt, err := task.New(task.Config{Executor: task.Auto, Workers: workers, Detector: ses.Det, Stats: ses.Rec})
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if _, err := b.Run(rt, in); err != nil {
		return nil, 0, 0, fmt.Errorf("%s under %s: %w", b.Name, tool, err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return ses, elapsed, int64(m1.TotalAlloc - m0.TotalAlloc), nil
}

// measure runs benchmark b under tool with the given workers and input,
// returning the best-of-Repeats measurement. ESP-bags forces the
// sequential executor (it cannot run in parallel — that is Figure 4's
// point).
func (c Config) measure(b *bench.Benchmark, tool Tool, workers int, in bench.Input) (Measurement, error) {
	if detect.Sequential(string(tool)) {
		workers = 1
	}
	var best Measurement
	best.Time = math.MaxInt64
	for rep := 0; rep < c.Repeats; rep++ {
		ses, elapsed, alloc, err := runOnce(b, tool, detect.SessionOpts{}, workers, in)
		if err != nil {
			return Measurement{}, err
		}
		if elapsed < best.Time {
			snap := ses.Snapshot(elapsed)
			best = Measurement{Time: elapsed, Footprint: snap.Footprint, Stats: snap, AllocDelta: alloc}
		}
	}
	if c.OnStats != nil {
		c.OnStats(b.Name, tool, workers, best.Stats)
	}
	return best, nil
}

// geoMean returns the geometric mean of xs.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Experiment regenerates one table or figure.
type Experiment struct {
	// ID is the command-line selector ("fig3", "table2", ...).
	ID string
	// Title names the paper artifact.
	Title string
	// Run produces the result table.
	Run func(cfg Config) (*Table, error)
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: list of benchmarks evaluated", Run: table1},
		{ID: "fig3", Title: "Figure 3: relative slowdown of SPD3, 1-16 workers", Run: fig3},
		{ID: "fig4", Title: "Figure 4: ESP-bags vs SPD3 slowdown (vs max-thread base)", Run: fig4},
		{ID: "table2", Title: "Table 2: Eraser/FastTrack/SPD3 slowdown on JGF (chunked)", Run: table2},
		{ID: "table3", Title: "Table 3: peak memory on JGF (chunked)", Run: table3},
		{ID: "fig5", Title: "Figure 5: Crypt slowdown vs workers, all tools", Run: fig5},
		{ID: "fig6", Title: "Figure 6: LUFact memory vs workers, all tools", Run: fig6},
		{ID: "stats", Title: "Observability counters: per-benchmark SPD3 event profile", Run: statsTable},
		{ID: "ablation-sample", Title: "Sampling ablation: overhead vs detection probability across modes and rates", Run: ablationSample},
	}
}

// ByID selects an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

func table1(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Table 1: List of Benchmarks Evaluated",
		Header: []string{"Source", "Benchmark", "Description"},
	}
	for _, b := range bench.All() {
		t.AddRow(b.Source, b.Name+" "+b.Args, b.Desc)
	}
	return t, nil
}

// fig3 reproduces Figure 3: for every benchmark (fine-grained, unchunked)
// and worker count, the slowdown of SPD3 relative to the uninstrumented
// baseline at the same worker count. The paper reports a 2.78× geometric
// mean at 16 threads and near-constant slowdown across worker counts.
func fig3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{Title: "Figure 3: relative slowdown of SPD3 (vs same-worker base), unchunked"}
	t.Header = []string{"Benchmark"}
	for _, n := range cfg.Threads {
		t.Header = append(t.Header, fmt.Sprintf("%d-worker", n))
	}
	perThread := make([][]float64, len(cfg.Threads))
	in := bench.Input{Scale: cfg.Scale}
	for _, b := range bench.All() {
		row := []any{b.Name}
		for ti, n := range cfg.Threads {
			base, err := cfg.measure(b, Base, n, in)
			if err != nil {
				return nil, err
			}
			spd, err := cfg.measure(b, SPD3, n, in)
			if err != nil {
				return nil, err
			}
			s := ratio(spd.Time, base.Time)
			perThread[ti] = append(perThread[ti], s)
			row = append(row, s)
		}
		t.AddRow(row...)
	}
	row := []any{"GeoMean"}
	for ti := range cfg.Threads {
		row = append(row, geoMean(perThread[ti]))
	}
	t.AddRow(row...)
	return t, nil
}

// fig4 reproduces Figure 4: slowdown of ESP-bags (which must run
// sequentially) and SPD3 (on max workers) relative to the max-worker
// uninstrumented baseline. The paper's point: a sequential detector's
// slowdown on a parallel machine dwarfs a parallel detector's.
//
// On a host with fewer physical cores than the sweep, the measured
// columns cannot show the sequentialization penalty (the parallel base
// runs no faster than the sequential one), so the table adds a clearly
// labeled projection for a machine with maxThreads cores: the base and
// SPD3 are assumed to scale linearly with cores — justified by the flat
// relative slowdowns Figure 3 measures — while ESP-bags, sequential by
// construction, does not scale at all. Projected slowdown vs the
// parallel base is then s_spd3 for SPD3 and s_esp × cores for ESP-bags.
func fig4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.maxThreads()
	t := &Table{
		Title: fmt.Sprintf("Figure 4: slowdown vs %d-worker base (ESP-bags sequential, SPD3 on %d workers)", n, n),
		Notes: []string{fmt.Sprintf("Projected columns model a true %d-core host (see harness docs).", n)},
		Header: []string{"Benchmark", "ESP-bags", "SPD3",
			fmt.Sprintf("ESP-bags(proj %dc)", n), fmt.Sprintf("SPD3(proj %dc)", n)},
	}
	in := bench.Input{Scale: cfg.Scale}
	var esp, spd, espP []float64
	for _, b := range bench.All() {
		base, err := cfg.measure(b, Base, n, in)
		if err != nil {
			return nil, err
		}
		e, err := cfg.measure(b, ESPBags, 1, in)
		if err != nil {
			return nil, err
		}
		s, err := cfg.measure(b, SPD3, n, in)
		if err != nil {
			return nil, err
		}
		re, rs := ratio(e.Time, base.Time), ratio(s.Time, base.Time)
		esp = append(esp, re)
		spd = append(spd, rs)
		espP = append(espP, re*float64(n))
		t.AddRow(b.Name, re, rs, re*float64(n), rs)
	}
	t.AddRow("GeoMean", geoMean(esp), geoMean(spd), geoMean(espP), geoMean(spd))
	return t, nil
}

// table2 reproduces Table 2: Eraser, FastTrack, and SPD3 slowdowns on the
// eight JGF benchmarks in their coarse-grained chunked form at the
// maximum worker count.
func table2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.maxThreads()
	t := &Table{
		Title:  fmt.Sprintf("Table 2: slowdown on JGF (chunked) at %d workers", n),
		Header: []string{"Benchmark", "Base(s)", "Eraser", "FastTrack", "SPD3"},
	}
	in := bench.Input{Scale: cfg.Scale, Chunked: true}
	sums := map[Tool][]float64{}
	for _, b := range bench.JGF() {
		base, err := cfg.measure(b, Base, n, in)
		if err != nil {
			return nil, err
		}
		row := []any{b.Name, fmt.Sprintf("%.3f", base.Time.Seconds())}
		for _, tool := range []Tool{Eraser, FastTrack, SPD3} {
			m, err := cfg.measure(b, tool, n, in)
			if err != nil {
				return nil, err
			}
			r := ratio(m.Time, base.Time)
			sums[tool] = append(sums[tool], r)
			row = append(row, r)
		}
		t.AddRow(row...)
	}
	t.AddRow("GeoMean", "", geoMean(sums[Eraser]), geoMean(sums[FastTrack]), geoMean(sums[SPD3]))
	return t, nil
}

// table3 reproduces Table 3: detector memory on the chunked JGF
// benchmarks. The primary signal is the analytic footprint (deterministic
// bytes of shadow words, clocks, locksets, and tree nodes); the process
// allocation delta is shown for reference.
func table3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.maxThreads()
	t := &Table{
		Title:  fmt.Sprintf("Table 3: detector memory (analytic MB) on JGF (chunked) at %d workers", n),
		Header: []string{"Benchmark", "Eraser", "FastTrack", "SPD3", "SPD3-alloc"},
	}
	in := bench.Input{Scale: cfg.Scale, Chunked: true}
	for _, b := range bench.JGF() {
		row := []any{b.Name}
		var spdAlloc int64
		for _, tool := range []Tool{Eraser, FastTrack, SPD3} {
			m, err := cfg.measure(b, tool, n, in)
			if err != nil {
				return nil, err
			}
			row = append(row, mb(m.Footprint.Total()))
			if tool == SPD3 {
				spdAlloc = m.AllocDelta
			}
		}
		row = append(row, mb(spdAlloc))
		t.AddRow(row...)
	}
	return t, nil
}

// fig5 reproduces Figure 5: Crypt (chunked) slowdown relative to the
// max-worker uninstrumented baseline, for every tool across the worker
// sweep. The paper's shape: Eraser and FastTrack blow up with worker
// count; SPD3 stays flat and close to base.
func fig5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	b, err := bench.ByName("Crypt")
	if err != nil {
		return nil, err
	}
	nmax := cfg.maxThreads()
	in := bench.Input{Scale: cfg.Scale, Chunked: true}
	ref, err := cfg.measure(b, Base, nmax, in)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 5: Crypt (chunked) slowdown vs %d-worker base", nmax),
		Header: []string{"Workers", "Base", "Eraser", "FastTrack", "SPD3"},
	}
	for _, n := range cfg.Threads {
		row := []any{n}
		for _, tool := range []Tool{Base, Eraser, FastTrack, SPD3} {
			m, err := cfg.measure(b, tool, n, in)
			if err != nil {
				return nil, err
			}
			row = append(row, ratio(m.Time, ref.Time))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// fig6 reproduces Figure 6: LUFact (chunked) detector memory across the
// worker sweep. The paper's shape: Eraser and FastTrack memory grows with
// workers, SPD3 stays near-constant.
func fig6(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	b, err := bench.ByName("LUFact")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 6: LUFact (chunked) detector memory (analytic MB) vs workers",
		Header: []string{"Workers", "Eraser", "FastTrack", "SPD3"},
	}
	in := bench.Input{Scale: cfg.Scale, Chunked: true}
	for _, n := range cfg.Threads {
		row := []any{n}
		for _, tool := range []Tool{Eraser, FastTrack, SPD3} {
			m, err := cfg.measure(b, tool, n, in)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3f", mb(m.Footprint.Total())))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// statsTable profiles every benchmark under the default SPD3 detector at
// the maximum worker count through the observability subsystem: shadow
// protocol outcomes, DMHP walks, scheduler behaviour, and memory
// traffic. Counts come from the fastest repeat, so ratios — not absolute
// totals — are the stable signal.
func statsTable(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.maxThreads()
	t := &Table{
		Title: fmt.Sprintf("Observability counters: SPD3 at %d workers, unchunked", n),
		Notes: []string{
			"cas: shadow-word CAS outcomes per access (clean = no metadata change)",
			"dmhp: walk = §5.2 pointer walks (DMHP queries the watermark does not answer)",
			"sched: tasks acquired by spawn/inline-pop/steal; mem: instrumented reads+writes",
		},
		Header: []string{"Benchmark", "CASClean", "CASPublish", "CASRetry",
			"DMHPWalk", "Spawn", "Steal", "Reads", "Writes"},
	}
	in := bench.Input{Scale: cfg.Scale}
	for _, b := range bench.All() {
		m, err := cfg.measure(b, SPD3, n, in)
		if err != nil {
			return nil, err
		}
		s := m.Stats
		t.AddRow(b.Name,
			fmt.Sprint(s.Get(stats.CASClean)), fmt.Sprint(s.Get(stats.CASPublish)),
			fmt.Sprint(s.Get(stats.CASRetry)),
			fmt.Sprint(s.Get(stats.DMHPWalk)),
			fmt.Sprint(s.Get(stats.TaskSpawn)), fmt.Sprint(s.Get(stats.TaskSteal)),
			fmt.Sprint(s.Reads), fmt.Sprint(s.Writes))
	}
	return t, nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return math.Inf(1)
	}
	return float64(a) / float64(b)
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }
