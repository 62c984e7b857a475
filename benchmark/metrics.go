package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// metricDef is one named number the benchmark prints. The table below is
// the single source of the names, units and bounds; BENCHMARK.json
// repeats it for the driver and benchmark_test.go holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd metrics are what a user of the system sees; every workload
// reports every one, from the untraced pass only.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdict_p50_ms", "ms", "lower", 0.25},
	{"maccess_per_s", "M/s", "higher", 0.25},
	{"detector_mib", "MiB", "lower", 0.05},
	{"rss_mib", "MiB", "lower", 0.20},
}

// perLayer metrics come from the traced pass; layer prefixes are the
// repository's module names. A metric that has no meaning on a workload
// (the engine ladder on a daemon workload, client spans on an engine
// workload) reads 0 there.
var perLayer = []metricDef{
	// The cost ladder: one kernel, seven configurations, each adding a hop.
	{"ladder.raw_seq_s", "s", "lower", 0},
	{"ladder.raw_task_s", "s", "lower", 0},
	{"ladder.tree_only_s", "s", "lower", 0},
	{"ladder.container_none_s", "s", "lower", 0},
	{"ladder.container_stats_s", "s", "lower", 0},
	{"ladder.sampled_out_s", "s", "lower", 0},
	{"ladder.checked_s", "s", "lower", 0},
	// Self times: differences of adjacent rungs.
	{"task.self_s", "s", "lower", 0},
	{"dpst.insert_self_s", "s", "lower", 0},
	{"mem.self_s", "s", "lower", 0},
	{"stats.self_s", "s", "lower", 0},
	{"sample.gate_self_s", "s", "lower", 0},
	{"core.check_self_s", "s", "lower", 0},
	{"slowdown_x", "x", "lower", 0},
	{"gate_floor_x", "x", "lower", 0},
	{"check_ns_per_access", "ns", "lower", 0},
	// Public functions timed directly on the workload's own streams.
	{"shadow.cellof_ns", "ns", "lower", 0},
	{"dpst.newchild_ns", "ns", "lower", 0},
	{"dpst.relation_ns", "ns", "lower", 0},
	{"sample.admit_ns", "ns", "lower", 0},
	// Exact counts (Sequential executor, or the daemon's /statsz delta).
	{"mem.reads", "count", "lower", 0},
	{"mem.writes", "count", "lower", 0},
	{"task.spawns", "count", "lower", 0},
	{"dpst.nodes", "count", "lower", 0},
	{"dpst.bytes", "bytes", "lower", 0},
	{"shadow.bytes", "bytes", "lower", 0},
	{"shadow.pages_allocated", "count", "lower", 0},
	{"shadow.page_cache_hit_ratio", "ratio", "higher", 0},
	{"core.cas_clean_ratio", "ratio", "higher", 0},
	{"core.cas_publish", "count", "lower", 0},
	{"dpst.dmhp_fast", "count", "higher", 0},
	{"dpst.dmhp_walk", "count", "lower", 0},
	{"dpst.dmhp_memo_hit_ratio", "ratio", "higher", 0},
	// From the pool run.
	{"task.steal_ratio", "ratio", "lower", 0},
	{"core.cas_retry", "count", "lower", 0},
	{"spd3.heap_alloc_mib", "MiB", "lower", 0},
	{"spd3.peak_rss_mib", "MiB", "lower", 0},
	// Spans around each spd3/client call.
	{"client.submit_ms", "ms", "lower", 0},
	{"client.wait_ms", "ms", "lower", 0},
	{"client.result_ms", "ms", "lower", 0},
	{"client.delete_ms", "ms", "lower", 0},
	{"client.verdict_p95_ms", "ms", "lower", 0},
	{"client.verdict_p99_ms", "ms", "lower", 0},
	{"client.waitjob_overshoot_ms", "ms", "lower", 0},
	// Daemon stages timed in-process on the workload's own trace bytes.
	{"trace.decode_mib_per_s", "MiB/s", "higher", 0},
	{"trace.replay_spd3_mib_per_s", "MiB/s", "higher", 0},
	{"trace.replay_events_per_s", "1/s", "higher", 0},
	{"trace.split_mib_per_s", "MiB/s", "higher", 0},
	{"trace.segments", "count", "lower", 0},
	{"trace.segment_kib_p50", "KiB", "lower", 0},
	{"trace.amplify_mib_per_s", "MiB/s", "higher", 0},
	{"trace.sizehint_error_ratio", "ratio", "lower", 0},
	{"server.store_put_cold_mib_per_s", "MiB/s", "higher", 0},
	{"server.store_put_dedup_us", "us", "lower", 0},
	{"server.job_fixed_ms", "ms", "lower", 0},
	// /statsz deltas over the measured loop.
	{"server.streamed_bytes", "bytes", "lower", 0},
	{"server.segments", "count", "lower", 0},
	{"server.unsplit", "count", "lower", 0},
	{"server.store_put_bytes", "bytes", "lower", 0},
	{"server.store_dedup_ratio", "ratio", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.peak_heap_mib", "MiB", "lower", 0},
	{"server.peak_rss_mib", "MiB", "lower", 0},
	{"server.shard_workers", "count", "higher", 0},
	// The generator itself.
	{"loadgen.sent_bytes", "bytes", "higher", 0},
	{"loadgen.cpu_share", "ratio", "lower", 0},
	{"loadgen.jobs_per_s", "1/s", "higher", 0},
	{"loadgen.trace_mib_per_s", "MiB/s", "higher", 0},
	{"loadgen.calibration_ms", "ms", "lower", 0},
	{"tracing.overhead_ratio", "ratio", "lower", 0},
}

const mib = 1 << 20

// ratio is num over the sum of den, 0 when nothing was counted.
func ratio(num float64, den ...float64) float64 {
	sum := 0.0
	for _, d := range den {
		sum += d
	}
	if sum == 0 {
		return 0
	}
	return num / sum
}

// samples is a set of timings (or any measurements) reported as a median
// with its quartiles and count.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of s, 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	i := int(math.Ceil(q*float64(len(o)))) - 1
	return o[max(0, min(i, len(o)-1))]
}

// median interpolates between the two middle samples of an even set.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	m := len(o) / 2
	if len(o)%2 == 1 {
		return o[m]
	}
	return (o[m-1] + o[m]) / 2
}

func (s samples) describe(unit string) string {
	return fmt.Sprintf("median %.6g %s (q1 %.6g, q3 %.6g, n=%d)", s.median(), unit, s.quantile(0.25), s.quantile(0.75), len(s))
}

// result is one pass of one workload.
type result struct {
	workload  string
	traced    bool
	metrics   map[string]float64
	notes     []string // human-readable detail lines (quartiles, info values)
	attempted int
	failed    int
	firstFail string
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, metrics: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one verified operation; a false ok is a failure that
// feeds fail_ratio and makes the command exit non-zero.
func (r *result) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if r.firstFail == "" {
			r.firstFail = fmt.Sprintf(format, args...)
		}
	}
	return ok
}

// setTimes fills the three end-to-end time metrics from a run's raw
// measurements — set-up times in s, verdict latencies in ms, throughput
// in M accesses/s — brought to the reference machine speed, and notes the
// raw values beside them.
func (r *result) setTimes(cal *calibrator, setups, verdicts samples, maccessPerS float64) {
	k := cal.scale()
	r.set("setup_s", setups.median()*k)
	r.set("verdict_p50_ms", verdicts.median()*k)
	r.set("maccess_per_s", maccessPerS/k)
	r.note("raw wall times: setup %s; verdict %s; %.6g M accesses/s", setups.describe("s"), verdicts.describe("ms"), maccessPerS)
	r.note("%s", cal.describe())
}

func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// printHuman writes every metric of the pass by name with its unit.
func (r *result) printHuman(w io.Writer) {
	pass := "untraced"
	if r.traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass)\n", r.workload, pass)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, r.metrics[d.Name], d.Unit)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", ratio, r.failed, r.attempted)
	if r.firstFail != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.firstFail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// jsonLine renders the driver's one-object result line.
func (r *result) jsonLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mv{}}
	for _, d := range r.defs() {
		out.Metrics[d.Name] = mv{r.metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only unmarshalable values (NaN, Inf) can fail; a bug
	}
	return string(b)
}

// ---- spans ----------------------------------------------------------

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one job share its id; Parent is the
// index of the enclosing span, -1 at the top.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Job     string `json:"job,omitempty"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// setJob stamps a span with the job id once the daemon has assigned it.
func (t *tracer) setJob(id int, job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Job = job
	t.mu.Unlock()
}

// durations returns the lengths in ms of the finished spans named name
// that were opened after span after (one tracer serves every workload of
// an invocation; after is the workload's own root span).
func (t *tracer) durations(name string, after int) samples {
	var out samples
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans[after+1:] {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- machine speed ----------------------------------------------------

// calibRefMS is what one calibration pass takes on the two-core reference
// box in a calm phase.
const calibRefMS = 67.0

// calibTableWords sizes each core's table at 32 MiB: past any cache share
// a core can count on, so the table half of a pass runs at memory speed.
const calibTableWords = 1 << 22

// calibrator measures how fast the machine is right now. The reference
// box is a shared virtual machine: for minutes at a time its two virtual
// CPUs are scheduled onto one physical core, or a neighbour takes cache
// and memory bandwidth, and every wall time in a run stretches by a
// tenth to a factor of two with no change to the code. A pass is fixed,
// benchmark-owned work on every core — half dependent arithmetic, half
// random read-modify-writes over a table larger than the cache, which is
// roughly how the detector's own time divides — and it stretches with
// the machine much as the workloads do (on this box the run-level
// correlation with engine_stencil and engine_gather was 0.8, and dividing
// by it halved their run-to-run spread). Passes are timed at intervals
// through a run; the end-to-end time metrics are wall times multiplied by
// calibRefMS / (the run's median pass time), that is, expressed at the
// reference machine speed. The raw wall times are printed beside them.
type calibrator struct {
	tables [][]uint64 // one per core, fully touched
	ms     samples
}

// newCalibrator maps the tables outside the Go heap: inside it, 64 MiB of
// live data would double the heap the collector paces itself by and make
// the allocation-heavy workloads a quarter faster than a user would see.
func newCalibrator(nproc int) (*calibrator, error) {
	c := &calibrator{tables: make([][]uint64, nproc)}
	for g := range c.tables {
		mem, err := syscall.Mmap(-1, 0, calibTableWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("mapping a calibration table: %w", err)
		}
		c.tables[g] = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibTableWords)
		for i := range c.tables[g] {
			c.tables[g][i] = uint64(i)
		}
	}
	return c, nil
}

// reset forgets the passes timed so far; every pass of every workload
// starts from it.
func (c *calibrator) reset() *calibrator {
	c.ms = nil
	return c
}

// close unmaps the tables.
func (c *calibrator) close() {
	for _, t := range c.tables {
		if t != nil {
			syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&t[0])), calibTableWords*8)) //nolint:errcheck // the range came from Mmap
		}
	}
	c.tables = nil
}

// bytes is the memory the tables hold resident.
func (c *calibrator) bytes() int64 { return int64(len(c.tables)) * calibTableWords * 8 }

// sample times one pass.
func (c *calibrator) sample() {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g, tbl := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(g + 1)
			for i := 0; i < 15_000_000; i++ { // a dependent xorshift chain: no compiler shortens it, no cache helps it
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			for i := 0; i < 3_000_000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				k := (x >> 20) & (calibTableWords - 1)
				tbl[k] = tbl[k]*3 + x
			}
		}()
	}
	wg.Wait()
	c.ms = append(c.ms, time.Since(t0).Seconds()*1e3)
}

// scale is the factor that takes a wall time of this run to the
// reference machine speed.
func (c *calibrator) scale() float64 { return calibRefMS / c.ms.median() }

func (c *calibrator) describe() string {
	return fmt.Sprintf("machine speed: calibration pass %s against %.3g ms on the reference box, so wall times are scaled by %.4f",
		c.ms.describe("ms"), calibRefMS, c.scale())
}

// ---- process gauges -------------------------------------------------

// procStatusBytes reads one kB-valued line (VmRSS, VmHWM) of a process's
// /proc status, 0 where /proc is absent.
func procStatusBytes(pid int, key string) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// rssSampler reads a process's resident set every 50 ms. rss_mib is the
// median of those samples over the measured loop: the peak (VmHWM) is a
// maximum, one GC-timing coincidence moves it by a third on daemon_jobs,
// so it is printed as a per-layer metric and the bounded metric is the
// memory the process typically holds.
type rssSampler struct {
	stop chan struct{}
	done chan samples
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan samples, 1)}
	go func() {
		var out samples
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			out = append(out, float64(procStatusBytes(pid, "VmRSS"))/mib)
			select {
			case <-s.stop:
				s.done <- out
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median resident set in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	return (<-s.done).median()
}
