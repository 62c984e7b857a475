package main

// The engine workloads: a benchmark-owned kernel run as an instrumented
// program under spd3.Engine. The untraced pass times whole runs as a
// user pays for them; the traced pass decomposes one run into the cost
// ladder, times each layer's public functions on the kernel's own
// streams, and reads the exact counts of a depth-first run.

import (
	"os"
	"runtime"
	"time"

	"spd3"
	"spd3/internal/detect"
	"spd3/internal/dpst"
	"spd3/internal/sample"
	"spd3/internal/shadow"
	"spd3/internal/task"
)

// kernel is what the three input programs have in common.
type kernel interface {
	counts() counts
	rawSeq() uint64
	rawTask(h host) (uint64, *spd3.Report, error)
	inst(h host, f fault) (uint64, *spd3.Report, error)
}

// engineInput is one seeded instance of an engine workload: the
// full-size kernel, a one-round instance of it for logging its access
// stream, and the small racy twin with its by-construction race set.
type engineInput struct {
	full, oneRound kernel
	twin           func(h host) (*spd3.Report, error)
	twinClean      func(h host) (*spd3.Report, error) // the twin with its race removed (-inject twin)
	twinRaces      []raceKey
}

func reportOnly(f func(h host, f fault) (uint64, *spd3.Report, error), flt fault) func(h host) (*spd3.Report, error) {
	return func(h host) (*spd3.Report, error) {
		_, rep, err := f(h, flt)
		return rep, err
	}
}

func newEngineInput(workload string, seed uint64, quick bool) *engineInput {
	r := subSeed(seed, 6)
	switch workload {
	case "engine_stencil":
		n, sweeps := 512, 20
		if quick {
			n, sweeps = 64, 2
		}
		tw := newStencil(16+r.intn(7), 1, seed)
		clean := newStencil(tw.n, 1, seed)
		return &engineInput{
			full: newStencil(n, sweeps, seed), oneRound: newStencil(n, 1, seed),
			twin: tw.uncoloured, twinClean: reportOnly(clean.inst, fault{}), twinRaces: tw.uncolouredRaces(),
		}
	case "engine_gather":
		rows, iters := 16384, 10
		if quick {
			rows, iters = 512, 2
		}
		tw := newGather(64+r.intn(64), 16, 2, seed)
		flt, races := tw.sharedRowFault(seed)
		return &engineInput{
			full: newGather(rows, 16, iters, seed), oneRound: newGather(rows, 16, 1, seed),
			twin: reportOnly(tw.inst, flt), twinClean: reportOnly(tw.inst, fault{}), twinRaces: races,
		}
	case "engine_spawn":
		n := 25
		if quick {
			n = 12
		}
		full := newSpawnTree(n, seed)
		tw := newSpawnTree(8+r.intn(4), seed)
		return &engineInput{
			full: full, oneRound: full,
			twin: reportOnly(tw.inst, fault{on: true}), twinClean: reportOnly(tw.inst, fault{}), twinRaces: tw.noSyncRaces(),
		}
	}
	panic("unknown engine workload " + workload)
}

func raceSet(races []spd3.Race) []raceKey {
	out := make([]raceKey, len(races))
	for i, r := range races {
		out[i] = raceKey{r.Kind.String(), r.Region, r.Index}
	}
	return out
}

// sameRaces compares two race sets irrespective of order.
func sameRaces(a, b []raceKey) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[raceKey]int, len(a))
	for _, k := range a {
		count[k]++
	}
	for _, k := range b {
		if count[k]--; count[k] < 0 {
			return false
		}
	}
	return true
}

// checkTwin runs the racy twin depth-first (so the order of the two
// racing accesses, and with it each race's kind, is fixed) and requires
// exactly the race set the kernel parameters imply.
func (in *engineInput) checkTwin(res *result, cfg *config) {
	twin := in.twin
	if cfg.inject == "twin" {
		twin = in.twinClean
	}
	eng, err := spd3.New(spd3.Options{Detector: spd3.SPD3, Executor: spd3.Sequential, MaxRaces: 1 << 16})
	if err != nil {
		res.check(false, "racy twin: %v", err)
		return
	}
	rep, err := twin(host{eng: eng})
	if err != nil {
		res.check(false, "racy twin: %v", err)
		return
	}
	got := raceSet(rep.Races)
	res.check(sameRaces(got, in.twinRaces), "racy twin reported %d races, its parameters imply %d", len(got), len(in.twinRaces))
}

// checkedRun is one instrumented run as a user pays for it: engine
// construction, container allocation, the run and its verdict. It
// returns the wall time and the report, and counts the run's gates
// (checksum equal to the raw-slice reference, race-free, access counts
// equal to the kernel's own) into res.
func checkedRun(k kernel, ref uint64, opts spd3.Options, res *result) (time.Duration, *spd3.Report) {
	t0 := time.Now()
	eng, err := spd3.New(opts)
	if err != nil {
		res.check(false, "spd3.New: %v", err)
		return 0, nil
	}
	sum, rep, err := k.inst(host{eng: eng}, fault{})
	d := time.Since(t0)
	if err != nil {
		res.check(false, "instrumented run: %v", err)
		return d, nil
	}
	want := k.counts()
	countsOK := opts.NoStats || (rep.Stats.Reads == want.reads && rep.Stats.Writes == want.writes)
	switch {
	case sum != ref:
		res.check(false, "checksum %#x differs from the raw-slice reference %#x", sum, ref)
	case !rep.RaceFree():
		res.check(false, "clean kernel reported %d races", len(rep.Races))
	case !countsOK:
		res.check(false, "engine counted %d reads / %d writes, the kernel performs %d / %d",
			rep.Stats.Reads, rep.Stats.Writes, want.reads, want.writes)
	default:
		res.check(true, "")
	}
	return d, rep
}

func checkedOpts(cfg *config) spd3.Options {
	return spd3.Options{Detector: spd3.SPD3, Workers: cfg.nproc}
}

// reference computes the raw-slice checksum every instrumented run is
// held to; -inject checksum corrupts it to show the gate bites.
func reference(k kernel, cfg *config) uint64 {
	ref := k.rawSeq()
	if cfg.inject == "checksum" {
		ref ^= 1
	}
	return ref
}

// totalAlloc is the heap allocated by this process so far, in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func runEngineUntraced(workload string, cfg *config) *result {
	res := newResult(workload, false)
	var (
		setups samples
		in     *engineInput
		ref    uint64
	)
	// Set-up is input generation, the reference run and one warm-up
	// iteration; it is repeated so setup_s is a median, and the last
	// repetition's inputs are the ones measured.
	cal := cfg.cal.reset()
	for rep := 0; rep < cfg.setupReps; rep++ {
		cal.sample()
		t0 := time.Now()
		in = newEngineInput(workload, cfg.seed, cfg.quick)
		ref = reference(in.full, cfg)
		checkedRun(in.full, ref, checkedOpts(cfg), res)
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		runs      samples
		footprint int64
		start     = time.Now()
		sampler   = sampleRSS(os.Getpid())
	)
	for len(runs) < cfg.minSamples || time.Since(start) < cfg.duration {
		runtime.GC()
		cal.sample()
		d, rep := checkedRun(in.full, ref, checkedOpts(cfg), res)
		runs = append(runs, d.Seconds()*1e3)
		if rep != nil {
			footprint = rep.Stats.Footprint.Total()
		}
	}
	rss := sampler.finish() - float64(cal.bytes())/mib // the calibration tables are this process's, not the detector's
	in.checkTwin(res, cfg)

	c := in.full.counts()
	res.setTimes(cal, setups, runs, float64(c.reads+c.writes)/(runs.median()/1e3)/1e6)
	res.set("detector_mib", float64(footprint)/mib)
	res.set("rss_mib", rss)
	return res
}

// ---- traced pass ----------------------------------------------------

// rung is one configuration of the cost ladder.
type rung struct {
	name string
	opts spd3.Options
	raw  bool // plain slices (rawTask) rather than containers (inst)
}

const minRateSpec = "bernoulli:0.000244140625" // sample.MinRate, 2^-12

func ladderRungs(nproc int) []rung {
	with := func(o spd3.Options) spd3.Options { o.Workers = nproc; return o }
	return []rung{
		{"raw_task", with(spd3.Options{Detector: spd3.None, NoStats: true}), true},
		{"tree_only", with(spd3.Options{Detector: spd3.SPD3}), true},
		{"container_none", with(spd3.Options{Detector: spd3.None, NoStats: true}), false},
		{"container_stats", with(spd3.Options{Detector: spd3.None}), false},
		{"sampled_out", with(spd3.Options{Detector: spd3.SPD3, Sampling: spd3.SamplingOptions{Spec: minRateSpec}}), false},
		{"checked", with(spd3.Options{Detector: spd3.SPD3}), false},
	}
}

func runEngineTraced(workload string, cfg *config, tr *tracer) *result {
	res := newResult(workload, true)
	root := tr.begin(workload, -1, "")
	defer tr.end(root)

	in := newEngineInput(workload, cfg.seed, cfg.quick)
	k := in.full
	ref := reference(k, cfg)
	c := k.counts()

	// The ladder: every rung in turn, ladderReps times round-robin so
	// machine drift spreads over the rungs instead of landing on one.
	rungs := ladderRungs(cfg.nproc)
	times := map[string]samples{}
	var (
		allocs samples
		pool   *spd3.Report
	)
	cal := cfg.cal.reset()
	lad := tr.begin("ladder", root, "")
	for rep := 0; rep < cfg.ladderReps; rep++ {
		cal.sample()
		runtime.GC()
		sp := tr.begin("ladder.raw_seq", lad, "")
		t0 := time.Now()
		sum := k.rawSeq()
		times["raw_seq"] = append(times["raw_seq"], time.Since(t0).Seconds())
		tr.end(sp)
		res.check(sum == ref, "raw_seq: checksum %#x differs from the reference %#x", sum, ref)
		for _, rg := range rungs {
			runtime.GC()
			a0 := totalAlloc()
			sp := tr.begin("ladder."+rg.name, lad, "")
			var d time.Duration
			if rg.raw {
				t0 := time.Now()
				eng, err := spd3.New(rg.opts)
				if err != nil {
					res.check(false, "spd3.New: %v", err)
					continue
				}
				sum, _, err := k.rawTask(host{eng: eng})
				d = time.Since(t0)
				res.check(err == nil && sum == ref, "%s: checksum %#x differs from the reference %#x (err %v)", rg.name, sum, ref, err)
			} else {
				var rep *spd3.Report
				d, rep = checkedRun(k, ref, rg.opts, res)
				if rg.name == "checked" {
					pool = rep
					allocs = append(allocs, float64(totalAlloc()-a0)/mib)
				}
			}
			tr.end(sp)
			times[rg.name] = append(times[rg.name], d.Seconds())
		}
	}
	tr.end(lad)
	med := func(name string) float64 { return times[name].median() }
	res.set("ladder.raw_seq_s", med("raw_seq"))
	res.note("ladder.raw_seq_s: %s", times["raw_seq"].describe("s"))
	for _, rg := range rungs {
		res.set("ladder."+rg.name+"_s", med(rg.name))
		res.note("ladder.%s_s: %s", rg.name, times[rg.name].describe("s"))
	}
	treeSelf := med("tree_only") - med("raw_task")
	res.set("task.self_s", med("raw_task")-med("raw_seq"))
	res.set("dpst.insert_self_s", treeSelf)
	res.set("mem.self_s", med("container_none")-med("raw_task"))
	res.set("stats.self_s", med("container_stats")-med("container_none"))
	res.set("sample.gate_self_s", med("sampled_out")-med("container_stats")-treeSelf)
	res.set("core.check_self_s", med("checked")-med("sampled_out"))
	res.set("slowdown_x", med("checked")/med("raw_task"))
	res.set("gate_floor_x", med("sampled_out")/med("raw_task"))
	res.set("check_ns_per_access", (med("checked")-med("sampled_out"))*1e9/float64(c.reads+c.writes))
	res.set("spd3.heap_alloc_mib", allocs.median())
	res.set("loadgen.calibration_ms", cal.ms.median())
	res.set("spd3.peak_rss_mib", float64(procStatusBytes(os.Getpid(), "VmHWM"))/mib)

	// Tracing overhead: the same checked run with no span around it,
	// against the ladder's checked rung that had one.
	var bare samples
	for i := 0; i < cfg.overheadReps; i++ {
		runtime.GC()
		d, _ := checkedRun(k, ref, checkedOpts(cfg), res)
		bare = append(bare, d.Seconds())
	}
	res.set("tracing.overhead_ratio", med("checked")/bare.median())

	// Exact counts: a depth-first run repeats exactly.
	sp := tr.begin("sequential_counts", root, "")
	seqOpts := spd3.Options{Detector: spd3.SPD3, Executor: spd3.Sequential}
	_, seq := checkedRun(k, ref, seqOpts, res)
	tr.end(sp)
	if seq != nil {
		st := seq.Stats
		m := st.Map()
		get := func(name string) float64 { return float64(m[name]) }
		res.set("mem.reads", float64(st.Reads))
		res.set("mem.writes", float64(st.Writes))
		res.set("task.spawns", get("task.spawn"))
		res.set("dpst.bytes", float64(st.Footprint.TreeBytes))
		res.set("shadow.bytes", float64(st.Footprint.ShadowBytes))
		res.set("shadow.pages_allocated", get("shadow.pages_allocated"))
		res.set("shadow.page_cache_hit_ratio", ratio(get("shadow.page_cache_hit"), get("shadow.page_cache_hit"), get("shadow.page_cache_miss")))
		res.set("core.cas_clean_ratio", ratio(get("cas.clean"), get("cas.clean"), get("cas.publish")))
		res.set("core.cas_publish", get("cas.publish"))
		res.set("dpst.dmhp_fast", get("dmhp.fast"))
		res.set("dpst.dmhp_walk", get("dmhp.walk"))
		res.set("dpst.dmhp_memo_hit_ratio", ratio(get("dmhp.memo_hit"), get("dmhp.memo_hit"), get("dmhp.fast"), get("dmhp.walk")))
		res.check(get("task.spawn") == float64(c.spawns), "engine counted %v spawns, the kernel performs %d", get("task.spawn"), c.spawns)
	}
	if pool != nil {
		m := pool.Stats.Map()
		res.set("task.steal_ratio", ratio(float64(m["task.steal"]), float64(m["task.spawn"])))
		res.set("core.cas_retry", float64(m["cas.retry"]))
	}

	// Direct timings of each layer's public functions.
	sp = tr.begin("direct_timings", root, "")
	directTimings(in, cfg, res, seq)
	tr.end(sp)

	in.checkTwin(res, cfg)
	return res
}

// ---- the kernel's own tree shape and access stream ------------------

type treeOp struct {
	parent int32
	kind   dpst.Kind
}

type access struct {
	task   int32
	region int32
	idx    int32
}

// shapeLog is a detect.Detector that performs no detection: run
// depth-first under it, a kernel leaves behind the sequence of DPST
// insertions SPD3 would make for it (§3.1's rules, mirrored from
// internal/core's event handlers) and the head of its access stream.
type shapeLog struct {
	detect.Nop
	ops     []treeOp // node i+1 is created by ops[i]; node 0 is the root
	steps   []int32  // the step nodes among them
	acc     []access
	accCap  int
	regions []int // declared length of each region
}

type logTask struct{ scope, step int32 }
type logFinish struct{ prev int32 } // the scope to restore; -1 for the implicit finish

func (l *shapeLog) add(parent int32, kind dpst.Kind) int32 {
	l.ops = append(l.ops, treeOp{parent, kind})
	id := int32(len(l.ops))
	if kind == dpst.StepNode {
		l.steps = append(l.steps, id)
	}
	return id
}

func (l *shapeLog) MainTask(t *detect.Task, implicit *detect.Finish) {
	run := l.add(0, dpst.FinishNode)
	t.State = &logTask{scope: run, step: l.add(run, dpst.StepNode)}
	implicit.State = &logFinish{prev: -1}
}

func (l *shapeLog) BeforeSpawn(parent, child *detect.Task) {
	ps := parent.State.(*logTask)
	a := l.add(ps.scope, dpst.AsyncNode)
	child.State = &logTask{scope: a, step: l.add(a, dpst.StepNode)}
	ps.step = l.add(ps.scope, dpst.StepNode)
}

func (l *shapeLog) FinishStart(t *detect.Task, f *detect.Finish) {
	ts := t.State.(*logTask)
	fn := l.add(ts.scope, dpst.FinishNode)
	f.State = &logFinish{prev: ts.scope}
	ts.scope = fn
	ts.step = l.add(fn, dpst.StepNode)
}

func (l *shapeLog) FinishEnd(t *detect.Task, f *detect.Finish) {
	fs := f.State.(*logFinish)
	if fs.prev < 0 {
		return
	}
	ts := t.State.(*logTask)
	ts.scope = fs.prev
	ts.step = l.add(fs.prev, dpst.StepNode)
}

func (l *shapeLog) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	l.regions = append(l.regions, spec.Len)
	return &logShadow{l: l, region: int32(len(l.regions) - 1)}
}

type logShadow struct {
	l      *shapeLog
	region int32
}

func (s *logShadow) Read(t *detect.Task, i int) { s.Write(t, i) }
func (s *logShadow) Write(t *detect.Task, i int) {
	if len(s.l.acc) < s.l.accCap {
		s.l.acc = append(s.l.acc, access{int32(t.ID), s.region, int32(i)})
	}
}

// logRun runs body depth-first under a fresh shapeLog.
func logRun(accCap int, body func(h host) error) (*shapeLog, error) {
	l := &shapeLog{accCap: accCap}
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: l})
	if err != nil {
		return nil, err
	}
	return l, body(host{rt: rt})
}

// shadowCell stands in for SPD3's 40-byte CAS shadow word.
type shadowCell [5]uint64

var sink uint64 // keeps timed loops from being optimised away

// timeNS runs f reps times and returns the median nanoseconds per call,
// where one f makes calls calls.
func timeNS(reps, calls int, f func()) float64 {
	var s samples
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		s = append(s, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return s.median()
}

func directTimings(in *engineInput, cfg *config, res *result, seq *spd3.Report) {
	// Tree shape of the full kernel (plain slices: no accesses to log).
	shape, err := logRun(0, func(h host) error { _, _, err := in.full.rawTask(h); return err })
	if err != nil {
		res.check(false, "logging the tree shape: %v", err)
		return
	}
	var tree *dpst.Tree
	nodes := make([]*dpst.Node, len(shape.ops)+1)
	res.set("dpst.newchild_ns", timeNS(cfg.directReps, len(shape.ops), func() {
		tree = dpst.New()
		nodes[0] = tree.Root()
		for i, op := range shape.ops {
			nodes[i+1] = tree.NewChild(nodes[op.parent], op.kind)
		}
	}))
	res.set("dpst.nodes", float64(tree.Len()))
	if seq != nil {
		res.check(tree.Bytes() == seq.Stats.Footprint.TreeBytes,
			"replaying the kernel's tree shape gives %d tree bytes, the engine reports %d", tree.Bytes(), seq.Stats.Footprint.TreeBytes)
	}

	// Relation on seeded pairs of the kernel's own step nodes.
	r := subSeed(cfg.seed, 7)
	pairs := make([][2]*dpst.Node, 1<<14)
	for i := range pairs {
		pairs[i] = [2]*dpst.Node{nodes[shape.steps[r.intn(len(shape.steps))]], nodes[shape.steps[r.intn(len(shape.steps))]]}
	}
	const relationRounds = 16
	res.set("dpst.relation_ns", timeNS(cfg.directReps, relationRounds*len(pairs), func() {
		for round := 0; round < relationRounds; round++ {
			for _, p := range pairs {
				par, d := dpst.Relation(p[0], p[1])
				if par {
					sink += uint64(d)
				}
			}
		}
	}))

	// Head of the access stream of one round of the kernel.
	stream, err := logRun(1<<20, func(h host) error { _, _, err := in.oneRound.inst(h, fault{}); return err })
	if err != nil || len(stream.acc) == 0 {
		res.check(false, "logging the access stream: %v", err)
		return
	}
	pages := make([]*shadow.Pages[shadowCell], len(stream.regions))
	for i, n := range stream.regions {
		pages[i] = shadow.New[shadowCell](n)
	}
	var hits, misses int64
	cellOf := func() {
		var pc shadow.PageCache
		cur := int32(-1)
		for _, a := range stream.acc {
			if a.task != cur { // a new task starts with an empty page cache
				h, m := pc.TakeCounts()
				hits, misses = hits+h, misses+m
				pc, cur = shadow.PageCache{}, a.task
			}
			sink += pages[a.region].CellOf(&pc, int(a.idx))[0]
		}
	}
	cellOf() // allocate the pages outside the timing
	hits, misses = 0, 0
	res.set("shadow.cellof_ns", timeNS(cfg.directReps, len(stream.acc), cellOf))
	res.note("shadow.cellof stream: %d accesses, %.3f page-cache hit ratio", len(stream.acc), float64(hits)/float64(hits+misses))

	smp := sample.New(sample.Config{Mode: sample.Bernoulli, Rate: sample.MinRate})
	res.set("sample.admit_ns", timeNS(cfg.directReps, len(stream.acc), func() {
		var st sample.TaskState
		cur := int32(-1)
		for _, a := range stream.acc {
			if a.task != cur {
				st, cur = sample.TaskState{}, a.task
			}
			if smp.Admit(&st, uint64(a.region)+1, int(a.idx)) {
				sink++
			}
		}
	}))
}
