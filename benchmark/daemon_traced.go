package main

// The traced pass of the daemon workloads: spans around every
// spd3/client call, /statsz deltas over the traced loop, and each daemon
// stage timed in-process, from outside, on the workload's own bytes.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"path/filepath"
	"time"

	"spd3"
	"spd3/client"
	"spd3/internal/detect"
	_ "spd3/internal/detectors" // the in-process replay stage builds spd3 from the registry
	"spd3/internal/server"
	"spd3/internal/trace"
)

// setStatsz fills the /statsz-delta metrics, which mean the same thing
// on both daemon workloads. The detector counters are those of the
// replays the daemon ran, so the check path's behaviour on recorded
// traces shows next to its behaviour under the engine.
func setStatsz(res *result, s statsDelta) {
	segs, dedup := s.counter("trace.segments"), s.counter("store.dedup_hits")
	res.set("server.streamed_bytes", s.counter("srv.streamed_bytes"))
	res.set("server.segments", segs)
	res.set("server.unsplit", s.counter("srv.unsplit"))
	res.set("server.store_put_bytes", s.counter("store.put_bytes"))
	res.set("server.store_dedup_ratio", ratio(dedup, segs))
	res.set("server.rejected", s.counter("srv.rejected")+s.counter("quota.denied"))
	res.set("server.peak_heap_mib", float64(s.after.PeakHeapBytes)/mib)
	res.set("server.peak_rss_mib", float64(s.after.PeakRSSBytes)/mib)
	res.set("server.shard_workers", float64(s.after.ShardWorkers))
	res.set("shadow.pages_allocated", s.counter("shadow.pages_allocated"))
	res.set("shadow.page_cache_hit_ratio", ratio(s.counter("shadow.page_cache_hit"), s.counter("shadow.page_cache_hit"), s.counter("shadow.page_cache_miss")))
	res.set("core.cas_clean_ratio", ratio(s.counter("cas.clean"), s.counter("cas.clean"), s.counter("cas.publish")))
	res.set("core.cas_publish", s.counter("cas.publish"))
	res.set("core.cas_retry", s.counter("cas.retry"))
	res.set("dpst.dmhp_fast", s.counter("dmhp.fast"))
	res.set("dpst.dmhp_walk", s.counter("dmhp.walk"))
	res.set("dpst.dmhp_memo_hit_ratio", ratio(s.counter("dmhp.memo_hit"), s.counter("dmhp.memo_hit"), s.counter("dmhp.fast"), s.counter("dmhp.walk")))
}

// stageTimings runs each daemon stage on traces, in this process, one
// stage at a time. amplifyBase and copies feed the amplifier stage.
func stageTimings(cfg *config, traces [][]byte, amplifyBase []byte, copies int, res *result) {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	mibOf := func(n int) float64 { return float64(n) / mib }

	// trace.Replay into a detector that only counts: decode cost alone.
	var events int64
	t0 := time.Now()
	for _, t := range traces {
		var c accessCounter
		if err := trace.Replay(bytes.NewReader(t), &c); err != nil {
			res.check(false, "decode stage: %v", err)
			return
		}
		events += c.n
	}
	res.set("trace.decode_mib_per_s", mibOf(total)/time.Since(t0).Seconds())

	// trace.Replay into spd3: decode plus the whole check path.
	t0 = time.Now()
	for _, t := range traces {
		det, err := detect.New("spd3", detect.FactoryOpts{Sink: detect.NewSink(false, 0)})
		if err == nil {
			err = trace.Replay(bytes.NewReader(t), det)
		}
		if err != nil {
			res.check(false, "replay stage: %v", err)
			return
		}
	}
	d := time.Since(t0).Seconds()
	res.set("trace.replay_spd3_mib_per_s", mibOf(total)/d)
	res.set("trace.replay_events_per_s", float64(events)/d)

	// The splitter with the daemon's own segment settings.
	var (
		segments [][]byte
		sizes    samples
	)
	t0 = time.Now()
	for _, t := range traces {
		sp, err := trace.NewSplitter(bytes.NewReader(t), trace.SplitConfig{MinSegmentBytes: 256 << 10, MaxSegmentBytes: 32 << 20})
		for err == nil {
			var seg []byte
			if seg, err = sp.Next(); err == nil {
				segments = append(segments, seg)
				sizes = append(sizes, float64(len(seg))/1024)
			}
		}
		if !errors.Is(err, io.EOF) {
			res.check(false, "split stage: %v", err)
			return
		}
	}
	res.set("trace.split_mib_per_s", mibOf(total)/time.Since(t0).Seconds())
	res.set("trace.segments", float64(len(segments)))
	res.set("trace.segment_kib_p50", sizes.median())

	// The amplifier: how fast the generator can produce upload bytes, and
	// how far its size hint is from what it really streams.
	amp, err := trace.NewAmplifier(amplifyBase, copies)
	if err != nil {
		res.check(false, "amplify stage: %v", err)
		return
	}
	t0 = time.Now()
	n, err := io.Copy(io.Discard, amp)
	if err != nil {
		res.check(false, "amplify stage: %v", err)
		return
	}
	res.set("trace.amplify_mib_per_s", mibOf(int(n))/time.Since(t0).Seconds())
	res.set("trace.sizehint_error_ratio", float64(n-amp.SizeHint())/float64(n))

	// The store: every distinct segment once cold (temp file, fsync, rename), then
	// once more as a dedup hit.
	dir, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "stage-store-*")
	if err != nil {
		res.check(false, "store stage: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	srv, err := server.Open(server.Config{StoreDir: dir})
	if err != nil {
		res.check(false, "store stage: %v", err)
		return
	}
	defer srv.Close()
	st := srv.Store()
	// A racy trace shares the segments its fault never touched with its
	// clean twin; the cold pass must see each content once.
	seen := map[[sha256.Size]byte]bool{}
	distinct := segments[:0]
	for _, seg := range segments {
		if h := sha256.Sum256(seg); !seen[h] {
			seen[h] = true
			distinct = append(distinct, seg)
		}
	}
	segments = distinct
	segBytes := 0
	t0 = time.Now()
	for _, seg := range segments {
		if _, dup, err := st.PutStream(bytes.NewReader(seg)); err != nil || dup {
			res.check(false, "store stage: cold put dup=%v err=%v", dup, err)
			return
		}
		segBytes += len(seg)
	}
	res.set("server.store_put_cold_mib_per_s", mibOf(segBytes)/time.Since(t0).Seconds())
	t0 = time.Now()
	for _, seg := range segments {
		if _, dup, err := st.PutStream(bytes.NewReader(seg)); err != nil || !dup {
			res.check(false, "store stage: dedup put dup=%v err=%v", dup, err)
			return
		}
	}
	res.set("server.store_put_dedup_us", float64(time.Since(t0).Microseconds())/float64(len(segments)))
	res.check(true, "")
}

func runJobsTraced(cfg *config, tr *tracer) *result {
	res := newResult("daemon_jobs", true)
	root := tr.begin("daemon_jobs", -1, "")
	defer tr.end(root)
	d, pool, err := jobsSetup(cfg, res)
	if err != nil {
		res.check(false, "daemon set-up: %v", err)
		return res
	}
	defer d.stop(cfg)
	ctx := context.Background()

	// The same closed loop twice: bare, then with a span around every
	// client call. Their ratio is what tracing costs.
	cal := cfg.cal.reset()
	cal.sample()
	bare, _ := closedLoop(ctx, d.cl, pool, cfg.nproc, cfg.minJobs/2, cfg.duration/4, nil, -1, res)
	before, err := d.cl.Stats(ctx)
	if err != nil {
		res.check(false, "/statsz: %v", err)
		return res
	}
	cal.sample()
	cpu0 := cpuSeconds()
	lats, elapsed := closedLoop(ctx, d.cl, pool, cfg.nproc, cfg.minJobs/2, cfg.duration/4, tr, root, res)
	cpu := cpuSeconds() - cpu0
	after, err := d.cl.Stats(ctx)
	if err != nil || len(lats) == 0 || len(bare) == 0 {
		res.check(false, "no job completed (/statsz err %v)", err)
		return res
	}
	setStatsz(res, statsDelta{before, after})
	for _, name := range []string{"client.submit", "client.wait", "client.result", "client.delete"} {
		res.set(name+"_ms", tr.durations(name, root).median())
	}
	_, meanBytes := poolAccesses(pool)
	res.set("client.verdict_p95_ms", lats.quantile(0.95))
	res.set("client.verdict_p99_ms", lats.quantile(0.99))
	res.set("tracing.overhead_ratio", lats.median()/bare.median())
	res.set("loadgen.jobs_per_s", float64(len(lats))/elapsed.Seconds())
	res.set("loadgen.trace_mib_per_s", float64(len(lats))*meanBytes/mib/elapsed.Seconds())
	res.set("loadgen.sent_bytes", float64(len(lats))*meanBytes)
	cal.sample()
	res.set("loadgen.calibration_ms", cal.ms.median())
	res.set("loadgen.cpu_share", cpu/(elapsed.Seconds()*float64(cfg.nproc)))

	// How much later than the done event WaitJob's polling returns.
	var over samples
	for i := 0; i < cfg.overshootN; i++ {
		o, err := waitJobOvershoot(ctx, d, pool[i%len(pool)])
		if res.check(err == nil, "overshoot job: %v", err) {
			over = append(over, o.Seconds()*1e3)
		}
	}
	res.set("client.waitjob_overshoot_ms", over.median())

	// The fixed cost of a job: the full lifecycle of a trace with no
	// program in it.
	empty, err := record(func(h host) error { _, err := h.run(func(*spd3.Ctx) {}); return err })
	if err != nil {
		res.check(false, "recording the empty trace: %v", err)
		return res
	}
	var fixed samples
	for i := 0; i < cfg.overshootN; i++ {
		lat, err := runJob(ctx, d.cl, jobTrace{name: "empty", data: empty}, nil, -1)
		if res.check(err == nil, "empty job: %v", err) {
			fixed = append(fixed, lat.Seconds()*1e3)
		}
	}
	res.set("server.job_fixed_ms", fixed.median())

	traces := make([][]byte, len(pool))
	for i, jt := range pool {
		traces[i] = jt.data
	}
	sp := tr.begin("stage_timings", root, "")
	stageTimings(cfg, traces, pool[0].data, 16, res)
	tr.end(sp)
	return res
}

// waitJobOvershoot submits one job and follows it both ways at once: the
// SSE stream notes when the done event arrives, WaitJob polls. The
// difference is what the 10 ms → 1 s poll back-off adds.
func waitJobOvershoot(ctx context.Context, d *daemon, jt jobTrace) (time.Duration, error) {
	st, err := d.cl.SubmitJob(ctx, "spd3", bytes.NewReader(jt.data))
	if err != nil {
		return 0, err
	}
	type seen struct {
		at  time.Time
		err error
	}
	donec := make(chan seen, 1)
	go func() {
		var at time.Time
		err := d.cl.StreamEvents(ctx, st.ID, func(ev client.Event) bool {
			if ev.Name == "done" {
				at = time.Now()
			}
			return true
		})
		donec <- seen{at, err}
	}()
	_, werr := d.cl.WaitJob(ctx, st.ID)
	returned := time.Now()
	ev := <-donec
	d.cl.DeleteJob(ctx, st.ID) //nolint:errcheck // best-effort cleanup of a sub-sample job
	if werr != nil {
		return 0, werr
	}
	if ev.err != nil {
		return 0, ev.err
	}
	return returned.Sub(ev.at), nil
}

func runStreamTraced(cfg *config, tr *tracer) *result {
	res := newResult("daemon_stream", true)
	root := tr.begin("daemon_stream", -1, "")
	defer tr.end(root)

	d, err := streamSetup(cfg, res)
	if err != nil {
		res.check(false, "daemon set-up: %v", err)
		return res
	}
	defer d.stop(cfg)

	cal := cfg.cal.reset()
	// One bare upload, then the traced ones; every upload uses a base
	// nobody has sent, so the store stays cold throughout.
	bare, _, _, _, _ := streamLoop(cfg, d, cal, 0, 1, 0, nil, -1, res)
	before, err := d.cl.Stats(context.Background())
	if err != nil {
		res.check(false, "/statsz: %v", err)
		return res
	}
	cpu0 := cpuSeconds()
	lats, rates, _, sent, elapsed := streamLoop(cfg, d, cal, 1, max(1, cfg.minUploads/2), cfg.duration/4, tr, root, res)
	cpu := cpuSeconds() - cpu0
	after, err := d.cl.Stats(context.Background())
	if err != nil || len(lats) == 0 || len(bare) == 0 {
		res.check(false, "no upload completed (/statsz err %v)", err)
		return res
	}
	setStatsz(res, statsDelta{before, after})
	// /v1/analyze is one call: the upload and the analysis overlap, so
	// the whole verdict latency is its submit span.
	res.set("client.submit_ms", tr.durations("client.submit", root).median())
	res.set("client.verdict_p95_ms", lats.quantile(0.95))
	res.set("client.verdict_p99_ms", lats.quantile(0.99))
	res.set("tracing.overhead_ratio", lats.median()/bare.median())
	res.set("loadgen.jobs_per_s", float64(len(lats))/elapsed.Seconds())
	res.set("loadgen.trace_mib_per_s", rates.median())
	res.set("loadgen.sent_bytes", float64(sent))
	res.set("loadgen.calibration_ms", cal.ms.median())
	res.set("loadgen.cpu_share", cpu/(elapsed.Seconds()*float64(cfg.nproc)))

	// Stages on a slice of the same stream: the base of upload 0,
	// amplified far enough to have many segments but short enough to
	// replay in-process in about a second.
	base, copies, err := streamBase(cfg, 0, res)
	if err != nil {
		res.check(false, "recording base 0: %v", err)
		return res
	}
	stageCopies := min(copies, 16)
	amplified, err := trace.AmplifyBytes(base.data, stageCopies)
	if err != nil {
		res.check(false, "amplifying base 0: %v", err)
		return res
	}
	sp := tr.begin("stage_timings", root, "")
	stageTimings(cfg, [][]byte{amplified}, base.data, copies, res)
	tr.end(sp)

	res.note("the amplifier makes %.4g MiB/s, %.1fx the measured upload rate; uploads are amplified before their clock starts",
		res.metrics["trace.amplify_mib_per_s"], res.metrics["trace.amplify_mib_per_s"]/rates.median())
	return res
}
