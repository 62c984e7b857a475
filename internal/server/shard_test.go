package server

import (
	"bytes"
	"net/http"
	"testing"

	"spd3/internal/detect"
	"spd3/internal/stats"
	"spd3/internal/trace"
)

// amplified returns the benign-race benchmark trace amplified to copies
// runs — each copy's wrap finish is a top-level boundary, so the
// splitter can cut it back into roughly copy-sized segments.
func amplified(t *testing.T, copies int) []byte {
	t.Helper()
	amp, err := trace.AmplifyBytes(recordRacyMonteCarlo(t), copies)
	if err != nil {
		t.Fatal(err)
	}
	return amp
}

// TestShardedAnalyze is the daemon's end-to-end shape: a large
// amplified trace streams in, splits at finish boundaries, fans across
// the worker pool, and the merged report carries the same verdict a
// whole-trace replay reaches in process.
func TestShardedAnalyze(t *testing.T) {
	amp := amplified(t, 12)
	_, ts := newTestServer(t, Config{MinSegmentBytes: 1})

	status, body := analyze(t, ts.URL, "?detector=spd3", amp)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	rep := decodeReport(t, body)
	if !rep.Sharded {
		t.Fatal("report not marked sharded")
	}
	if rep.Segments <= 1 {
		t.Fatalf("segments = %d, want > 1 for a 12x-amplified trace", rep.Segments)
	}
	if len(rep.Verdicts) != 1 || !rep.Verdicts[0].Racy {
		t.Fatalf("verdicts = %+v, want one racy spd3 verdict", rep.Verdicts)
	}
	if rep.TraceBytes != int64(len(amp)) {
		t.Fatalf("trace_bytes = %d, want %d", rep.TraceBytes, len(amp))
	}

	// The reference: one replay of the whole trace into one session.
	whole := 0
	ses, err := detect.Open("spd3", detect.SessionOpts{OnRace: func(detect.Race) bool {
		whole++
		return false
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ReplayWithLimits(bytes.NewReader(amp), ses.Det, ses.Rec, trace.DefaultLimits()); err != nil {
		t.Fatal(err)
	}
	if v := rep.Verdicts[0]; v.Racy != (whole > 0) || v.RaceCount != whole {
		t.Fatalf("sharded verdict (racy=%v races=%d) != whole-trace replay (races=%d)", v.Racy, v.RaceCount, whole)
	}
}

// TestShardedDifferential: detector=all shards per detector; every
// detector sees every segment and they still agree.
func TestShardedDifferential(t *testing.T) {
	amp := amplified(t, 6)
	_, ts := newTestServer(t, Config{MinSegmentBytes: 1})

	status, body := analyze(t, ts.URL, "?detector=all", amp)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	rep := decodeReport(t, body)
	if !rep.Sharded || rep.Segments <= 1 {
		t.Fatalf("sharded=%v segments=%d, want sharded multi-segment", rep.Sharded, rep.Segments)
	}
	if len(rep.Verdicts) < 2 {
		t.Fatalf("differential mode returned %d verdicts", len(rep.Verdicts))
	}
	if rep.Agree == nil || !*rep.Agree {
		t.Fatalf("agree = %v, want true: %+v", rep.Agree, rep.Verdicts)
	}
	for _, v := range rep.Verdicts {
		if !v.Racy {
			t.Fatalf("detector %s missed the race on the amplified trace", v.Detector)
		}
	}
}

// TestSerialShardPool: at ShardWorkers: 1, the serial configuration,
// one replay runs at a time and every detector still agrees. A request
// that names shard=off is split like any other: the key means nothing.
func TestSerialShardPool(t *testing.T) {
	_, ts := newTestServer(t, Config{ShardWorkers: 1, MinSegmentBytes: 1})
	status, body := analyze(t, ts.URL, "?detector=all&shard=off", amplified(t, 4))
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	rep := decodeReport(t, body)
	if !rep.Sharded || rep.Segments <= 1 {
		t.Fatalf("sharded=%v segments=%d, want a sharded multi-segment report", rep.Sharded, rep.Segments)
	}
	if rep.Agree == nil || !*rep.Agree || len(rep.Verdicts) < 2 {
		t.Fatalf("agree = %v over %d verdicts, want every detector agreeing", rep.Agree, len(rep.Verdicts))
	}
	for _, v := range rep.Verdicts {
		if !v.Racy {
			t.Fatalf("detector %s lost the verdict on the serial pool", v.Detector)
		}
	}
	st := getStatsz(t, ts.URL)
	if st.ShardWorkers != 1 {
		t.Errorf("shard_workers = %d, want 1", st.ShardWorkers)
	}
	if got := st.Stats.Get(stats.TraceSegments); got != int64(rep.Segments) {
		t.Errorf("trace.segments = %d, report says %d", got, rep.Segments)
	}
}

// TestShardedUnsplitFallback: a trace whose single finish scope exceeds
// the segment cap falls back to one streamed replay instead of failing
// or buffering without bound.
func TestShardedUnsplitFallback(t *testing.T) {
	data := synthTrace(t, 30_000) // no interior boundary
	_, ts := newTestServer(t, Config{MinSegmentBytes: 1, MaxSegmentBytes: 1024})

	status, body := analyze(t, ts.URL, "?detector=spd3", data)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	rep := decodeReport(t, body)
	if !rep.Sharded || rep.Segments != 1 {
		t.Fatalf("sharded=%v segments=%d, want sharded single-segment fallback", rep.Sharded, rep.Segments)
	}
	st := getStatsz(t, ts.URL)
	if got := st.Stats.Get(stats.SrvUnsplit); got != 1 {
		t.Fatalf("srv.unsplit = %d, want 1", got)
	}
}

// TestShardObservability pins the new /statsz surface: streamed-byte and
// segment counters move, the pool gauges read sensibly at idle, and the
// memory gauges are live.
func TestShardObservability(t *testing.T) {
	amp := amplified(t, 8)
	_, ts := newTestServer(t, Config{MinSegmentBytes: 1})

	status, body := analyze(t, ts.URL, "?detector=spd3", amp)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	rep := decodeReport(t, body)

	st := getStatsz(t, ts.URL)
	if got := st.Stats.Get(stats.SrvStreamedBytes); got != int64(len(amp)) {
		t.Errorf("srv.streamed_bytes = %d, want %d", got, len(amp))
	}
	if got := st.Stats.Get(stats.TraceSegments); got != int64(rep.Segments) {
		t.Errorf("trace.segments = %d, report says %d", got, rep.Segments)
	}
	if st.ShardWorkers <= 0 {
		t.Errorf("shard_workers = %d, want > 0", st.ShardWorkers)
	}
	if st.ShardBusy != 0 {
		t.Errorf("shard_busy = %d at idle, want 0", st.ShardBusy)
	}
	if st.HeapAllocBytes == 0 || st.PeakHeapBytes == 0 {
		t.Errorf("memory gauges dead: heap=%d peak=%d", st.HeapAllocBytes, st.PeakHeapBytes)
	}
	if st.PeakHeapBytes < st.HeapAllocBytes/2 {
		t.Errorf("peak heap %d implausibly below current heap %d", st.PeakHeapBytes, st.HeapAllocBytes)
	}
}

// TestShardedSamplingSharesOneSampler: the segment replays of one
// (tenant, spec) run concurrently behind one sampler and each feeds its
// feedback loop; a second spelling of the spec finds the same row. Under
// -race this is the sharing the daemon relies on.
func TestShardedSamplingSharesOneSampler(t *testing.T) {
	amp := amplified(t, 12)
	s, ts := newTestServer(t, Config{ShardWorkers: 4, MinSegmentBytes: 1, Sampling: SamplingConfig{Budget: 0.5}})
	segments := 0
	for _, spec := range []string{"bernoulli:0.5", "bernoulli:0.50"} {
		status, body := analyze(t, ts.URL, "?detector=spd3&sample="+spec, amp)
		if status != http.StatusOK {
			t.Fatalf("sample=%s: status = %d\n%s", spec, status, body)
		}
		rep := decodeReport(t, body)
		if !rep.Sharded || rep.Segments <= 1 {
			t.Fatalf("sample=%s: sharded=%v segments=%d, want a sharded replay", spec, rep.Sharded, rep.Segments)
		}
		segments += rep.Segments
	}
	if rows := getStatsz(t, ts.URL).Sampling; len(rows) != 1 || rows[0].Tenant != "default" || rows[0].Mode != "bernoulli" {
		t.Fatalf("sampling rows %+v, want one bernoulli row for tenant default", rows)
	}
	if n := s.samplers.sampler("default", "bernoulli:0.5").Observations(); n < 2 || n > int64(segments) {
		t.Errorf("shared sampler applied %d observations over %d segment replays", n, segments)
	}
}
