package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"spd3/client"
	_ "spd3/internal/detectors"
	"spd3/internal/server"
)

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	ls := []time.Duration{ms(9), ms(1), ms(5), ms(3), ms(7)}
	if got := percentile(ls, 0); got != ms(1) {
		t.Errorf("p0 = %v, want 1ms", got)
	}
	if got := percentile(ls, 0.5); got != ms(5) {
		t.Errorf("p50 = %v, want 5ms", got)
	}
	if got := percentile(ls, 1); got != ms(9) {
		t.Errorf("p100 = %v, want 9ms", got)
	}
}

// TestLoadAgainstDaemon drives the real load loop against an in-process
// daemon: record once, analyze n times, verdicts and counts must add up.
func TestLoadAgainstDaemon(t *testing.T) {
	data, err := recordTrace("", "RacyMonteCarlo", 0.2, false, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.Open(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cl := client.New(ts.URL)
	res := run(context.Background(), cl, "spd3", data, 1, 4, 20, 0, false)
	if res.ok != 20 || res.rejected != 0 || res.failed != 0 {
		t.Fatalf("ok/rejected/failed = %d/%d/%d (first err %v), want 20/0/0",
			res.ok, res.rejected, res.failed, res.firstErr)
	}
	if !res.racy {
		t.Fatal("RacyMonteCarlo analyzed race-free")
	}
	if len(res.latencies) != 20 || percentile(res.latencies, 1) <= 0 {
		t.Fatalf("latencies = %d samples, max %v", len(res.latencies), percentile(res.latencies, 1))
	}

	// -scale streams an amplified trace per request; the verdict must
	// survive amplification and the daemon must report the larger body.
	res = run(context.Background(), cl, "spd3", data, 4, 2, 4, 0, false)
	if res.ok != 4 || res.failed != 0 {
		t.Fatalf("scaled ok/failed = %d/%d (first err %v), want 4/0", res.ok, res.failed, res.firstErr)
	}
	if !res.racy {
		t.Fatal("amplified RacyMonteCarlo analyzed race-free")
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if streamed := st.Stats.Get("srv.streamed_bytes"); streamed < int64(len(data))*4*4 {
		t.Fatalf("srv.streamed_bytes = %d, want at least %d (4 requests × 4 copies)", streamed, len(data)*16)
	}
}

// TestLoadAsyncDifferential runs the same trace through /v1 and the
// async /v2 path and pins the digest oracle CI relies on: identical
// race sets, identical digests, racy verdict on both.
func TestLoadAsyncDifferential(t *testing.T) {
	data, err := recordTrace("", "RacyMonteCarlo", 0.2, false, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.Open(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cl := client.New(ts.URL)
	cl.Tenant = "loadtest"
	ctx := context.Background()

	v1 := run(ctx, cl, "spd3", data, 1, 2, 4, 0, false)
	if v1.ok != 4 || v1.failed != 0 {
		t.Fatalf("v1 ok/failed = %d/%d (first err %v), want 4/0", v1.ok, v1.failed, v1.firstErr)
	}
	v2 := run(ctx, cl, "spd3", data, 1, 2, 4, 0, true)
	if v2.ok != 4 || v2.failed != 0 {
		t.Fatalf("v2 ok/failed = %d/%d (first err %v), want 4/0", v2.ok, v2.failed, v2.firstErr)
	}
	if !v1.racy || !v2.racy {
		t.Fatalf("racy: v1=%v v2=%v, want both true", v1.racy, v2.racy)
	}
	if len(v1.races) == 0 || v1.raceDigest() != v2.raceDigest() {
		t.Fatalf("race digests differ: v1 %s (%d races) vs v2 %s (%d races)",
			v1.raceDigest(), len(v1.races), v2.raceDigest(), len(v2.races))
	}

	// The async runs deleted their jobs; the daemon should report none
	// left over for this run (finished v1 shim jobs are ephemeral too).
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsQueued != 0 || st.JobsRunning != 0 {
		t.Fatalf("leftover jobs: queued %d running %d", st.JobsQueued, st.JobsRunning)
	}
}
