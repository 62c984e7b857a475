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
// daemon: record once, analyze n times, verdicts and counts must add up,
// the race digest is the same run after run, and every job is deleted.
func TestLoadAgainstDaemon(t *testing.T) {
	data, err := recordTrace("RacyMonteCarlo", 0.2, false, false, 4)
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
	res := run(ctx, cl, "spd3", data, 1, 4, 20, 0)
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
	again := run(ctx, cl, "spd3", data, 1, 2, 4, 0)
	if len(res.races) == 0 || again.raceDigest() != res.raceDigest() {
		t.Fatalf("race digests differ: %s (%d races) vs %s (%d races)",
			res.raceDigest(), len(res.races), again.raceDigest(), len(again.races))
	}

	// -scale streams an amplified trace per request; the verdict must
	// survive amplification and the daemon must report the larger body.
	res = run(ctx, cl, "spd3", data, 4, 2, 4, 0)
	if res.ok != 4 || res.failed != 0 {
		t.Fatalf("scaled ok/failed = %d/%d (first err %v), want 4/0", res.ok, res.failed, res.firstErr)
	}
	if !res.racy {
		t.Fatal("amplified RacyMonteCarlo analyzed race-free")
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if streamed := st.Stats.Get("srv.streamed_bytes"); streamed < int64(len(data))*4*4 {
		t.Fatalf("srv.streamed_bytes = %d, want at least %d (4 requests × 4 copies)", streamed, len(data)*16)
	}
	if st.JobsTotal != 0 {
		t.Fatalf("%d jobs left on the daemon after the runs", st.JobsTotal)
	}
}
