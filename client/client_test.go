package client_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spd3/client"
	"spd3/internal/bench"
	_ "spd3/internal/detectors" // populate the registry, as cmd/spd3d does
	"spd3/internal/server"
	"spd3/internal/server/quota"
	"spd3/internal/task"
	"spd3/internal/trace"
)

// newDaemon starts an in-process spd3d on an httptest listener and
// returns a typed client pointed at it.
func newDaemon(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL + "/") // trailing slash must not produce //v1 paths
}

// recordRacyMonteCarlo records the paper's benign-race benchmark under
// the depth-first executor, so every detector (including ESP-bags) can
// legally consume the trace.
func recordRacyMonteCarlo(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, true)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range bench.Racy() {
		if rb.Name == "RacyMonteCarlo" {
			if _, err := rb.Run(rt, bench.Input{Scale: 0.2}); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
	}
	t.Fatal("RacyMonteCarlo not in bench.Racy()")
	return nil
}

// TestClientRoundTrip drives every synchronous client method against a
// live daemon.
func TestClientRoundTrip(t *testing.T) {
	_, c := newDaemon(t, server.Config{})
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}

	dets, err := c.Detectors(ctx)
	if err != nil {
		t.Fatalf("Detectors: %v", err)
	}
	seq := map[string]bool{}
	for _, d := range dets {
		seq[d.Name] = d.Sequential
	}
	if v, ok := seq["spd3"]; !ok || v {
		t.Errorf("spd3 listing = %v/%v, want parallel-safe", v, ok)
	}
	if v, ok := seq["espbags"]; !ok || !v {
		t.Errorf("espbags listing = %v/%v, want sequential-only", v, ok)
	}

	tr := recordRacyMonteCarlo(t)
	rep, err := c.Analyze(ctx, "all", bytes.NewReader(tr))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Tool != server.Tool || rep.Agree == nil || !*rep.Agree {
		t.Fatalf("Analyze report: %+v", rep)
	}

	// Default detector when none is named.
	rep, err = c.Analyze(ctx, "", bytes.NewReader(tr))
	if err != nil {
		t.Fatalf("Analyze default: %v", err)
	}
	if len(rep.Verdicts) != 1 || rep.Verdicts[0].Detector != "spd3" {
		t.Fatalf("default detector verdicts: %+v", rep.Verdicts)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Stats.Get("srv.requests") == 0 || st.Stats.Get("srv.analyses") == 0 {
		t.Fatalf("statsz counters empty: %+v", st)
	}
	if st.Draining {
		t.Fatalf("statsz gauges: %+v", st)
	}
}

// TestClientAPIError pins the typed error mapping: a 404 surfaces as
// *APIError carrying the daemon's message, and Saturated classifies the
// load-sheddable statuses.
func TestClientAPIError(t *testing.T) {
	_, c := newDaemon(t, server.Config{})

	_, err := c.Analyze(context.Background(), "nosuch", bytes.NewReader(recordRacyMonteCarlo(t)))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %T %v, want *APIError", err, err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Message == "" {
		t.Fatalf("APIError = %+v, want 404 with message", apiErr)
	}
	if apiErr.Saturated() {
		t.Error("404 classified as saturated")
	}
	if !(&client.APIError{Status: 429}).Saturated() || !(&client.APIError{Status: 503}).Saturated() {
		t.Error("429/503 not classified as saturated")
	}
}

// TestClientJobLifecycle drives the async surface end to end: submit,
// wait, result, events, delete — and checks the job result matches the
// synchronous path's verdict on the same trace.
func TestClientJobLifecycle(t *testing.T) {
	_, c := newDaemon(t, server.Config{})
	c.Tenant = "lifecycle"
	ctx := context.Background()
	tr := recordRacyMonteCarlo(t)

	st, err := c.SubmitJob(ctx, "all", bytes.NewReader(tr))
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if st.ID == "" || st.Tenant != "lifecycle" || client.Terminal(st.State) {
		t.Fatalf("submit status: %+v", st)
	}

	fin, err := c.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if fin.State != client.StateDone {
		t.Fatalf("job state = %q (%s), want done", fin.State, fin.Error)
	}
	if fin.RaceCount == 0 {
		t.Fatalf("done job has no races: %+v", fin)
	}

	rep, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if rep.Agree == nil || !*rep.Agree {
		t.Fatalf("job result: %+v", rep)
	}
	sync, err := c.Analyze(ctx, "all", bytes.NewReader(tr))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(rep.Verdicts) != len(sync.Verdicts) {
		t.Fatalf("verdict count: job %d vs sync %d", len(rep.Verdicts), len(sync.Verdicts))
	}
	for i := range rep.Verdicts {
		if rep.Verdicts[i].Racy != sync.Verdicts[i].Racy {
			t.Errorf("detector %s: job racy=%v sync racy=%v",
				rep.Verdicts[i].Detector, rep.Verdicts[i].Racy, sync.Verdicts[i].Racy)
		}
	}

	// The finished job's event stream replays its races and closes with
	// a done frame.
	var races, dones int
	evCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err = c.StreamEvents(evCtx, st.ID, func(ev client.Event) bool {
		switch ev.Name {
		case "race":
			if ev.Race == nil || ev.Detector == "" {
				t.Errorf("malformed race event: %+v", ev)
			}
			races++
		case "done":
			if ev.State != client.StateDone {
				t.Errorf("done event state = %q", ev.State)
			}
			dones++
		}
		return true
	})
	if err != nil {
		t.Fatalf("StreamEvents: %v", err)
	}
	if races == 0 || dones != 1 {
		t.Fatalf("event stream: %d races, %d done frames", races, dones)
	}

	if err := c.DeleteJob(ctx, st.ID); err != nil {
		t.Fatalf("DeleteJob: %v", err)
	}
	var apiErr *client.APIError
	if _, err := c.GetJob(ctx, st.ID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("GetJob after delete: %v, want 404", err)
	}
}

// TestClientQuotaRetryAfter pins the typed 429: an exhausted tenant
// queue surfaces as a saturated *APIError carrying Retry-After.
func TestClientQuotaRetryAfter(t *testing.T) {
	_, c := newDaemon(t, server.Config{Quota: quota.Config{MaxQueuedJobs: 1}})
	c.Tenant = "tight"
	ctx := context.Background()
	tr := recordRacyMonteCarlo(t)

	// Park one job in the queue, then overflow the quota with a second.
	// The first job may finish quickly, so loop until the 429 shows up
	// or the submissions prove the quota is never enforced.
	var apiErr *client.APIError
	saw429 := false
	for i := 0; i < 50 && !saw429; i++ {
		_, err := c.SubmitJob(ctx, "", bytes.NewReader(tr))
		if err == nil {
			continue
		}
		if !errors.As(err, &apiErr) {
			t.Fatalf("SubmitJob err = %T %v, want *APIError", err, err)
		}
		if apiErr.Status != http.StatusTooManyRequests {
			t.Fatalf("SubmitJob err = %+v, want 429", apiErr)
		}
		saw429 = true
	}
	if !saw429 {
		t.Skip("daemon drained every job before the quota filled; nothing to assert")
	}
	if !apiErr.Saturated() {
		t.Error("429 not classified as saturated")
	}
	if apiErr.RetryAfter <= 0 {
		t.Errorf("429 Retry-After = %v, want > 0", apiErr.RetryAfter)
	}
}
