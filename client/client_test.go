package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spd3/client"
	"spd3/internal/bench"
	"spd3/internal/detect"
	_ "spd3/internal/detectors" // populate the registry, as cmd/spd3d does
	"spd3/internal/server"
	"spd3/internal/server/quota"
	"spd3/internal/task"
	"spd3/internal/trace"
)

// The gate detector parks a job's replay in MainTask until the test
// releases it, so a job is still live when the test acts on it. It is a
// hidden variant: reachable by name, absent from listings.
var gate struct {
	mu sync.Mutex
	ch chan struct{}
}

// setGate installs a fresh gate and returns its release function.
func setGate() (release func()) {
	ch := make(chan struct{})
	gate.mu.Lock()
	gate.ch = ch
	gate.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

type gateDetector struct{ detect.Nop }

func (gateDetector) MainTask(*detect.Task, *detect.Finish) {
	gate.mu.Lock()
	ch := gate.ch
	gate.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

func init() {
	detect.RegisterVariant("client-gate", func(detect.FactoryOpts) detect.Detector { return gateDetector{} })
}

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
	return s, client.New(ts.URL + "/") // trailing slash must not produce //v2 paths
}

// recordRacyMonteCarlo records the paper's benign-race benchmark under
// the depth-first executor, so every detector (including ESP-bags) can
// legally consume the trace.
func recordRacyMonteCarlo(t *testing.T) []byte {
	t.Helper()
	return recordRacy(t, true)
}

// recordRacy records RacyMonteCarlo depth-first (seq) or on the pool.
func recordRacy(t *testing.T, seq bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, seq)
	cfg := task.Config{Executor: task.Pool, Workers: 2, Detector: rec}
	if seq {
		cfg = task.Config{Executor: task.Sequential, Detector: rec}
	}
	rt, err := task.New(cfg)
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

// TestClientRoundTrip drives every one-call client method against a
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

// TestClientJobLifecycle drives the job API step by step: submit, wait,
// result, events, delete.
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
	for _, v := range rep.Verdicts {
		if !v.Racy {
			t.Errorf("detector %s: verdict race-free, want racy", v.Detector)
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

// tenantJobs lists c's tenant's jobs: GET /v2/jobs, which the client
// does not wrap.
func tenantJobs(t *testing.T, c *client.Client) []client.JobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/v2/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-SPD3-Tenant", c.Tenant)
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list client.JobList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Jobs
}

// TestClientAnalyze pins the one-call form over /v2: a verdict leaves no
// job behind, a refused submit and a failed job each surface as
// *APIError with their status (the failed job deleted all the same), and
// a context that ends while the job is parked returns the context's
// error, with the job canceled.
func TestClientAnalyze(t *testing.T) {
	ctx := context.Background()
	tr := recordRacyMonteCarlo(t)
	_, c := newDaemon(t, server.Config{})
	c.Tenant = "once"

	rep, err := c.Analyze(ctx, "spd3", bytes.NewReader(tr))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(rep.Verdicts) != 1 || !rep.Verdicts[0].Racy {
		t.Fatalf("verdicts: %+v", rep.Verdicts)
	}
	if jobs := tenantJobs(t, c); len(jobs) != 0 {
		t.Fatalf("Analyze left %d jobs behind: %+v", len(jobs), jobs)
	}

	var apiErr *client.APIError
	_, err = c.Analyze(ctx, "espbags", bytes.NewReader(recordRacy(t, false)))
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("sequential-only detector on a parallel trace: %v, want a 422 *APIError", err)
	}

	// A region past the replay limits: the upload is stored, the job fails.
	_, limited := newDaemon(t, server.Config{Limits: trace.Limits{MaxRegionElems: 2, MaxTotalElems: 2}})
	limited.Tenant = "once"
	_, err = limited.Analyze(ctx, "spd3", bytes.NewReader(tr))
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("job over the replay limits: %v, want a 413 *APIError", err)
	}
	if jobs := tenantJobs(t, limited); len(jobs) != 0 {
		t.Fatalf("a failed Analyze left %d jobs behind", len(jobs))
	}

	release := setGate()
	defer release()
	dctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	if _, err := c.Analyze(dctx, "client-gate", bytes.NewReader(tr)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Analyze past its deadline = %v, want context.DeadlineExceeded", err)
	}
	jobs := tenantJobs(t, c)
	if len(jobs) != 1 {
		t.Fatalf("%d jobs after the deadline, want the canceled one", len(jobs))
	}
	release()
	fin, err := c.WaitJob(ctx, jobs[0].ID)
	if err != nil || fin.State != client.StateCanceled {
		t.Fatalf("job after the deadline: %+v, %v; want canceled", fin, err)
	}
}

// TestClientQuotaRetryAfter pins the typed 429: with the tenant's one
// queue slot held by a parked job, the next submit surfaces as a
// saturated *APIError carrying Retry-After.
func TestClientQuotaRetryAfter(t *testing.T) {
	release := setGate()
	defer release()
	_, c := newDaemon(t, server.Config{Quota: quota.Config{MaxQueuedJobs: 1}})
	c.Tenant = "tight"
	ctx := context.Background()
	tr := recordRacyMonteCarlo(t)

	if _, err := c.SubmitJob(ctx, "client-gate", bytes.NewReader(tr)); err != nil {
		t.Fatalf("parking submit: %v", err)
	}
	_, err := c.SubmitJob(ctx, "", bytes.NewReader(tr))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("SubmitJob over quota = %v, want a 429 *APIError", err)
	}
	if !apiErr.Saturated() {
		t.Error("429 not classified as saturated")
	}
	if apiErr.RetryAfter <= 0 {
		t.Errorf("429 Retry-After = %v, want > 0", apiErr.RetryAfter)
	}
}

// TestStreamEventsCut: a stream cut before its done frame while the job
// is parked is an error wrapping io.ErrUnexpectedEOF, not the nil of a
// finished stream. Two cuts: the daemon's WriteTimeout passing, which
// breaks the chunked body mid-stream, and a deadline that ends the
// handler and so the body cleanly at a frame boundary, as a proxy's read
// timeout does.
func TestStreamEventsCut(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve func(ts *httptest.Server, h http.Handler)
	}{
		{"write timeout", func(ts *httptest.Server, h http.Handler) {
			ts.Config.Handler = h
			ts.Config.WriteTimeout = 200 * time.Millisecond
		}},
		{"clean end", func(ts *httptest.Server, h http.Handler) {
			ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				ctx, cancel := context.WithTimeout(r.Context(), 200*time.Millisecond)
				defer cancel()
				h.ServeHTTP(w, r.WithContext(ctx))
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := setGate()
			defer release()
			s, err := server.Open(server.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewUnstartedServer(nil)
			tc.serve(ts, s.Handler())
			ts.Start()
			defer ts.Close()
			c := client.New(ts.URL)
			ctx := context.Background()

			st, err := c.SubmitJob(ctx, "client-gate", bytes.NewReader(recordRacyMonteCarlo(t)))
			if err != nil {
				t.Fatal(err)
			}
			streamed := make(chan error, 1)
			go func() { streamed <- c.StreamEvents(ctx, st.ID, func(client.Event) bool { return true }) }()
			time.Sleep(400 * time.Millisecond)
			release()
			if err := <-streamed; !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("StreamEvents on a cut stream = %v, want io.ErrUnexpectedEOF", err)
			}
		})
	}
}
