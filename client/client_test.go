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
	s := openDaemon(t, cfg)
	c, _ := serve(t, s, nil)
	return s, c
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
	rmc, err := bench.ByName("RacyMonteCarlo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rmc.Run(rt, bench.Input{Scale: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
// job behind, and a refused submit and a failed job each surface as
// *APIError with their status (the failed job deleted all the same).
// TestWaitJobCanceledContext covers a context that ends mid-wait.
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

// cuts are two deadlines that pass while a stream's job is parked. Each
// sets up the listener ts to serve h. The daemon's WriteTimeout does not
// cut the stream: the handler moves the write deadline on with each
// frame, so the stream ends with its done frame. A deadline that ends the
// handler, as a proxy's read timeout does, ends the body cleanly at a
// frame boundary before the done frame: a cut.
var cuts = []struct {
	name  string
	serve func(ts *httptest.Server, h http.Handler)
	cut   bool
}{
	{"write timeout", func(ts *httptest.Server, h http.Handler) {
		ts.Config.Handler = h
		ts.Config.WriteTimeout = 200 * time.Millisecond
	}, false},
	{"clean end", func(ts *httptest.Server, h http.Handler) {
		ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), 200*time.Millisecond)
			defer cancel()
			h.ServeHTTP(w, r.WithContext(ctx))
		})
	}, true},
}

// hits counts a daemon's requests by "METHOD path".
type hits struct {
	mu sync.Mutex
	n  map[string]int
}

func (h *hits) get(key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n[key]
}

// serve starts s behind a request counter on an httptest listener, set
// up by cut when it is not nil, and returns a client pointed at it.
func serve(t *testing.T, s *server.Server, cut func(*httptest.Server, http.Handler)) (*client.Client, *hits) {
	t.Helper()
	h := &hits{n: map[string]int{}}
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		h.n[r.Method+" "+r.URL.Path]++
		h.mu.Unlock()
		s.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewUnstartedServer(counted)
	if cut != nil {
		cut(ts, counted)
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return client.New(ts.URL + "/"), h // trailing slash must not produce //v2 paths
}

// openDaemon opens an in-process spd3d, closed when the test ends.
func openDaemon(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// eventually waits up to five seconds for cond.
func eventually(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// submitGated submits a job that parks in the gate detector.
func submitGated(t *testing.T, c *client.Client) string {
	t.Helper()
	st, err := c.SubmitJob(context.Background(), "client-gate", bytes.NewReader(recordRacyMonteCarlo(t)))
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

type waited struct {
	st  *client.JobStatus
	err error
}

// waitJob runs c.WaitJob on its own goroutine.
func waitJob(ctx context.Context, c *client.Client, id string) <-chan waited {
	out := make(chan waited, 1)
	go func() {
		st, err := c.WaitJob(ctx, id)
		out <- waited{st, err}
	}()
	return out
}

// TestStreamEventsCut: a stream cut before its done frame while the job
// is parked is an error wrapping io.ErrUnexpectedEOF, not the nil of a
// finished stream; a stream the deadline does not cut ends with nil.
func TestStreamEventsCut(t *testing.T) {
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			release := setGate()
			defer release()
			c, _ := serve(t, openDaemon(t, server.Config{}), tc.serve)
			id := submitGated(t, c)
			streamed := make(chan error, 1)
			go func() { streamed <- c.StreamEvents(context.Background(), id, func(client.Event) bool { return true }) }()
			time.Sleep(400 * time.Millisecond)
			release()
			err := <-streamed
			if tc.cut && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("StreamEvents on a cut stream = %v, want io.ErrUnexpectedEOF", err)
			}
			if !tc.cut && err != nil {
				t.Fatalf("StreamEvents past the deadline = %v, want nil", err)
			}
		})
	}
}

// TestWaitJobTerminalFirst: a job already terminal when the wait starts
// costs one stream, which is only its replay and done frame, and one
// GET.
func TestWaitJobTerminalFirst(t *testing.T) {
	c, h := serve(t, openDaemon(t, server.Config{}), nil)
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, "spd3", bytes.NewReader(recordRacyMonteCarlo(t)))
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, func() bool {
		cur, err := c.GetJob(ctx, st.ID)
		return err == nil && client.Terminal(cur.State)
	}, "the job to end")
	before := h.get("GET /v2/jobs/" + st.ID)
	fin, err := c.WaitJob(ctx, st.ID)
	if err != nil || fin.State != client.StateDone || fin.RaceCount == 0 {
		t.Fatalf("WaitJob on a finished job = %+v, %v; want done with races", fin, err)
	}
	if n, e := h.get("GET /v2/jobs/"+st.ID)-before, h.get("GET /v2/jobs/"+st.ID+"/events"); n != 1 || e != 1 {
		t.Fatalf("WaitJob made %d GETs and %d streams, want 1 and 1", n, e)
	}
}

// TestWaitJobNoPoll: while the job is live WaitJob only holds its
// stream open; it makes one GET, after the done frame.
func TestWaitJobNoPoll(t *testing.T) {
	release := setGate()
	defer release()
	c, h := serve(t, openDaemon(t, server.Config{}), nil)
	id := submitGated(t, c)
	got := waitJob(context.Background(), c, id)
	eventually(t, func() bool { return h.get("GET /v2/jobs/"+id+"/events") == 1 }, "the stream")
	time.Sleep(300 * time.Millisecond)
	if n := h.get("GET /v2/jobs/" + id); n != 0 {
		t.Fatalf("%d GETs while the job was live, want 0", n)
	}
	release()
	w := <-got
	if w.err != nil || w.st.State != client.StateDone {
		t.Fatalf("WaitJob = %+v, %v; want done", w.st, w.err)
	}
	if n, e := h.get("GET /v2/jobs/"+id), h.get("GET /v2/jobs/"+id+"/events"); n != 1 || e != 1 {
		t.Fatalf("WaitJob made %d GETs and %d streams, want 1 and 1", n, e)
	}
}

// TestWaitJobCut: a stream cut while the job runs costs one GET, which
// finds the job live, and a new stream; WaitJob returns done once the
// gate opens. Every stream but a last one that saw the done frame was
// cut, and each cut made one GET, so the two counts match. A stream the
// deadline does not cut costs one stream and one GET.
func TestWaitJobCut(t *testing.T) {
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			release := setGate()
			defer release()
			c, h := serve(t, openDaemon(t, server.Config{}), tc.serve)
			id := submitGated(t, c)
			got := waitJob(context.Background(), c, id)
			eventually(t, func() bool { return h.get("GET /v2/jobs/"+id+"/events") == 1 }, "the stream")
			time.Sleep(500 * time.Millisecond)
			release()
			w := <-got
			if w.err != nil || w.st.State != client.StateDone {
				t.Fatalf("WaitJob over cut streams = %+v, %v; want done", w.st, w.err)
			}
			n, e := h.get("GET /v2/jobs/"+id), h.get("GET /v2/jobs/"+id+"/events")
			if tc.cut && n != e {
				t.Fatalf("WaitJob made %d GETs over %d streams, want one each", n, e)
			}
			if !tc.cut && (n != 1 || e != 1) {
				t.Fatalf("WaitJob made %d GETs and %d streams, want 1 and 1", n, e)
			}
		})
	}
}

// TestWaitJobCanceledContext: a context that ends mid-stream ends
// WaitJob with the context's error, and Analyze cancels its job, waits
// for the cancellation to land and deletes the job.
func TestWaitJobCanceledContext(t *testing.T) {
	release := setGate()
	defer release()
	c, h := serve(t, openDaemon(t, server.Config{}), nil)
	c.Tenant = "once"
	id := submitGated(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	got := waitJob(ctx, c, id)
	eventually(t, func() bool { return h.get("GET /v2/jobs/"+id+"/events") == 1 }, "the stream")
	cancel()
	if w := <-got; !errors.Is(w.err, context.Canceled) {
		t.Fatalf("WaitJob after cancel = %+v, %v; want context.Canceled", w.st, w.err)
	}
	release()
	if fin, err := c.WaitJob(context.Background(), id); err != nil || fin.State != client.StateDone {
		t.Fatalf("job left by the canceled wait: %+v, %v; want done", fin, err)
	}
	if err := c.DeleteJob(context.Background(), id); err != nil {
		t.Fatal(err)
	}

	release = setGate()
	defer release()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	analyzed := make(chan error, 1)
	go func() {
		_, err := c.Analyze(ctx, "client-gate", bytes.NewReader(recordRacyMonteCarlo(t)))
		analyzed <- err
	}()
	var jobs []client.JobStatus
	eventually(t, func() bool { jobs = tenantJobs(t, c); return len(jobs) == 1 }, "the submit")
	events := "GET /v2/jobs/" + jobs[0].ID + "/events"
	eventually(t, func() bool { return h.get(events) == 1 }, "the stream")
	cancel()
	// The second stream follows the DELETE's 202: the job is canceling.
	eventually(t, func() bool { return h.get(events) == 2 }, "the wait for the cancellation")
	release()
	if err := <-analyzed; !errors.Is(err, context.Canceled) {
		t.Fatalf("Analyze after cancel = %v, want context.Canceled", err)
	}
	if jobs := tenantJobs(t, c); len(jobs) != 0 {
		t.Fatalf("Analyze left %d jobs behind: %+v", len(jobs), jobs)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Stats.Get("job.canceled"); n != 1 {
		t.Fatalf("job.canceled = %d, want 1", n)
	}
}

// TestWaitJobDeleted: a DELETE while a caller waits cancels the job, and
// the wait returns state canceled.
func TestWaitJobDeleted(t *testing.T) {
	release := setGate()
	defer release()
	c, h := serve(t, openDaemon(t, server.Config{}), nil)
	id := submitGated(t, c)
	got := waitJob(context.Background(), c, id)
	eventually(t, func() bool { return h.get("GET /v2/jobs/"+id+"/events") == 1 }, "the stream")
	if err := c.CancelJob(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	release()
	if w := <-got; w.err != nil || w.st.State != client.StateCanceled {
		t.Fatalf("WaitJob on a deleted job = %+v, %v; want canceled", w.st, w.err)
	}
}

// TestWaitJobAfterRestart: a job a killed daemon left running resumes
// when a new daemon opens the same store, and a wait on the new daemon
// follows it to done.
func TestWaitJobAfterRestart(t *testing.T) {
	dir := t.TempDir()
	release := setGate()
	defer release()
	s1 := openDaemon(t, server.Config{StoreDir: dir, ShardWorkers: 2})
	c1, _ := serve(t, s1, nil)
	id := submitGated(t, c1)
	// Die as SIGKILL would: Kill freezes manifest persistence, so the
	// replay the gate releases leaves the job running on disk.
	s1.Kill()
	release()
	s1.Close()

	release = setGate()
	defer release()
	c2, h := serve(t, openDaemon(t, server.Config{StoreDir: dir, ShardWorkers: 2}), nil)
	got := waitJob(context.Background(), c2, id)
	eventually(t, func() bool { return h.get("GET /v2/jobs/"+id+"/events") == 1 }, "the stream")
	release()
	if w := <-got; w.err != nil || w.st.State != client.StateDone {
		t.Fatalf("WaitJob on the resumed job = %+v, %v; want done", w.st, w.err)
	}
}
