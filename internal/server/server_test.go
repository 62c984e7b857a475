package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spd3/client"
	"spd3/internal/bench"
	"spd3/internal/detect"
	_ "spd3/internal/detectors" // populate the registry, as cmd/spd3d does
	"spd3/internal/mem"
	"spd3/internal/progen"
	"spd3/internal/server/quota"
	"spd3/internal/stats"
	"spd3/internal/task"
	"spd3/internal/trace"
)

// The gate detector lets tests hold an analysis in flight for as long as
// they need: its MainTask blocks until the test releases the gate. It is
// registered as a hidden variant, so it is reachable by name but absent
// from listings and differential mode.
var gate struct {
	mu sync.Mutex
	ch chan struct{}
}

// setGate installs a fresh gate and returns its release function.
func setGate() func() {
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
	detect.RegisterVariant("test-gate", func(detect.FactoryOpts) detect.Detector { return gateDetector{} })
}

// recordProgen records one generated program, sequentially or in
// parallel, and returns the trace bytes.
func recordProgen(t *testing.T, seed int64, seq bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, seq)
	exec, workers := task.Sequential, 1
	if !seq {
		exec, workers = task.Pool, 4
	}
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := progen.Run(rt, progen.Generate(seed, progen.Config{}), nil); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordKernel records one internal/bench program, racy variants
// included, under the depth-first executor, so every detector (including
// ESP-bags) can legally consume the trace.
func recordKernel(t *testing.T, name string, scale float64) []byte {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, true)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(rt, bench.Input{Scale: scale}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordRacyMonteCarlo records the paper's benign-race benchmark.
func recordRacyMonteCarlo(t *testing.T) []byte {
	t.Helper()
	return recordKernel(t, "RacyMonteCarlo", 0.2)
}

// liveVerdict runs the program live under the named detector.
func liveVerdict(t *testing.T, seed int64, name string) bool {
	t.Helper()
	sink := detect.NewSink(false, 0)
	det, err := detect.New(name, detect.FactoryOpts{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	if err := progen.Run(rt, progen.Generate(seed, progen.Config{}), nil); err != nil {
		t.Fatal(err)
	}
	return !sink.Empty()
}

// synthTrace hand-drives the recorder to build a sequential trace with a
// known event count (one MainTask, one region, accesses reads, one
// FinishEnd of the implicit finish).
func synthTrace(t *testing.T, accesses int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, true)
	mt := &detect.Task{ID: 0}
	fin := &detect.Finish{ID: 0}
	mt.IEF = fin
	rec.MainTask(mt, fin)
	sh := rec.NewShadow(detect.Spec("synth", 8, 8))
	for i := 0; i < accesses; i++ {
		sh.Read(mt, i%8)
	}
	rec.FinishEnd(mt, fin)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// analyze is the one-call analysis the tests use where a verdict or a
// failure is the subject, submit → wait → result → delete as
// client.Analyze runs it: a refused submit answers with its own status
// and body, an accepted one with /result's once the job is terminal.
func analyze(t *testing.T, base, query string, body []byte) (int, []byte) {
	t.Helper()
	resp, data := submitV2(t, base, query, "", body)
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, data
	}
	id := decodeJobStatus(t, data).ID
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		res, err := http.Get(base + "/v2/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		data, err = io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusAccepted {
			deleteJob(t, base, id)
			return res.StatusCode, data
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after 30s", id)
		}
	}
}

func decodeReport(t *testing.T, data []byte) *client.Report {
	t.Helper()
	var rep client.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decoding report: %v\n%s", err, data)
	}
	return &rep
}

// statsz is /statsz as the tests read it: the client's gauges, with
// the counters decoded back into a stats.Snapshot so they index by
// stats.Counter.
type statsz struct {
	client.Statsz
	Stats stats.Snapshot `json:"stats"`
}

func getStatsz(t *testing.T, base string) *statsz {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for " + msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatusCodes pins the exact HTTP status of every analysis outcome,
// whether the submit refuses it or the job's /result reports it.
func TestStatusCodes(t *testing.T) {
	seqTrace := recordProgen(t, 1, true)
	parTrace := recordProgen(t, 1, false)

	_, ts := newTestServer(t, Config{})

	t.Run("200 valid trace", func(t *testing.T) {
		status, body := analyze(t, ts.URL, "?detector=spd3", seqTrace)
		if status != http.StatusOK {
			t.Fatalf("status = %d, want 200\n%s", status, body)
		}
		rep := decodeReport(t, body)
		if rep.Tool != Tool || rep.Version != Version || len(rep.Verdicts) != 1 || rep.Verdicts[0].Detector != "spd3" {
			t.Fatalf("bad report envelope: %+v", rep)
		}
		if !rep.Sequential {
			t.Fatal("sequential trace not flagged as such")
		}
	})
	t.Run("400 not a trace", func(t *testing.T) {
		if status, _ := analyze(t, ts.URL, "", []byte("NOTATRACE-NOTATRACE")); status != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", status)
		}
	})
	t.Run("400 truncated trace", func(t *testing.T) {
		if status, _ := analyze(t, ts.URL, "", seqTrace[:len(seqTrace)-1]); status != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", status)
		}
	})
	t.Run("404 unknown detector", func(t *testing.T) {
		status, body := analyze(t, ts.URL, "?detector=nosuch", seqTrace)
		if status != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", status)
		}
		var er client.ErrorReport
		if err := json.Unmarshal(body, &er); err != nil || er.Tool != Tool || er.Status != 404 {
			t.Fatalf("bad error envelope: %s", body)
		}
	})
	t.Run("422 sequential-only detector on parallel trace", func(t *testing.T) {
		if status, _ := analyze(t, ts.URL, "?detector=espbags", parTrace); status != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", status)
		}
	})
	t.Run("405 wrong method", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v2/jobs", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestHostileNestingIs400: testdata/nesting_crasher.trc has a task end a
// finish it did not open, which every detector that restores per-finish
// state trusts the driver not to do (the same bytes panicked a
// since-retired detector in a shard-pool goroutine, which nothing
// recovers, at 30071af). Its last byte is no event kind, so the splitter
// refuses the whole file at submit; without that byte it is well framed,
// is stored, and replay refuses it for every detector. Either way the
// daemon answers 400 and stays up with nothing left in flight.
func TestHostileNestingIs400(t *testing.T) {
	crasher, err := os.ReadFile("testdata/nesting_crasher.trc")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{})
	// Under "all" the first detector to fail cancels the rest of the
	// fan-out, so every registry detector but none is also asked for by
	// name.
	for _, det := range append(eligibleDetectors(true), "all") {
		if status, body := analyze(t, ts.URL, "?detector="+det, crasher); status != http.StatusBadRequest {
			t.Fatalf("detector=%s: status = %d, want 400\n%s", det, status, body)
		}
		framed := crasher[:len(crasher)-1]
		if status, body := analyze(t, ts.URL, "?detector="+det, framed); status != http.StatusBadRequest ||
			!strings.Contains(string(body), "not the innermost finish") {
			t.Fatalf("detector=%s, framed: status = %d, want replay's 400\n%s", det, status, body)
		}
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d after the hostile upload, want 200", hz.StatusCode)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after the hostile upload", n)
	}
}

// TestUnjoinedFinishFails: a trace that ends a finish while a task
// registered in it is live breaks the join rule every detector relies on
// (unrefused, SPD3 and ESP-bags read it race-free and FastTrack and
// Eraser racy).
func TestUnjoinedFinishFails(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, true)
	mt, implicit := &detect.Task{ID: 0}, &detect.Finish{ID: 0}
	mt.IEF = implicit
	rec.MainTask(mt, implicit)
	sh := rec.NewShadow(detect.Spec("x", 8, 8))
	f := &detect.Finish{ID: 1}
	rec.FinishStart(mt, f)
	child := &detect.Task{ID: 1, IEF: f}
	rec.BeforeSpawn(mt, child)
	rec.FinishEnd(mt, f) // child has not ended
	sh.Write(mt, 0)
	sh.Write(child, 0)
	rec.TaskEnd(child)
	rec.FinishEnd(mt, implicit)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	refusedJob(t, buf.Bytes(), "of its tasks live")
}

// TestInterleavedSequentialTraceFails: a trace whose executor byte says
// depth-first, in which main writes element 0 while its child runs and
// the child then writes it, is no recording of a sequential run (unrefused,
// ESP-bags, sound on depth-first order only, reads it race-free and the
// other detectors racy).
func TestInterleavedSequentialTraceFails(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, true)
	mt, implicit := &detect.Task{ID: 0}, &detect.Finish{ID: 0}
	mt.IEF = implicit
	rec.MainTask(mt, implicit)
	sh := rec.NewShadow(detect.Spec("x", 8, 8))
	child := &detect.Task{ID: 1, IEF: implicit}
	rec.BeforeSpawn(mt, child)
	sh.Write(mt, 0) // child is running
	sh.Write(child, 0)
	rec.TaskEnd(child)
	rec.FinishEnd(mt, implicit)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	refusedJob(t, buf.Bytes(), "acts while task 1 runs")
}

// refusedJob submits data, a trace replay refuses for rule, under
// detector=all: the job fails, /result is a 400 naming the rule, and no
// verdict record is kept for its segment.
func refusedJob(t *testing.T, data []byte, rule string) {
	t.Helper()
	root := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: root})
	defer s.Close()
	resp, body := submitV2(t, ts.URL, "?detector=all", "", data)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, body)
	}
	id := decodeJobStatus(t, body).ID
	deadline := time.Now().Add(30 * time.Second)
	for !client.Terminal(jobState(s, id)) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after 30s", id)
		}
		time.Sleep(time.Millisecond)
	}
	if st := jobState(s, id); st != client.StateFailed {
		t.Errorf("job state = %q, want %q", st, client.StateFailed)
	}
	res, err := http.Get(ts.URL + "/v2/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), rule) {
		t.Errorf("/result = %d, want a 400 naming %q\n%s", res.StatusCode, rule, body)
	}
	if recs := records(t, root); len(recs) != 0 {
		t.Errorf("the failed job left %d verdict records", len(recs))
	}
	deleteJob(t, ts.URL, id)
}

// TestBodyCap413: uploads over MaxBodyBytes are refused with 413.
func TestBodyCap413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	if status, _ := analyze(t, ts.URL, "", synthTrace(t, 1000)); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", status)
	}
}

// TestResourceLimit413: a small trace declaring a huge region is refused
// with 413 via trace.ErrLimit, not misfiled as 400.
func TestResourceLimit413(t *testing.T) {
	_, ts := newTestServer(t, Config{Limits: trace.Limits{MaxRegionElems: 2, MaxTotalElems: 2}})
	if status, _ := analyze(t, ts.URL, "", synthTrace(t, 4)); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", status)
	}
}

// TestSaturation429: saturation is the tenant's job queue. With
// MaxQueuedJobs=1 and one job parked on the gate, the next submit is
// shed with 429 + Retry-After before its body is read and counted in
// quota.denied; releasing the gate lets the parked job finish and frees
// the slot.
func TestSaturation429(t *testing.T) {
	release := setGate()
	defer release()
	s, ts := newTestServer(t, Config{Quota: quota.Config{MaxQueuedJobs: 1}})

	tr := synthTrace(t, 16)
	resp, body := submitV2(t, ts.URL, "?detector=test-gate", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gated submit = %d\n%s", resp.StatusCode, body)
	}
	gated := decodeJobStatus(t, body).ID

	resp, _ = submitV2(t, ts.URL, "?detector=spd3", "", tr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Errorf("saturated Retry-After = %q, want \"5\"", ra)
	}

	release()
	waitFor(t, func() bool { return jobState(s, gated) == client.StateDone }, "gated job done")
	st := getStatsz(t, ts.URL)
	if got := st.Stats.Get(stats.QuotaDenied); got != 1 {
		t.Fatalf("quota.denied = %d, want 1", got)
	}
	if status, body := analyze(t, ts.URL, "?detector=spd3", tr); status != http.StatusOK {
		t.Fatalf("after release status = %d, want 200 (slot not freed?)\n%s", status, body)
	}
}

// TestDeadlineCancelsReplay: a client whose deadline expires while its
// job is parked gets the context's error back from client.Analyze, whose
// DELETE cancels the job. The replay stops at its next cancellation poll
// instead of running to completion in the background, and the job ends
// canceled.
func TestDeadlineCancelsReplay(t *testing.T) {
	release := setGate()
	defer release()
	s, ts := newTestServer(t, Config{})

	// Enough events after MainTask that the post-gate replay must cross
	// a cancellation poll before reaching EOF.
	const accesses = 3 * 4096
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	if _, err := client.New(ts.URL).Analyze(ctx, "test-gate-spd3", bytes.NewReader(synthTrace(t, accesses))); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Analyze = %v, want the context's deadline error", err)
	}
	jobs := listJobs(t, ts.URL, "").Jobs
	if len(jobs) != 1 {
		t.Fatalf("%d jobs after the deadline, want the canceled one", len(jobs))
	}
	id := jobs[0].ID
	release()
	waitFor(t, func() bool { return client.Terminal(jobState(s, id)) }, "job terminal")
	if st := jobState(s, id); st != client.StateCanceled {
		t.Fatalf("job state = %q, want canceled", st)
	}
	st := getStatsz(t, ts.URL)
	if got := st.Stats.Get(stats.JobCanceled); got != 1 {
		t.Fatalf("job.canceled = %d, want 1", got)
	}
	if n := st.Stats.Get(stats.CASClean) + st.Stats.Get(stats.CASPublish); n >= accesses {
		t.Fatalf("the canceled replay checked %d of %d accesses: it ran to the end", n, accesses)
	}
}

// TestGracefulShutdown: Drain lets the in-flight job finish while new
// submits get 503 and /healthz flips to draining.
func TestGracefulShutdown(t *testing.T) {
	release := setGate()
	defer release()
	s, ts := newTestServer(t, Config{})

	tr := synthTrace(t, 16)
	resp, body := submitV2(t, ts.URL, "?detector=test-gate", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gated submit = %d\n%s", resp.StatusCode, body)
	}
	gated := decodeJobStatus(t, body).ID

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, s.Draining, "server draining")

	if status, _ := analyze(t, ts.URL, "?detector=spd3", tr); status != http.StatusServiceUnavailable {
		t.Fatalf("status while draining = %d, want 503", status)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hresp.StatusCode)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a job was still in flight", err)
	default:
	}

	release()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := jobState(s, gated); st != client.StateDone {
		t.Fatalf("in-flight job state = %q, want done (drain must not kill it)", st)
	}
}

// TestEndToEndRacyMonteCarlo is the acceptance-criteria round trip: a
// trace recorded by trace.Recorder is POSTed to a running daemon,
// analyzed by spd3 and fasttrack, and both verdicts agree with the live
// run.
func TestEndToEndRacyMonteCarlo(t *testing.T) {
	tr := recordRacyMonteCarlo(t)
	_, ts := newTestServer(t, Config{})

	// Live verdict: RacyMonteCarlo contains the paper's benign WW race.
	sink := detect.NewSink(false, 0)
	det, err := detect.New("spd3", detect.FactoryOpts{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: det})
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
	if sink.Empty() {
		t.Fatal("live spd3 run found no race in RacyMonteCarlo")
	}

	for _, detName := range []string{"spd3", "fasttrack"} {
		status, body := analyze(t, ts.URL, "?detector="+detName, tr)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d\n%s", detName, status, body)
		}
		rep := decodeReport(t, body)
		if len(rep.Verdicts) != 1 || !rep.Verdicts[0].Racy {
			t.Fatalf("%s: verdict disagrees with the live run (racy): %+v", detName, rep.Verdicts)
		}
		if rep.Verdicts[0].RaceCount == 0 || len(rep.Verdicts[0].Races) == 0 {
			t.Fatalf("%s: racy verdict with no races: %+v", detName, rep.Verdicts[0])
		}
	}
}

// TestDifferentialAll: detector=all fans a sequential trace out to every
// legal detector (including ESP-bags) and reports agreement.
func TestDifferentialAll(t *testing.T) {
	tr := recordRacyMonteCarlo(t)
	_, ts := newTestServer(t, Config{})

	status, body := analyze(t, ts.URL, "?detector=all&stats=1", tr)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	rep := decodeReport(t, body)
	if rep.Agree == nil {
		t.Fatal("differential mode did not report agreement")
	}
	got := map[string]bool{}
	for _, v := range rep.Verdicts {
		got[v.Detector] = v.Racy
		if v.Stats == nil {
			t.Errorf("%s: stats=1 verdict missing snapshot", v.Detector)
		}
	}
	for _, want := range []string{"spd3", "fasttrack", "espbags", "eraser"} {
		if _, ok := got[want]; !ok {
			t.Errorf("differential verdicts missing %s (got %v)", want, got)
		}
	}
	if _, ok := got["none"]; ok {
		t.Error("uninstrumented baseline leaked into differential mode")
	}
	// RacyMonteCarlo's benign WW race is visible to every detector here;
	// the daemon must report unanimous agreement.
	if !*rep.Agree {
		t.Fatalf("verdicts disagree: %v", got)
	}
	for name, racy := range got {
		if !racy {
			t.Errorf("%s: verdict race-free, want racy", name)
		}
	}

	// A parallel trace must exclude the sequential-only detectors.
	parTrace := recordProgen(t, 1, false)
	status, body = analyze(t, ts.URL, "?detector=all", parTrace)
	if status != http.StatusOK {
		t.Fatalf("parallel all: status = %d\n%s", status, body)
	}
	rep = decodeReport(t, body)
	for _, v := range rep.Verdicts {
		if v.Detector == "espbags" {
			t.Fatal("sequential-only espbags ran on a parallel trace in differential mode")
		}
	}
}

// recordEscapingAsync records, under the depth-first executor,
//
//	finish { async { write x }; finish { async {} }; write x }
//
// The first async escapes the inner finish, which joins only the task
// spawned inside it, so the two writes to x are parallel: a detector
// that treats the inner finish as a join of everything spawned before
// it misses the race.
func recordEscapingAsync(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, true)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	x := mem.NewVar(rt, "x", 0)
	err = rt.Run(func(c *task.Ctx) {
		c.Finish(func(c *task.Ctx) {
			c.Async(func(c *task.Ctx) { x.Set(c, 1) })
			c.Finish(func(c *task.Ctx) { c.Async(func(*task.Ctx) {}) })
			x.Set(c, 2)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEscapingAsyncAgrees: testdata/escaping_async.trc is
// recordEscapingAsync's output byte for byte (-update rewrites it), and
// under detector=all every detector reports its race.
func TestEscapingAsyncAgrees(t *testing.T) {
	tr := recordEscapingAsync(t)
	const path = "testdata/escaping_async.trc"
	if *updateGolden {
		if err := os.WriteFile(path, tr, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr, committed) {
		t.Fatalf("%s differs from a fresh recording (%d bytes, want %d)", path, len(committed), len(tr))
	}
	_, ts := newTestServer(t, Config{})
	status, body := analyze(t, ts.URL, "?detector=all", committed)
	if status != http.StatusOK {
		t.Fatalf("status = %d\n%s", status, body)
	}
	rep := decodeReport(t, body)
	if rep.Agree == nil || !*rep.Agree || len(rep.Verdicts) != len(eligibleDetectors(true)) {
		t.Fatalf("agree = %v over %d verdicts, want every detector agreeing\n%s", rep.Agree, len(rep.Verdicts), body)
	}
	for _, v := range rep.Verdicts {
		if !v.Racy {
			t.Errorf("%s: verdict race-free, want the escaping async's write-write race", v.Detector)
		}
	}
}

// TestConcurrentClients hammers the daemon from many goroutines (runs
// under the CI -race job): verdicts must stay consistent with the live
// run and the stats aggregate must account for every analysis.
func TestConcurrentClients(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	traces := make(map[int64][]byte, len(seeds))
	want := make(map[int64]bool, len(seeds))
	for _, seed := range seeds {
		traces[seed] = recordProgen(t, seed, true)
		want[seed] = liveVerdict(t, seed, "spd3")
	}

	_, ts := newTestServer(t, Config{})
	const clients, perClient = 8, 6
	var wg sync.WaitGroup
	errc := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seed := seeds[(c+i)%len(seeds)]
				detName := []string{"spd3", "fasttrack"}[i%2]
				status, body := analyze(t, ts.URL, "?detector="+detName, traces[seed])
				if status != http.StatusOK {
					errc <- fmt.Errorf("seed %d %s: status %d: %s", seed, detName, status, body)
					return
				}
				rep := decodeReport(t, body)
				if rep.Verdicts[0].Racy != want[seed] {
					errc <- fmt.Errorf("seed %d %s: verdict %v, live %v", seed, detName, rep.Verdicts[0].Racy, want[seed])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := getStatsz(t, ts.URL)
	if got := st.Stats.Get(stats.SrvAnalyses); got != clients*perClient {
		t.Fatalf("srv.analyses = %d, want %d", got, clients*perClient)
	}
	// Region totals stay zero on replay (only live mem containers feed
	// them); the detector-side counters must have accumulated instead.
	if st.Stats.Get(stats.SrvStreamedBytes) == 0 || st.Stats.Get(stats.CASClean)+st.Stats.Get(stats.CASPublish) == 0 {
		t.Fatalf("stats aggregate empty: bytes=%d cas=%d/%d",
			st.Stats.Get(stats.SrvStreamedBytes), st.Stats.Get(stats.CASClean), st.Stats.Get(stats.CASPublish))
	}
}

// TestNoGoroutineLeak runs one of everything the lifecycle can do — a
// verdict, a malformed upload, an upload that turns malformed after its
// executor and a dozen replays have started, an upload whose client
// leaves mid-body, a job run to done, a job canceled by DELETE while it
// is parked — then Drain and Close, and requires the goroutine count to
// come back to where it was before the server existed.
func TestNoGoroutineLeak(t *testing.T) {
	tr := synthTrace(t, 3*4096)
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	release := setGate()
	defer release()
	s, ts := newTestServer(t, Config{GCInterval: time.Hour, MinSegmentBytes: 1})

	if status, body := analyze(t, ts.URL, "?detector=spd3", tr); status != http.StatusOK {
		t.Fatalf("verdict = %d\n%s", status, body)
	}
	if status, _ := analyze(t, ts.URL, "", []byte("NOTATRACE-NOTATRACE")); status != http.StatusBadRequest {
		t.Fatalf("malformed = %d, want 400", status)
	}
	doomed := append(amplified(t, 12), bytes.Repeat([]byte{0xff}, 64)...)
	if resp, body := submitV2(t, ts.URL, "?detector=spd3", "", doomed); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("upload malformed past its twelfth segment = %d, want 400\n%s", resp.StatusCode, body)
	}

	ctx, leave := context.WithCancel(context.Background())
	stalled, resume := stalledBody(tr[:len(tr)/2], tr[len(tr)/2:])
	postAsync(t, ctx, ts.URL+"/v2/jobs?detector=spd3", "", stalled)
	waitFor(t, func() bool { return s.InFlight() == 1 }, "the stalled upload in flight")
	leave()
	waitFor(t, func() bool { return s.rec.Snapshot().Get(stats.SrvCanceled) == 1 }, "the abandoned upload unwound")
	resume() // the client's transport is still reading the body

	resp, body := submitV2(t, ts.URL, "?detector=spd3", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("v2 = %d\n%s", resp.StatusCode, body)
	}
	doneID := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s, doneID) == client.StateDone }, "v2 job done")

	resp, body = submitV2(t, ts.URL, "?detector=test-gate", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gated v2 = %d\n%s", resp.StatusCode, body)
	}
	gatedID := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s, gatedID) == client.StateRunning }, "gated v2 job running")
	if status := deleteJob(t, ts.URL, gatedID); status != http.StatusAccepted {
		t.Fatalf("DELETE of a running job = %d, want 202", status)
	}
	release()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := jobState(s, gatedID); st != client.StateCanceled {
		t.Errorf("deleted job state = %q, want canceled", st)
	}
	if n := len(listJobs(t, ts.URL, "").Jobs); n != 2 {
		t.Errorf("%d jobs listed, want the done and the canceled one", n)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the server was opened:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
