package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spd3/client"
	"spd3/internal/detect"
	"spd3/internal/server/quota"
	"spd3/internal/server/store"
	"spd3/internal/stats"
	"spd3/internal/trace"
)

// gatedReal wraps a real detector behind the test gate: MainTask blocks
// until the gate opens, then the wrapped detector runs normally. Unlike
// the pure gate detector it produces real verdicts, which is what the
// restart test needs — a job interrupted mid-replay must come back with
// the *correct* result, not just any terminal state.
type gatedReal struct{ detect.Detector }

func (g gatedReal) MainTask(t *detect.Task, f *detect.Finish) {
	gate.mu.Lock()
	ch := gate.ch
	gate.mu.Unlock()
	if ch != nil {
		<-ch
	}
	g.Detector.MainTask(t, f)
}

func init() {
	detect.RegisterVariant("test-gate-spd3", func(o detect.FactoryOpts) detect.Detector {
		d, err := detect.New("spd3", o)
		if err != nil {
			panic(err)
		}
		return gatedReal{d}
	})
}

// submitV2 POSTs a trace to /v2/jobs with an optional tenant header.
func submitV2(t *testing.T, base, query, tenant string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v2/jobs"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if tenant != "" {
		req.Header.Set("X-SPD3-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeJobStatus(t *testing.T, data []byte) *client.JobStatus {
	t.Helper()
	var st client.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding job status: %v\n%s", err, data)
	}
	return &st
}

// jobState polls one job's state straight off the server's table.
func jobState(s *Server, id string) string {
	j := s.lookupJob(id)
	if j == nil {
		return ""
	}
	return j.manifest().State
}

// TestSubmitQueryErrorsMatch: a submit whose query does not validate is
// refused before its body is read, with the status and message its
// error class is pinned to.
func TestSubmitQueryErrorsMatch(t *testing.T) {
	body := recordProgen(t, 1, true)
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, query string
		status      int
		hint        string
	}{
		{"unknown detector", "?detector=nosuch", http.StatusNotFound, `or "all"`},
		{"bad sample spec", "?sample=coin:2", http.StatusBadRequest, "bad sample spec"},
		{"removed page mode", "?sample=page:0.05", http.StatusBadRequest, "have bernoulli, burst, off"},
		{"NaN sample rate", "?sample=bernoulli:NaN", http.StatusBadRequest, "rate must be in (0, 1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := submitV2(t, ts.URL, tc.query, "", body)
			var got client.ErrorReport
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("decoding error envelope: %v\n%s", err, data)
			}
			if resp.StatusCode != tc.status || got.Status != tc.status || !strings.Contains(got.Error, tc.hint) {
				t.Fatalf("%d %+v, want status %d mentioning %q", resp.StatusCode, got, tc.status, tc.hint)
			}
		})
	}
}

// TestSubmitRefusalsMatch: each admission refusal matches its pinned
// answer — 503 and srv.rejected while draining, 429 with Retry-After and
// quota.denied when the tenant's job queue is full — and moves its
// counter by exactly one.
func TestSubmitRefusalsMatch(t *testing.T) {
	body := synthTrace(t, 16)
	for _, tc := range []struct {
		name       string
		cfg        Config
		refuse     func(t *testing.T, s *Server, base string) // put the server in the refusing state
		status     int
		counter    stats.Counter
		retryAfter string
	}{
		{
			name: "draining",
			refuse: func(t *testing.T, s *Server, _ string) {
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			},
			status:  http.StatusServiceUnavailable,
			counter: stats.SrvRejected,
		},
		{
			name: "queue full",
			cfg:  Config{Quota: quota.Config{MaxQueuedJobs: 1}},
			refuse: func(t *testing.T, s *Server, base string) {
				resp, data := submitV2(t, base, "?detector=test-gate", "", body)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("parking submit = %d\n%s", resp.StatusCode, data)
				}
			},
			status:     http.StatusTooManyRequests,
			counter:    stats.QuotaDenied,
			retryAfter: "5",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := setGate()
			defer release()
			s, ts := newTestServer(t, tc.cfg)
			defer s.Close()
			tc.refuse(t, s, ts.URL)
			before := getStatsz(t, ts.URL).Stats.Get(tc.counter)
			resp, data := submitV2(t, ts.URL, "", "", body)
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d\n%s", resp.StatusCode, tc.status, data)
			}
			if ra := resp.Header.Get("Retry-After"); ra != tc.retryAfter {
				t.Errorf("Retry-After = %q, want %q", ra, tc.retryAfter)
			}
			if moved := getStatsz(t, ts.URL).Stats.Get(tc.counter) - before; moved != 1 {
				t.Errorf("moved %s by %d, want 1", tc.counter, moved)
			}
			release()
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestJobLifecycleV2 drives the native async path over HTTP: submit is
// 202 with a Location header, status moves queued→running→done, /result
// returns the envelope, and a second DELETE removes the finished job.
func TestJobLifecycleV2(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	defer s.Close()
	tr := recordRacyMonteCarlo(t)

	resp, body := submitV2(t, ts.URL, "?detector=spd3", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d\n%s", resp.StatusCode, body)
	}
	st := decodeJobStatus(t, body)
	if st.ID == "" || st.Tenant != "default" {
		t.Fatalf("submit body: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v2/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	waitFor(t, func() bool { return jobState(s, st.ID) == client.StateDone }, "job done")

	res, err := http.Get(ts.URL + "/v2/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(res.Body)
	res.Body.Close()
	rep := decodeReport(t, data)
	if len(rep.Verdicts) != 1 || !rep.Verdicts[0].Racy || rep.Verdicts[0].RaceCount == 0 {
		t.Fatalf("job result: %+v", rep)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+st.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", del.StatusCode)
	}
	if s.lookupJob(st.ID) != nil {
		t.Fatal("job still in table after delete")
	}
}

// TestJobRestartResume is the daemon-restart oracle: a job killed
// mid-replay (manifest frozen in state queued, as SIGKILL would leave
// it) must resume when a new daemon opens the same store, finish with
// the correct racy verdict, and leave no orphaned files in tmp/.
func TestJobRestartResume(t *testing.T) {
	dir := t.TempDir()
	tr := recordRacyMonteCarlo(t)

	s1, err := Open(Config{StoreDir: dir, ShardWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	release := setGate()
	defer release()

	resp, body := submitV2(t, ts1.URL, "?detector=test-gate-spd3", "crash", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d\n%s", resp.StatusCode, body)
	}
	id := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s1, id) == client.StateRunning }, "job running")

	// Die. Kill freezes all manifest persistence first, then releasing
	// the gate lets the stuck replay goroutine drain away — whatever it
	// computes is never written, so the disk looks exactly as a SIGKILL
	// mid-replay would have left it.
	s1.Kill()
	release()
	ts1.Close()

	// A leftover staging file from the "crash" must not survive reopen.
	orphan := filepath.Join(dir, "tmp", "put-12345")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{StoreDir: dir, ShardWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	waitFor(t, func() bool { return client.Terminal(jobState(s2, id)) }, "resumed job terminal")
	j := s2.lookupJob(id)
	m := j.manifest()
	if m.State != client.StateDone {
		t.Fatalf("resumed job state = %s (%s), want done", m.State, m.Error)
	}
	if len(m.Result.Verdicts) != 1 || !m.Result.Verdicts[0].Racy || m.Result.Verdicts[0].RaceCount == 0 {
		t.Fatalf("resumed job result: %+v", m.Result)
	}

	st := getStatsz(t, ts2.URL)
	if st.Stats.Get(stats.JobResumed) != 1 {
		t.Errorf("job.resumed = %d, want 1", st.Stats.Get(stats.JobResumed))
	}
	tmps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("tmp/ not empty after restart: %v", tmps)
	}
}

// TestKilledAfterSubmitResumes: between its submit and its end a job's
// manifest on disk is the one the submit wrote, state queued — running
// lives in memory and on the event stream only. A daemon killed while the
// job runs leaves exactly that, and a new daemon on the store resumes the
// job and completes it with the result a daemon that was never killed
// gives the same trace.
func TestKilledAfterSubmitResumes(t *testing.T) {
	dir := t.TempDir()
	tr := recordRacyMonteCarlo(t)
	release := setGate()
	defer release()

	s1, ts1 := newTestServer(t, Config{StoreDir: dir, ShardWorkers: 2})
	resp, body := submitV2(t, ts1.URL, "?detector=test-gate-spd3", "crash", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d\n%s", resp.StatusCode, body)
	}
	id := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s1, id) == client.StateRunning }, "job running")
	s1.Kill()
	data, err := os.ReadFile(filepath.Join(dir, "jobs", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var disk store.Manifest
	if err := json.Unmarshal(data, &disk); err != nil {
		t.Fatal(err)
	}
	if disk.State != client.StateQueued {
		t.Errorf("manifest on disk of a running job: state %s, want %s", disk.State, client.StateQueued)
	}
	release()
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{StoreDir: dir, ShardWorkers: 2})
	defer s2.Close()
	waitFor(t, func() bool { return client.Terminal(jobState(s2, id)) }, "resumed job terminal")
	resumed := normalizeWire(getBody(t, ts2.URL+"/v2/jobs/"+id+"/result"))

	s3, ts3 := newTestServer(t, Config{ShardWorkers: 2})
	defer s3.Close()
	resp, body = submitV2(t, ts3.URL, "?detector=test-gate-spd3", "crash", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reference submit status = %d\n%s", resp.StatusCode, body)
	}
	ref := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return client.Terminal(jobState(s3, ref)) }, "reference job terminal")
	if want := normalizeWire(getBody(t, ts3.URL+"/v2/jobs/"+ref+"/result")); resumed != want {
		t.Errorf("resumed job's result\n%s\nwant the uninterrupted job's\n%s", resumed, want)
	}
	if st := getStatsz(t, ts2.URL); st.Stats.Get(stats.JobResumed) != 1 || st.Stats.Get(stats.JobDone) != 1 {
		t.Errorf("resuming daemon: job.resumed %d, job.done %d, want 1 and 1", st.Stats.Get(stats.JobResumed), st.Stats.Get(stats.JobDone))
	}
}

// TestTenantIsolation is the acceptance criterion for quotas: tenant
// B exhausting its per-tenant job quota is rejected with 429 +
// Retry-After, while tenant A's jobs submit and complete untouched —
// neither B's exhaustion nor B's backlog of segments waiting for B's one
// shard slot ever delays A.
func TestTenantIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ShardWorkers:    2,
		MinSegmentBytes: 1,
		Quota:           quota.Config{MaxQueuedJobs: 1, TenantShards: 1},
	})
	defer s.Close()
	tr := amplified(t, 6)
	release := setGate()
	defer release()

	// B's one allowed job parks on the gate: its first segment holds B's
	// shard slot, the rest queue behind it in B's executor — none of
	// which kept the upload from being read and answered.
	resp, body := submitV2(t, ts.URL, "?detector=test-gate", "tenant-b", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-b submit = %d\n%s", resp.StatusCode, body)
	}
	bJob := decodeJobStatus(t, body)
	if bJob.Segments < 6 {
		t.Fatalf("tenant-b job has %d segments, want a backlog", bJob.Segments)
	}
	bID := bJob.ID
	waitFor(t, func() bool { return jobState(s, bID) == client.StateRunning && s.pool.Busy() == 1 }, "tenant-b job running, one replay parked")

	// B's second job overflows B's quota.
	resp, body = submitV2(t, ts.URL, "?detector=spd3", "tenant-b", tr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant-b overflow = %d, want 429\n%s", resp.StatusCode, body)
	}
	// The queued-jobs rejection advertises its fixed 5s backoff; clients
	// schedule retries off this value, so pin it, not just its presence.
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Errorf("queued-jobs 429 Retry-After = %q, want \"5\"", ra)
	}

	// A is a different tenant: same daemon, fresh quota. Its job must
	// run to completion while B is both gated and over quota.
	resp, body = submitV2(t, ts.URL, "?detector=spd3", "tenant-a", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-a submit = %d, want 202 (B's quota leaked across tenants)\n%s", resp.StatusCode, body)
	}
	aID := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s, aID) == client.StateDone }, "tenant-a job done while B is parked")
	if j := s.lookupJob(aID); !j.manifest().Result.Verdicts[0].Racy {
		t.Error("tenant-a verdict lost its races")
	}

	release()
	waitFor(t, func() bool { return client.Terminal(jobState(s, bID)) }, "tenant-b job finished after release")
	if st := getStatsz(t, ts.URL); st.Stats.Get(stats.QuotaDenied) != 1 {
		t.Errorf("quota.denied = %d, want 1", st.Stats.Get(stats.QuotaDenied))
	}
}

// TestStoreDedupAndSweep pins the CAS economics: submitting the same
// amplified trace twice stores its segments once (the second job is pure
// dedup hits, but its quota charge stays pre-dedup), each result is
// sharded into the segments its status counted, and deleting both jobs
// makes the next GC pass reclaim every blob.
func TestStoreDedupAndSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ShardWorkers:    2,
		MinSegmentBytes: 1 << 10,
	})
	defer s.Close()
	base := recordRacyMonteCarlo(t)
	amplified := func() io.Reader {
		amp, err := trace.NewAmplifier(base, 64)
		if err != nil {
			t.Fatal(err)
		}
		return amp
	}

	resp, body := postReader(t, ts.URL+"/v2/jobs?detector=spd3", amplified())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d\n%s", resp.StatusCode, body)
	}
	st1 := decodeJobStatus(t, body)
	if st1.Segments < 2 {
		t.Fatalf("segments = %d, want the splitter to cut", st1.Segments)
	}
	blobs1, bytes1 := s.Store().Blobs()
	if blobs1 == 0 || bytes1 == 0 {
		t.Fatal("no blobs stored")
	}

	// Same bytes again: a fully deduplicated second job.
	resp, body = postReader(t, ts.URL+"/v2/jobs?detector=spd3", amplified())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d\n%s", resp.StatusCode, body)
	}
	st2 := decodeJobStatus(t, body)
	blobs2, bytes2 := s.Store().Blobs()
	if blobs2 != blobs1 || bytes2 != bytes1 {
		t.Errorf("cas grew on duplicate submit: %d/%d → %d/%d blobs/bytes", blobs1, bytes1, blobs2, bytes2)
	}
	if st2.StoredBytes != st1.StoredBytes || st2.StoredBytes == 0 {
		t.Errorf("quota charge %d (first %d): dedup must not launder quota", st2.StoredBytes, st1.StoredBytes)
	}
	if hits := getStatsz(t, ts.URL).Stats.Get(stats.StoreDedupHits); hits < int64(st2.Segments) {
		t.Errorf("store.dedup_hits = %d, want >= %d (every second-job segment)", hits, st2.Segments)
	}

	waitFor(t, func() bool { return jobState(s, st1.ID) == client.StateDone && jobState(s, st2.ID) == client.StateDone }, "both jobs done")
	for _, st := range []*client.JobStatus{st1, st2} {
		if rep := s.lookupJob(st.ID).manifest().Result; !rep.Sharded || rep.Segments != st.Segments || !rep.Verdicts[0].Racy {
			t.Errorf("job %s result: sharded=%v, %d segments of %d, racy=%v", st.ID, rep.Sharded, rep.Segments, st.Segments, rep.Verdicts[0].Racy)
		}
	}

	for _, id := range []string{st1.ID, st2.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+id, nil)
		del, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		del.Body.Close()
		if del.StatusCode != http.StatusNoContent {
			t.Fatalf("delete %s = %d", id, del.StatusCode)
		}
	}
	if _, swept := s.GC(); swept != blobs1 {
		t.Errorf("swept %d blobs, want %d", swept, blobs1)
	}
	if n, b := s.Store().Blobs(); n != 0 || b != 0 {
		t.Errorf("cas not empty after sweep: %d blobs / %d bytes", n, b)
	}
}

// listJobs fetches GET /v2/jobs with an optional tenant header.
func listJobs(t *testing.T, base, tenant string) *client.JobList {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v2/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-SPD3-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	var list client.JobList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return &list
}

// TestJobListTenantScope pins the listing's tenant mapping to the
// submit side's: no header means the "default" tenant, never a
// cross-tenant view — job ids grant status/result/cancel access, so a
// headerless GET /v2/jobs must not enumerate other tenants' jobs.
func TestJobListTenantScope(t *testing.T) {
	s, ts := newTestServer(t, Config{ShardWorkers: 2})
	defer s.Close()
	tr := recordRacyMonteCarlo(t)

	resp, body := submitV2(t, ts.URL, "?detector=spd3", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("default submit = %d\n%s", resp.StatusCode, body)
	}
	defID := decodeJobStatus(t, body).ID
	resp, body = submitV2(t, ts.URL, "?detector=spd3", "tenant-x", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant-x submit = %d\n%s", resp.StatusCode, body)
	}
	xID := decodeJobStatus(t, body).ID

	noHeader := listJobs(t, ts.URL, "")
	if len(noHeader.Jobs) != 1 || noHeader.Jobs[0].ID != defID || noHeader.Jobs[0].Tenant != "default" {
		t.Errorf("headerless list leaked across tenants: %+v", noHeader.Jobs)
	}
	asX := listJobs(t, ts.URL, "tenant-x")
	if len(asX.Jobs) != 1 || asX.Jobs[0].ID != xID {
		t.Errorf("tenant-x list = %+v, want exactly its own job", asX.Jobs)
	}
}

// TestChunkedSubmitStoredBytesQuota closes the chunked-upload quota
// hole: with no Content-Length the admission estimate is 0, so the
// stored-bytes ceiling must be re-checked when the spill's real size is
// settled. The oversized chunked submit is refused with 429, the
// tenant's gauge stays uncharged (a small follow-up submit succeeds),
// and the refused upload's blobs are sweepable garbage.
func TestChunkedSubmitStoredBytesQuota(t *testing.T) {
	base := recordRacyMonteCarlo(t)
	s, ts := newTestServer(t, Config{
		ShardWorkers:    2,
		MinSegmentBytes: 1 << 10,
		Quota:           quota.Config{MaxStoredBytes: int64(2 * len(base))},
	})
	defer s.Close()

	amp, err := trace.NewAmplifier(base, 64)
	if err != nil {
		t.Fatal(err)
	}
	// postReader ships the amplifier chunked (unknown length), so the
	// admit-time estimate is 0 and only the settle can refuse it.
	resp, body := postReader(t, ts.URL+"/v2/jobs?detector=spd3", amp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized chunked submit = %d, want 429\n%s", resp.StatusCode, body)
	}
	// Stored-bytes exhaustion clears slowly (a job must be deleted or
	// swept), hence the longer fixed 30s backoff; pin the value.
	if ra := resp.Header.Get("Retry-After"); ra != "30" {
		t.Errorf("stored-bytes 429 Retry-After = %q, want \"30\"", ra)
	}
	if len(listJobs(t, ts.URL, "").Jobs) != 0 {
		t.Error("refused submit left a job behind")
	}

	// The failed settle must not have charged the gauge: a submit that
	// fits the ceiling goes through.
	resp, body = postReader(t, ts.URL+"/v2/jobs?detector=spd3", struct{ io.Reader }{bytes.NewReader(base)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("in-quota submit after refusal = %d (gauge leaked?)\n%s", resp.StatusCode, body)
	}
	id := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s, id) == client.StateDone }, "in-quota job done")

	// The refused upload's spilled blobs have no manifest: one GC pass
	// after deleting the good job empties the CAS.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+id, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	s.GC()
	if n, b := s.Store().Blobs(); n != 0 || b != 0 {
		t.Errorf("refused submit's blobs not reclaimed: %d blobs / %d bytes", n, b)
	}
}

// tenantGauges reads one tenant's queue-slot and stored-bytes gauges.
func tenantGauges(s *Server, tenant string) (jobs int, storedBytes int64) {
	jobs, storedBytes, _ = s.quotas.Gauges(tenant)
	return jobs, storedBytes
}

// TestSubmitAfterDrainRefused: a submit cannot slip in underneath the
// handlers either. Once Drain has been called submitJob itself refuses
// before reading the body: no job is registered, no manifest or blob is
// written, and the tenant's gauges stay where they were — so no job can
// be left queued with nothing in this process to run it.
func TestSubmitAfterDrainRefused(t *testing.T) {
	s, _ := newTestServer(t, Config{ShardWorkers: 2})
	defer s.Close()
	tr := recordRacyMonteCarlo(t)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	jobs0, bytes0 := tenantGauges(s, "default")

	body := bytes.NewReader(tr)
	j, err := s.submitJob(context.Background(), body, submitOpts{
		detector: "spd3", tenant: "default", estimate: int64(len(tr)),
	})
	if !errors.Is(err, errDraining) || j != nil {
		t.Fatalf("submitJob while draining = (%v, %v), want errDraining", j, err)
	}
	if body.Len() != len(tr) {
		t.Errorf("refused submit read %d body bytes", len(tr)-body.Len())
	}
	s.jobsMu.Lock()
	registered := len(s.jobs)
	s.jobsMu.Unlock()
	if registered != 0 {
		t.Errorf("%d jobs registered by a refused submit", registered)
	}
	manifests, err := s.Store().LoadManifests()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Store().Blobs(); len(manifests) != 0 || n != 0 {
		t.Errorf("refused submit wrote %d manifests and %d blobs", len(manifests), n)
	}
	if jobs, stored := tenantGauges(s, "default"); jobs != jobs0 || stored != bytes0 {
		t.Errorf("tenant gauges moved: jobs %d→%d, stored bytes %d→%d", jobs0, jobs, bytes0, stored)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after a refused submit", n)
	}
}

// TestDrainVsSubmitHammer races Drain against concurrent submits (run it
// under -race), some of them analyses that wait for their verdict. The drain set admits a submit and its
// job as one unit, so every submit is either refused with 503 or reaches
// a terminal state (or, its upload failing under replays already begun,
// is unwound), Drain returns only once every admitted job is terminal and
// no replay is left on the pool, and nothing is left queued for a later
// daemon.
func TestDrainVsSubmitHammer(t *testing.T) {
	tr := recordRacyMonteCarlo(t)
	// Every third submit dies after a dozen of its segments were stored
	// and handed to the pool: admitted, then unwound with no job.
	doomed := append(amplified(t, 12), bytes.Repeat([]byte{0xff}, 64)...)
	for round := 0; round < 4; round++ {
		s, ts := newTestServer(t, Config{ShardWorkers: 2, MinSegmentBytes: 1})
		const clients = 8
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			accepted []string // ids of 202'd /v2 jobs
			served   atomic.Int64
		)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each client submits until it is refused, so every one of
				// them crosses the drain boundary.
				for i := 0; ; i++ {
					if (c+i)%3 == 2 {
						resp, body := submitV2(t, ts.URL, "?detector=spd3", "", doomed)
						switch resp.StatusCode {
						case http.StatusBadRequest:
							served.Add(1)
							continue
						case http.StatusServiceUnavailable:
							return
						}
						t.Errorf("doomed v2 submit = %d, want 400 or 503\n%s", resp.StatusCode, body)
						return
					}
					if (c+i)%2 == 0 {
						status, body := analyze(t, ts.URL, "?detector=spd3", tr)
						switch status {
						case http.StatusOK:
							served.Add(1)
							continue
						case http.StatusServiceUnavailable:
							return
						}
						t.Errorf("analysis = %d, want 200 or 503\n%s", status, body)
						return
					}
					resp, body := submitV2(t, ts.URL, "?detector=spd3", "", tr)
					switch resp.StatusCode {
					case http.StatusAccepted:
						served.Add(1)
						mu.Lock()
						accepted = append(accepted, decodeJobStatus(t, body).ID)
						mu.Unlock()
						continue
					case http.StatusServiceUnavailable:
						return
					}
					t.Errorf("v2 submit = %d, want 202 or 503\n%s", resp.StatusCode, body)
					return
				}
			}()
		}
		waitFor(t, func() bool { return served.Load() >= int64(2*round) }, "submits before the drain")
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The instant Drain returns: nothing in flight, nothing live.
		if n, busy := s.InFlight(), s.pool.Busy(); n != 0 || busy != 0 {
			t.Errorf("round %d: InFlight = %d, %d replays on the pool after Drain", round, n, busy)
		}
		s.jobsMu.Lock()
		for id, j := range s.jobs {
			if st := j.manifest().State; !client.Terminal(st) {
				t.Errorf("round %d: job %s is %s after Drain returned", round, id, st)
			}
		}
		s.jobsMu.Unlock()
		wg.Wait()
		for _, id := range accepted {
			if st := jobState(s, id); st != client.StateDone {
				t.Errorf("round %d: accepted job %s state = %q, want done", round, id, st)
			}
		}
		manifests, err := s.Store().LoadManifests()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range manifests {
			if !client.Terminal(m.State) {
				t.Errorf("round %d: manifest %s left %s on disk", round, m.ID, m.State)
			}
		}
		if jobs, _ := tenantGauges(s, "default"); jobs != 0 {
			t.Errorf("round %d: tenant holds %d queue slots after Drain", round, jobs)
		}
		ts.Close()
		s.Close()
	}
}

// TestDeleteAfterDoneLeavesNoManifest hammers the done→DELETE window:
// the moment a poller can observe state done, the terminal manifest
// must already be on disk, so the DELETE that follows removes it for
// good. (Before the write-then-publish ordering in finalizeJob, the
// terminal WriteManifest could land after the DELETE's removal,
// resurrecting a manifest no table entry owned — its blobs were then
// pinned against every future sweep.)
func TestDeleteAfterDoneLeavesNoManifest(t *testing.T) {
	s, ts := newTestServer(t, Config{ShardWorkers: 2})
	defer s.Close()
	tr := recordRacyMonteCarlo(t)

	for i := 0; i < 25; i++ {
		resp, body := submitV2(t, ts.URL, "?detector=spd3", "", tr)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d\n%s", resp.StatusCode, body)
		}
		id := decodeJobStatus(t, body).ID
		// Poll the in-memory state as tightly as possible and DELETE the
		// instant it turns terminal — the adversarial client schedule.
		waitFor(t, func() bool { return client.Terminal(jobState(s, id)) }, "job terminal")
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/jobs/"+id, nil)
		del, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		del.Body.Close()
		if del.StatusCode != http.StatusNoContent {
			t.Fatalf("delete = %d, want 204", del.StatusCode)
		}
		manifests, err := s.Store().LoadManifests()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range manifests {
			if m.ID == id {
				t.Fatalf("iteration %d: deleted job's manifest resurrected on disk", i)
			}
		}
	}
	if sweptBlobs, err := s.Store().Sweep(); err != nil {
		t.Fatal(err)
	} else if n, b := s.Store().Blobs(); n != 0 || b != 0 {
		t.Errorf("blobs pinned after all jobs deleted: %d blobs / %d bytes (swept %d)", n, b, sweptBlobs)
	}
}

// postReader is post for streaming bodies (amplifiers are single-use).
func postReader(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPerTenantSampling is the service half of the sampling acceptance
// criterion: a tenant configured with a sampling spec replays gated
// (sample.* counters move, a governor gauge appears in /statsz), an
// unconfigured tenant replays fully checked, a per-request sample=
// override takes precedence over tenant config, and a bad spec is
// refused at submit.
func TestPerTenantSampling(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Sampling: SamplingConfig{
			Tenants: map[string]string{"sampled": "bernoulli:0.5"},
		},
	})
	defer s.Close()
	tr := recordRacyMonteCarlo(t)

	runJob := func(query, tenant string) *client.Report {
		t.Helper()
		resp, body := submitV2(t, ts.URL, query, tenant, tr)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %q tenant %q = %d\n%s", query, tenant, resp.StatusCode, body)
		}
		id := decodeJobStatus(t, body).ID
		waitFor(t, func() bool { return jobState(s, id) == client.StateDone }, "job done")
		res, err := http.Get(ts.URL + "/v2/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(res.Body)
		res.Body.Close()
		return decodeReport(t, data)
	}

	// An unconfigured tenant replays unsampled: every check runs, no
	// tallies, no gauges.
	rep := runJob("?detector=spd3", "")
	if !rep.Verdicts[0].Racy {
		t.Fatal("unsampled replay lost the seeded race")
	}
	st := getStatsz(t, ts.URL)
	if n := st.Stats.Get(stats.SampleChecked) + st.Stats.Get(stats.SampleSkipped); n != 0 {
		t.Errorf("unsampled tenant produced %d sample.* tallies", n)
	}
	if len(st.Sampling) != 0 {
		t.Errorf("unsampled tenant produced sampling gauges: %+v", st.Sampling)
	}

	// The configured tenant's replay runs behind its bernoulli gate.
	runJob("?detector=spd3", "sampled")
	st = getStatsz(t, ts.URL)
	checked := st.Stats.Get(stats.SampleChecked)
	skipped := st.Stats.Get(stats.SampleSkipped)
	if checked == 0 || skipped == 0 {
		t.Errorf("bernoulli:0.5 tallies checked=%d skipped=%d; want both nonzero", checked, skipped)
	}
	if len(st.Sampling) != 1 || st.Sampling[0] != (client.TenantSampling{Tenant: "sampled", Mode: "bernoulli", Rate: 0.5}) {
		t.Errorf("sampling gauges = %+v, want one bernoulli:0.5 row for tenant sampled", st.Sampling)
	}

	// A per-request override beats tenant config: the sampled tenant at
	// burst:1 checks everything, so the verdict must keep its race.
	rep = runJob("?detector=spd3&sample=burst:1", "sampled")
	if !rep.Verdicts[0].Racy {
		t.Fatal("burst:1 override lost the seeded race")
	}
	st = getStatsz(t, ts.URL)
	if len(st.Sampling) != 2 {
		t.Fatalf("sampling gauges = %+v, want the override to add a burst row", st.Sampling)
	}
	if g := st.Sampling[0]; g != (client.TenantSampling{Tenant: "sampled", Mode: "bernoulli", Rate: 0.5}) {
		t.Errorf("gauge[0] = %+v", g)
	}
	if g := st.Sampling[1]; g.Tenant != "sampled" || g.Mode != "burst" || g.Rate != 1 {
		t.Errorf("gauge[1] = %+v, want tenant sampled burst rate 1", g)
	}

	// Bad specs are refused before any bytes are stored.
	for _, spec := range []string{"coin:0.5", "bernoulli:7"} {
		if resp, body := submitV2(t, ts.URL, "?detector=spd3&sample="+spec, "", tr); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad sample spec %s = %d, want 400\n%s", spec, resp.StatusCode, body)
		}
	}
}

// TestSamplingConfigRejected: a sampling configuration the gate cannot
// honour fails Open, NaN included — no range comparison with NaN is true,
// so it has to be refused on purpose.
func TestSamplingConfigRejected(t *testing.T) {
	for name, cfg := range map[string]SamplingConfig{
		"default rate NaN": {Default: "bernoulli:NaN"},
		"tenant rate NaN":  {Tenants: map[string]string{"a": "burst:NaN"}},
		"budget NaN":       {Default: "bernoulli:0.5", Budget: math.NaN()},
		"budget above 1":   {Default: "bernoulli:0.5", Budget: 1.5},
	} {
		if s, err := Open(Config{Sampling: cfg}); err == nil {
			s.Close()
			t.Errorf("%s: Open accepted %+v", name, cfg)
		}
	}
}

// breakDir replaces the directory at path with a regular file — a fault
// that fails every create, mkdir and rename beneath it with ENOTDIR,
// root or not — and returns the repair.
func breakDir(t *testing.T, path string) (repair func()) {
	t.Helper()
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
}

// checkReopen reopens the store at root and requires the rebuilt index
// to count exactly the blobs on disk.
func checkReopen(t *testing.T, root string) {
	t.Helper()
	st, err := store.Open(root)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var files int
	var size int64
	err = filepath.WalkDir(filepath.Join(root, "cas"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		files, size = files+1, size+info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, b := st.Blobs(); n != files || b != size {
		t.Errorf("reopened index holds %d blobs / %d bytes, disk has %d / %d", n, b, files, size)
	}
}

// TestSubmitManifestFault breaks the last step of a submit: the segments
// spill, the quota is charged, and then the manifest cannot be
// published. The submit answers 500 and unwinds completely — no job, no
// queue slot, no stored bytes, nothing in the drain set — and the
// spilled blobs are garbage the next sweep reclaims.
func TestSubmitManifestFault(t *testing.T) {
	root := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: root, ShardWorkers: 2})
	defer s.Close()
	tr := recordRacyMonteCarlo(t)

	repair := breakDir(t, filepath.Join(root, "jobs"))
	resp, body := submitV2(t, ts.URL, "?detector=spd3", "", tr)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit with jobs/ broken = %d, want 500\n%s", resp.StatusCode, body)
	}
	if n := len(listJobs(t, ts.URL, "").Jobs); n != 0 {
		t.Errorf("failed submit left %d jobs in the table", n)
	}
	if jobs, stored := tenantGauges(s, "default"); jobs != 0 || stored != 0 {
		t.Errorf("failed submit holds %d queue slots and %d stored bytes", jobs, stored)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after a failed submit", n)
	}
	if n, _ := s.Store().Blobs(); n == 0 {
		t.Fatal("no blobs spilled before the manifest write; the fault hit too early to test the unwind")
	}

	repair()
	if _, err := s.Store().Sweep(); err != nil {
		t.Fatal(err)
	}
	if n, b := s.Store().Blobs(); n != 0 || b != 0 {
		t.Errorf("spilled blobs not reclaimed: %d blobs / %d bytes", n, b)
	}
	checkReopen(t, root)

	// The daemon is whole again: the same upload now runs to a verdict.
	resp, body = submitV2(t, ts.URL, "?detector=spd3", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after repair = %d\n%s", resp.StatusCode, body)
	}
	id := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s, id) == client.StateDone }, "job done after repair")
}

// deleteJob issues DELETE /v2/jobs/{id} and returns the status code.
func deleteJob(t *testing.T, base, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/v2/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestTenantNameValidated: X-SPD3-Tenant keys the quota table, so every
// endpoint that reads it refuses a name outside 1–64 characters of
// [A-Za-z0-9._-] with a 400 envelope, before the table sees it.
func TestTenantNameValidated(t *testing.T) {
	s, ts := newTestServer(t, Config{ShardWorkers: 2})
	defer s.Close()
	tr := recordRacyMonteCarlo(t)
	call := func(method, path, tenant string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-SPD3-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	endpoints := []struct {
		method, path string
		ok           int
	}{
		{http.MethodPost, "/v2/jobs", http.StatusAccepted},
		{http.MethodGet, "/v2/jobs", http.StatusOK},
	}
	for _, bad := range []string{"two words", "a/b", "tenant:1", "ténant", strings.Repeat("x", 65)} {
		for _, ep := range endpoints {
			status, body := call(ep.method, ep.path, bad, tr)
			var er client.ErrorReport
			if err := json.Unmarshal(body, &er); status != http.StatusBadRequest || err != nil ||
				er.Status != http.StatusBadRequest || !strings.Contains(er.Error, "X-SPD3-Tenant") {
				t.Errorf("%s %s as %q = %d %s, want a 400 envelope naming the header", ep.method, ep.path, bad, status, body)
			}
		}
	}
	if _, _, tenants := s.quotas.Gauges(""); tenants != 0 {
		t.Errorf("refused names reached the quota table: %d tenants", tenants)
	}
	for _, good := range []string{"a", "Team-7_eu.west", strings.Repeat("x", 64)} {
		for _, ep := range endpoints {
			if status, body := call(ep.method, ep.path, good, tr); status != ep.ok {
				t.Errorf("%s %s as %q = %d, want %d\n%s", ep.method, ep.path, good, status, ep.ok, body)
			}
		}
	}
}

// TestTenantTableSwept: a tenant name costs the daemon memory only
// while the tenant holds something. A thousand tenants that each run a
// job to its result and delete it are all forgotten by the next GC, in
// the quota table and in the sampler table; a tenant with a live job and
// one with a stored result are not.
func TestTenantTableSwept(t *testing.T) {
	s, ts := newTestServer(t, Config{ShardWorkers: 2, Sampling: SamplingConfig{Default: "bernoulli:0.5"}})
	defer s.Close()
	tr := recordRacyMonteCarlo(t)
	run := func(tenant, query string) string {
		t.Helper()
		resp, body := submitV2(t, ts.URL, query, tenant, tr)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s submit = %d\n%s", tenant, resp.StatusCode, body)
		}
		return decodeJobStatus(t, body).ID
	}
	for i := 0; i < 1000; i++ {
		id := run(fmt.Sprintf("tenant-%d", i), "?detector=spd3")
		waitFor(t, func() bool { return jobState(s, id) == client.StateDone }, "job done")
		if rep := decodeReport(t, getBody(t, ts.URL+"/v2/jobs/"+id+"/result")); len(rep.Verdicts) != 1 {
			t.Fatalf("result: %+v", rep)
		}
		if status := deleteJob(t, ts.URL, id); status != http.StatusNoContent {
			t.Fatalf("delete = %d", status)
		}
	}
	release := setGate()
	defer release()
	liveID := run("live", "?detector=test-gate")
	waitFor(t, func() bool { return jobState(s, liveID) == client.StateRunning }, "gated job running")
	waitFor(t, func() bool { return len(s.samplers.gauges()) == 1001 }, "gated replay holding its sampler")
	storedID := run("stored", "?detector=spd3")
	waitFor(t, func() bool { return jobState(s, storedID) == client.StateDone }, "job done")

	if _, _, tenants := s.quotas.Gauges(""); tenants != 1002 {
		t.Fatalf("table holds %d tenants before GC, want 1002", tenants)
	}
	s.GC()
	jobs, _, tenants := s.quotas.Gauges("live")
	_, stored, _ := s.quotas.Gauges("stored")
	if tenants != 2 || jobs != 1 || stored != int64(len(tr)) {
		t.Fatalf("after GC: %d tenants, live holds %d jobs, stored holds %d bytes; want 2, 1, %d", tenants, jobs, stored, len(tr))
	}
	// The sampler table forgets with the quota table: one row each for
	// the live and the stored tenant, not one per name ever sent.
	if rows := getStatsz(t, ts.URL).Sampling; len(rows) != 2 || rows[0].Tenant != "live" || rows[1].Tenant != "stored" {
		t.Fatalf("after GC: %d sampling rows (first %+v), want one for live and one for stored", len(rows), rows[:min(len(rows), 2)])
	}

	release()
	waitFor(t, func() bool { return client.Terminal(jobState(s, liveID)) }, "gated job terminal")
	for _, id := range []string{liveID, storedID} {
		if status := deleteJob(t, ts.URL, id); status != http.StatusNoContent {
			t.Fatalf("delete = %d", status)
		}
	}
	s.GC()
	if _, _, tenants := s.quotas.Gauges(""); tenants != 0 {
		t.Errorf("table holds %d tenants after everything was deleted", tenants)
	}
	if rows := getStatsz(t, ts.URL).Sampling; len(rows) != 0 {
		t.Errorf("%d sampling rows after everything was deleted", len(rows))
	}
}

// stalledStream is an SSE response whose first Flush blocks until gate
// closes: a subscriber that reads nothing while the job runs.
type stalledStream struct {
	*httptest.ResponseRecorder
	gate chan struct{}
}

func (w stalledStream) Flush() {
	<-w.gate
	w.ResponseRecorder.Flush()
}

// TestSlowSubscriberGetsDone: a subscriber that falls more than its
// buffer's 256 frames behind loses race events, never the done frame
// that ends its stream.
func TestSlowSubscriberGetsDone(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	defer s.Close()
	now := time.Now()
	j := adoptJob(t, s, &store.Manifest{
		ID: "jslow", Tenant: "default", Detector: "spd3",
		State: client.StateRunning, CreatedAt: now, UpdatedAt: now,
	})
	w := stalledStream{httptest.NewRecorder(), make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v2/jobs/jslow/events", nil))
	}()
	waitFor(t, func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.subs) == 1
	}, "subscriber")
	const sent = 300
	for i := range sent {
		j.broadcast(raceEvent("spd3", client.Race{Kind: "write-write", Region: "a", Index: i}))
	}
	s.finalizeJob(j, nil, now)
	close(w.gate)
	<-served

	frames := strings.Split(strings.TrimSuffix(w.Body.String(), "\n\n"), "\n\n")
	races := len(frames) - 1
	if races < 1 || races >= sent || !strings.HasPrefix(frames[races], "event: done\n") {
		t.Fatalf("slow subscriber got %d frames, last %q; want some of the %d races, then done",
			len(frames), frames[len(frames)-1], sent)
	}
	for _, f := range frames[:races] {
		if !strings.HasPrefix(f, "event: race\n") {
			t.Fatalf("frame before done: %q", f)
		}
	}
}

// TestIdleStreamOutlivesWriteTimeout: the server's WriteTimeout bounds
// each frame's write, not the stream, so a job parked for longer than it
// still ends its stream with the done frame.
func TestIdleStreamOutlivesWriteTimeout(t *testing.T) {
	release := setGate()
	defer release()
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.WriteTimeout = 200 * time.Millisecond
	ts.Start()
	defer ts.Close()

	resp, body := submitV2(t, ts.URL, "?detector=test-gate", "", recordProgen(t, 1, true))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	id := decodeJobStatus(t, body).ID
	stream, err := http.Get(ts.URL + "/v2/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	time.AfterFunc(500*time.Millisecond, release)
	data, err := io.ReadAll(stream.Body)
	if err != nil {
		t.Fatalf("stream cut after %d bytes: %v", len(data), err)
	}
	frames := strings.Split(strings.TrimSuffix(string(data), "\n\n"), "\n\n")
	if last := frames[len(frames)-1]; !strings.HasPrefix(last, "event: done\n") {
		t.Fatalf("stream ended with %q, want the done frame", last)
	}
}
