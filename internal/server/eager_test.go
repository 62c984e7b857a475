package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spd3/client"
	"spd3/internal/server/store"
	"spd3/internal/stats"
	"spd3/internal/trace"
)

// hold is a reader that blocks until it is closed and then reports EOF:
// spliced between two halves of a body it stalls the upload exactly
// there for as long as the test needs.
type hold chan struct{}

func (h hold) Read([]byte) (int, error) {
	<-h
	return 0, io.EOF
}

// stalledBody is head, then a stall the returned func ends (once; later
// calls are no-ops), then tail.
func stalledBody(head, tail []byte) (body io.Reader, resume func()) {
	h := make(hold)
	var once sync.Once
	return io.MultiReader(bytes.NewReader(head), h, bytes.NewReader(tail)), func() { once.Do(func() { close(h) }) }
}

// stored counts the segments the daemon has put so far, new and dedup.
func stored(s *Server) int64 {
	blobs, _ := s.Store().Blobs()
	return int64(blobs) + s.rec.Snapshot().Get(stats.StoreDedupHits)
}

type httpResult struct {
	status int
	body   []byte
}

// postAsync POSTs body (chunked, as it is read) and delivers the answer;
// a request that ctx ended delivers the zero httpResult.
func postAsync(t *testing.T, ctx context.Context, url, tenant string, body io.Reader) <-chan httpResult {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-SPD3-Tenant", tenant)
	}
	done := make(chan httpResult, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				t.Errorf("POST %s: %v", url, err)
			}
			done <- httpResult{}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		done <- httpResult{resp.StatusCode, data}
	}()
	return done
}

// TestUploadFailsMidReplay forces each way an upload can die after the
// daemon has begun replaying it: three or more segments are stored and
// the pool holds gated replays of them when the body turns hostile (400),
// outgrows MaxBodyBytes (413), or its client leaves mid-body (504, to
// nobody, counted in srv.canceled). The submit must cancel those replays
// and wait them out — the answer cannot come, nor the drain-set slot go
// back, while one is still on the pool — and then leave nothing: no job,
// no manifest, no slot, no quota, no count.
func TestUploadFailsMidReplay(t *testing.T) {
	tr := amplified(t, 24)
	cut := len(tr) / 2
	for _, tc := range []struct {
		name   string
		cfg    Config
		tail   []byte
		leave  bool // the client cancels its request instead of sending the tail
		status int
	}{
		{name: "hostile bytes 400", tail: bytes.Repeat([]byte{0xff}, 64), status: http.StatusBadRequest},
		{name: "body cap 413", cfg: Config{MaxBodyBytes: int64(cut) + 16}, tail: tr[cut:], status: http.StatusRequestEntityTooLarge},
		{name: "client gone 504", leave: true, status: http.StatusGatewayTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := setGate()
			defer release()
			cfg := tc.cfg
			cfg.ShardWorkers, cfg.MinSegmentBytes = 2, 1
			s, ts := newTestServer(t, cfg)
			defer s.Close()
			jobs0, bytes0 := tenantGauges(s, "mid")
			snap0 := s.rec.Snapshot()

			ctx, leave := context.WithCancel(context.Background())
			defer leave()
			body, resume := stalledBody(tr[:cut], tc.tail)
			defer resume()
			done := postAsync(t, ctx, ts.URL+"/v2/jobs?detector=test-gate-spd3", "mid", body)
			waitFor(t, func() bool { return stored(s) >= 3 && s.pool.Busy() >= 1 }, "three stored segments and a replay on the pool")

			// Fail the upload, then keep the gate shut a while longer: the
			// replays cannot return, so neither may the submit. A client
			// that left hears nothing; the daemon's 504 shows in its count.
			if tc.leave {
				leave()
			} else {
				resume()
			}
			answer := func() (status int, ok bool) {
				if tc.leave {
					return http.StatusGatewayTimeout, s.rec.Snapshot().Get(stats.SrvCanceled) > snap0.Get(stats.SrvCanceled)
				}
				select {
				case res := <-done:
					return res.status, true
				default:
					return 0, false
				}
			}
			opened := time.After(150 * time.Millisecond)
			var status int
			for gateOpen, answered := false, false; !answered; {
				select {
				case <-opened:
					release()
					gateOpen = true
				default:
				}
				if status, answered = answer(); answered {
					if !gateOpen {
						t.Fatalf("answered %d while its replays were still parked on the gate", status)
					}
					break
				}
				// Busy is read second: a replay seen on the pool after
				// the drain set was seen empty outlived its upload.
				if s.InFlight() == 0 && s.pool.Busy() > 0 {
					t.Fatal("drain-set slot returned while a replay of the failed upload was still running")
				}
				time.Sleep(time.Millisecond)
			}
			if status != tc.status {
				t.Fatalf("status = %d, want %d", status, tc.status)
			}

			if n := len(listJobs(t, ts.URL, "mid").Jobs); n != 0 {
				t.Errorf("failed upload left %d jobs in the listing", n)
			}
			if manifests, err := s.Store().LoadManifests(); err != nil || len(manifests) != 0 {
				t.Errorf("failed upload left %d manifests on disk (%v)", len(manifests), err)
			}
			if n := s.InFlight(); n != 0 {
				t.Errorf("InFlight = %d", n)
			}
			if busy := s.pool.Busy(); busy != 0 {
				t.Errorf("pool holds %d replays", busy)
			}
			if jobs, stored := tenantGauges(s, "mid"); jobs != jobs0 || stored != bytes0 {
				t.Errorf("tenant gauges moved: jobs %d→%d, stored bytes %d→%d", jobs0, jobs, bytes0, stored)
			}
			snap := s.rec.Snapshot()
			if n := snap.Get(stats.JobSubmitted); n != snap0.Get(stats.JobSubmitted) {
				t.Errorf("job.submitted moved %d→%d", snap0.Get(stats.JobSubmitted), n)
			}
			s.jobsMu.Lock()
			for id, j := range s.jobs {
				if !client.Terminal(j.manifest().State) {
					t.Errorf("job %s is %s in the job table", id, j.manifest().State)
				}
			}
			s.jobsMu.Unlock()
			want := snap0.Get(stats.SrvCanceled)
			if tc.leave {
				want++
			}
			if n := snap.Get(stats.SrvCanceled); n != want {
				t.Errorf("srv.canceled = %d, want %d", n, want)
			}
		})
	}
}

// TestNoBackpressure: the body reader never waits on a replay. With the
// pool and the tenant's semaphore both full of gated replays, a
// multi-segment upload is still read to its end and answered 202, and so
// is another tenant's behind it; all the waiting is the executors'.
func TestNoBackpressure(t *testing.T) {
	release := setGate()
	defer release()
	s, ts := newTestServer(t, Config{ShardWorkers: 2, MinSegmentBytes: 1})
	defer s.Close()
	tr := amplified(t, 12)

	var ids []string
	for _, tenant := range []string{"first", "second"} {
		var res httpResult
		select {
		case res = <-postAsync(t, context.Background(), ts.URL+"/v2/jobs?detector=test-gate-spd3", tenant, bytes.NewReader(tr)):
		case <-time.After(5 * time.Second):
			t.Fatalf("tenant %s: no answer with the pool full: the upload is waiting on a replay", tenant)
		}
		if res.status != http.StatusAccepted {
			t.Fatalf("tenant %s: submit = %d\n%s", tenant, res.status, res.body)
		}
		st := decodeJobStatus(t, res.body)
		if st.Segments < 3 || st.TraceBytes != int64(len(tr)) {
			t.Fatalf("tenant %s: %d segments, %d of %d bytes read", tenant, st.Segments, st.TraceBytes, len(tr))
		}
		ids = append(ids, st.ID)
		if busy := s.pool.Busy(); busy != 2 {
			t.Fatalf("pool holds %d replays after tenant %s's upload, want it full", busy, tenant)
		}
	}
	release()
	for _, id := range ids {
		waitFor(t, func() bool { return jobState(s, id) == client.StateDone }, "job done once the gate opens")
		if v := s.lookupJob(id).manifest().Result.Verdicts[0]; !v.Racy {
			t.Errorf("job %s lost its race", id)
		}
	}
}

// adoptJob registers a job for a manifest whose segments are already in
// the store, the way resumeJobs adopts one it loaded: drain-set slot,
// quota, table entry, queued. The caller marks it running and starts its
// executor.
func adoptJob(t *testing.T, s *Server, m *store.Manifest) *Job {
	t.Helper()
	j := newJob(m)
	if err := s.acquire(); err != nil {
		t.Fatal(err)
	}
	s.quotas.Restore(m.Tenant, m.StoredBytes(), true)
	s.jobsMu.Lock()
	s.jobs[m.ID] = j
	s.jobsMu.Unlock()
	return j
}

// TestEagerReplayMatchesResume: what a job finds does not depend on when
// its segments reached the executor. A job fed segment by segment while
// the second half of its body was held back — until a replay of the first
// half had started — ends with the same verdicts, races (witnesses too), segment
// count and merged cas.*/dmhp.*/mem.* counters as a job handed the same
// refs all at once, the way resumeJobs hands over a loaded manifest.
func TestEagerReplayMatchesResume(t *testing.T) {
	s, ts := newTestServer(t, Config{ShardWorkers: 2, MinSegmentBytes: 1})
	defer s.Close()
	for _, kernel := range []struct {
		name  string
		scale float64
	}{{"SOR", 0.1}, {"Sparse", 0.05}, {"RacyMonteCarlo", 0.2}} {
		base := recordKernel(t, kernel.name, kernel.scale)
		times8, err := trace.AmplifyBytes(base, 8)
		if err != nil {
			t.Fatal(err)
		}
		for form, tr := range map[string][]byte{"x1": base, "x8": times8} {
			for _, detector := range []string{"spd3", "all"} {
				name := kernel.name + " " + form + " " + detector
				replays0 := s.rec.Snapshot().Get(stats.JobSegmentReplays)
				body, resume := stalledBody(tr[:len(tr)/2], tr[len(tr)/2:])
				t.Cleanup(resume)
				done := postAsync(t, context.Background(), ts.URL+"/v2/jobs?stats=1&detector="+detector, "", body)
				if form == "x8" {
					// Four copies, each closing with a cut: the first half
					// alone gets replays going.
					waitFor(t, func() bool { return s.rec.Snapshot().Get(stats.JobSegmentReplays) > replays0 }, name+": a replay during the upload")
				}
				resume()
				res := <-done
				if res.status != http.StatusAccepted {
					t.Fatalf("%s: submit = %d\n%s", name, res.status, res.body)
				}
				id := decodeJobStatus(t, res.body).ID
				waitFor(t, func() bool { return client.Terminal(jobState(s, id)) }, name+": eager job terminal")
				eager := s.lookupJob(id).manifest()

				// The same refs, all present before the executor starts.
				now := time.Now()
				j := adoptJob(t, s, &store.Manifest{
					ID: "jresume", Tenant: eager.Tenant, Detector: eager.Detector, Sequential: eager.Sequential,
					WithStats: true, Sharded: true, Segments: eager.Segments, TraceBytes: eager.TraceBytes,
					State: client.StateQueued, CreatedAt: now, UpdatedAt: now,
				})
				s.markRunning(j)
				go s.runJob(j)
				<-j.done
				resumed := j.manifest()
				s.removeJob(j)
				s.removeJob(s.lookupJob(id))

				if eager.State != client.StateDone || resumed.State != client.StateDone {
					t.Fatalf("%s: eager job %s (%s), resumed job %s (%s)", name, eager.State, eager.Error, resumed.State, resumed.Error)
				}
				a, b := eager.Result, resumed.Result
				if a.Segments != b.Segments || a.Segments != len(eager.Segments) || (form == "x8" && a.Segments < 3) {
					t.Errorf("%s: segments %d eager, %d resumed, %d refs", name, a.Segments, b.Segments, len(eager.Segments))
				}
				if len(a.Verdicts) != len(b.Verdicts) || (a.Agree == nil) != (b.Agree == nil) || (a.Agree != nil && *a.Agree != *b.Agree) {
					t.Fatalf("%s: %d verdicts agree=%v eager, %d agree=%v resumed", name, len(a.Verdicts), a.Agree, len(b.Verdicts), b.Agree)
				}
				for i := range a.Verdicts {
					va, vb := a.Verdicts[i], b.Verdicts[i]
					if va.Detector != vb.Detector || va.Racy != vb.Racy || va.RaceCount != vb.RaceCount || va.Capped != vb.Capped {
						t.Errorf("%s %s: racy=%v count=%d eager, racy=%v count=%d resumed", name, va.Detector, va.Racy, va.RaceCount, vb.Racy, vb.RaceCount)
					}
					if !reflect.DeepEqual(va.Races, vb.Races) {
						t.Errorf("%s %s: races differ\n eager   %v\n resumed %v", name, va.Detector, va.Races, vb.Races)
					}
					for key, n := range va.Stats.Counters {
						if !strings.HasPrefix(key, "cas.") && !strings.HasPrefix(key, "dmhp.") && !strings.HasPrefix(key, "mem.") {
							continue
						}
						if m := vb.Stats.Counters[key]; m != n {
							t.Errorf("%s %s: %s = %d eager, %d resumed", name, va.Detector, key, n, m)
						}
					}
				}
				if kernel.name == "RacyMonteCarlo" && !a.Verdicts[0].Racy {
					t.Errorf("%s: the racy kernel replayed clean", name)
				}
			}
		}
	}
}
