package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"spd3/client"
	"spd3/internal/server/store"
	"spd3/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from this run")

// volatile rewrites the fields of a response body that differ between
// two runs of the same request; everything else is compared byte for
// byte.
var volatile = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"job_id": "j[0-9a-f]{16}"`), `"job_id": "JOB"`},
	{regexp.MustCompile(`"(created_at|updated_at)": "[^"]*"`), `"$1": "TIME"`},
	{regexp.MustCompile(`"duration_ms": [0-9.e+-]+`), `"duration_ms": 0`},
}

// started undoes what a queued status gains once its executor has
// started: the 202 of a submit races it.
var started = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"state": "(running|done)"`), `"state": "queued"`},
	{regexp.MustCompile(`(?s)\n  "progress": \[.*?\],`), ``},
	{regexp.MustCompile(`\n  "race_count": \d+`), "\n  \"race_count\": 0"},
}

func normalizeWire(body []byte) string {
	for _, v := range volatile {
		body = v.re.ReplaceAll(body, []byte(v.repl))
	}
	return string(body)
}

// keySet lists the keys of a JSON object and, one level down each named
// path, of its nested objects, sorted.
func keySet(t *testing.T, body []byte, nested ...string) string {
	t.Helper()
	var top map[string]any
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	var keys []string
	var walk func(prefix string, obj map[string]any)
	walk = func(prefix string, obj map[string]any) {
		for k, v := range obj {
			keys = append(keys, prefix+k)
			if sub, ok := v.(map[string]any); ok {
				for _, n := range nested {
					if n == prefix+k {
						walk(prefix+k+".", sub)
					}
				}
			}
		}
	}
	walk("", top)
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWireGolden pins every body the daemon puts on the wire for one
// fixed racy trace against testdata/wire.golden, recorded at 7f98e63
// (the last commit where internal/server declared its own wire types).
// Volatile fields are normalised; the rest must match byte for byte.
func TestWireGolden(t *testing.T) {
	tr, err := os.ReadFile("testdata/racymc.trc")
	if err != nil {
		t.Fatal(err)
	}
	// One shard worker: segments and detectors replay one at a time, so
	// race order on the live SSE stream is the trace's.
	s, ts := newTestServer(t, Config{ShardWorkers: 1})
	defer s.Close()

	var names []string
	got := map[string]string{}
	rec := func(name, body string) {
		names = append(names, name)
		got[name] = body
	}

	_, body := analyze(t, ts.URL, "?detector=spd3&stats=1", tr)
	rec("v2_result_stats", normalizeWire(body))
	_, body = analyze(t, ts.URL, "?detector=all", tr)
	rec("v2_result_all", normalizeWire(body))
	_, body = analyze(t, ts.URL, "?detector=nosuch", tr)
	rec("error_envelope", normalizeWire(body))

	resp, body := submitV2(t, ts.URL, "?detector=spd3", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d\n%s", resp.StatusCode, body)
	}
	// The executor may have started before the 202 is rendered; the
	// exact queued form is pinned by v2_status_queued below.
	accepted := normalizeWire(body)
	for _, v := range started {
		accepted = v.re.ReplaceAllString(accepted, v.repl)
	}
	rec("v2_submit_202", accepted)
	id := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s, id) == client.StateDone }, "job done")
	rec("v2_status", normalizeWire(getBody(t, ts.URL+"/v2/jobs/"+id)))
	rec("v2_result", normalizeWire(getBody(t, ts.URL+"/v2/jobs/"+id+"/result")))
	rec("v2_list", normalizeWire(getBody(t, ts.URL+"/v2/jobs")))
	rec("sse_replayed", string(getBody(t, ts.URL+"/v2/jobs/"+id+"/events")))
	rec("v2_detectors", string(getBody(t, ts.URL+"/v2/detectors")))
	rec("statsz_keys", keySet(t, getBody(t, ts.URL+"/statsz"),
		"stats", "stats.counters", "stats.histograms", "stats.footprint"))

	// A canceled job: a done frame with no races and an error, and the
	// error envelope /result replays for it.
	release := setGate()
	defer release()
	_, body = submitV2(t, ts.URL, "?detector=test-gate", "", tr)
	gated := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s, gated) == client.StateRunning }, "gated job running")
	deleteJob(t, ts.URL, gated) // live job: a cancellation request
	release()
	waitFor(t, func() bool { return jobState(s, gated) == client.StateCanceled }, "gated job canceled")
	rec("sse_canceled", string(getBody(t, ts.URL+"/v2/jobs/"+gated+"/events")))
	rec("v2_result_canceled", normalizeWire(getBody(t, ts.URL+"/v2/jobs/"+gated+"/result")))

	// The live stream carries all three frame kinds, but only to a
	// subscriber attached before the executor starts, so the job is put
	// together by hand and started after the stream is open.
	ref, _, err := s.Store().PutStream(bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	j := adoptJob(t, s, &store.Manifest{
		ID: "jlive", Tenant: "default", Detector: "spd3", Sequential: true,
		Sharded: true, Segments: []store.SegmentRef{ref}, TraceBytes: int64(len(tr)),
		State: client.StateQueued, CreatedAt: now, UpdatedAt: now,
	})
	rec("v2_status_queued", normalizeWire(getBody(t, ts.URL+"/v2/jobs/jlive")))
	rec("v2_result_202", normalizeWire(getBody(t, ts.URL+"/v2/jobs/jlive/result")))
	stream, err := http.Get(ts.URL + "/v2/jobs/jlive/events")
	if err != nil {
		t.Fatal(err)
	}
	s.markRunning(j)
	go s.runJob(j)
	frames, err := io.ReadAll(stream.Body)
	stream.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rec("sse_live", string(frames))
	s.removeJob(j)

	var out bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&out, "-- %s --\n%s", name, got[name])
	}
	if *updateGolden {
		if err := os.WriteFile("testdata/wire.golden", out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("wire bodies differ from testdata/wire.golden\ngot:\n%s", firstDiff(out.String(), string(want)))
	}
}

// firstDiff returns the lines around the first line where got and want
// part ways.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return "(identical)"
}

// TestOpensParentStore opens a store directory written by 7f98e63: one
// done job (detector=all with stats, so the manifest embeds every wire
// type a result can carry) and one the daemon died running. Both
// manifests re-persist byte for byte, the done job's result is served as
// stored, and the running job resumes to its verdict.
func TestOpensParentStore(t *testing.T) {
	const doneID, runningID = "j789cc8c92dcb14a8", "j960e2057cebbeca1"
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS("testdata/store_7f98e63")); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	manifests, err := st.LoadManifests()
	if err != nil || len(manifests) != 2 {
		t.Fatalf("LoadManifests = %d manifests, %v; want 2", len(manifests), err)
	}
	var stored json.RawMessage
	for _, m := range manifests {
		path := root + "/jobs/" + m.ID + ".json"
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteManifest(m); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Errorf("manifest %s rewritten differently\n%s", m.ID, firstDiff(string(got), string(want)))
		}
		if m.ID == doneID {
			var raw struct{ Result json.RawMessage }
			if err := json.Unmarshal(want, &raw); err != nil {
				t.Fatal(err)
			}
			stored = raw.Result
		}
	}

	// The parent's manifests carry counters retired since: "mutex.ops"
	// (PR 16) and, under dmhp.*, the fast-path counter of the DPST's
	// packed paths (PR 18) and "dmhp.memo_hit" of the per-task relation
	// memo (PR 19). They ride along untouched (the byte
	// comparisons above and below), and a stats.Snapshot decoded from
	// such a result ignores the keys. The fixture is deliberately not
	// rewritten.
	if !bytes.Contains(stored, []byte(`"mutex.ops"`)) {
		t.Fatal("fixture no longer carries the retired mutex.ops key")
	}
	var old client.Report
	if err := json.Unmarshal(stored, &old); err != nil || len(old.Verdicts) == 0 {
		t.Fatalf("stored result: %v (%d verdicts)", err, len(old.Verdicts))
	}
	oldStats, _ := json.Marshal(old.Verdicts[0].Stats)
	var snap stats.Snapshot
	if err := json.Unmarshal(oldStats, &snap); err != nil || snap.Get(stats.CASPublish) != old.Verdicts[0].Stats.Get("cas.publish") {
		t.Errorf("stats.Snapshot from a parent manifest: %v, cas.publish %d", err, snap.Get(stats.CASPublish))
	}

	release := setGate() // the running job was submitted under test-gate-spd3
	release()
	s, ts := newTestServer(t, Config{StoreDir: root, ShardWorkers: 1})
	defer s.Close()
	var served, want bytes.Buffer
	if err := json.Compact(&served, getBody(t, ts.URL+"/v2/jobs/"+doneID+"/result")); err != nil {
		t.Fatal(err)
	}
	json.Compact(&want, stored) //nolint:errcheck // decoded above
	if !bytes.Equal(served.Bytes(), want.Bytes()) {
		t.Errorf("done job's result differs from its manifest\n got %s\nwant %s", served.Bytes(), want.Bytes())
	}
	waitFor(t, func() bool { return client.Terminal(jobState(s, runningID)) }, "resumed job terminal")
	var rep client.Report
	if err := json.Unmarshal(getBody(t, ts.URL+"/v2/jobs/"+runningID+"/result"), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Verdicts) != 1 || rep.Verdicts[0].RaceCount != 1 {
		t.Errorf("resumed job's result = %+v, want one verdict with one race", rep)
	}
	if n := getStatsz(t, ts.URL).Stats.Get(stats.JobResumed); n != 1 {
		t.Errorf("job.resumed = %d, want 1", n)
	}
}

// TestResumedRetiredDetectorFails: a stored job naming a detector this
// build no longer registers ("oslabel", retired after 7f98e63) resumes to
// a failed job whose /result carries the registry's unknown-detector
// message, and the daemon stays up with nothing in flight. The fixture is
// copied and only the copy's running manifest is rewritten.
func TestResumedRetiredDetectorFails(t *testing.T) {
	const runningID = "j960e2057cebbeca1"
	root := t.TempDir()
	if err := os.CopyFS(root, os.DirFS("testdata/store_7f98e63")); err != nil {
		t.Fatal(err)
	}
	path := root + "/jobs/" + runningID + ".json"
	m, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte(`"detector": "test-gate-spd3"`)
	if !bytes.Contains(m, old) {
		t.Fatalf("fixture's running manifest no longer names test-gate-spd3:\n%s", m)
	}
	if err := os.WriteFile(path, bytes.Replace(m, old, []byte(`"detector": "oslabel"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{StoreDir: root, ShardWorkers: 1})
	defer s.Close()
	waitFor(t, func() bool { return client.Terminal(jobState(s, runningID)) }, "resumed job terminal")
	if st := jobState(s, runningID); st != client.StateFailed {
		t.Fatalf("resumed job state = %q, want %q", st, client.StateFailed)
	}
	resp, err := http.Get(ts.URL + "/v2/jobs/" + runningID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), `unknown detector \"oslabel\"`) {
		t.Errorf("/result = %d, want 500 with the unknown-detector message\n%s", resp.StatusCode, body)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d after the failed resume, want 200", hz.StatusCode)
	}
	waitFor(t, func() bool { return s.InFlight() == 0 }, "nothing in flight")
}

// TestResumesUnshardedParentJob: a job an older daemon stored whole
// (?shard=off, "sharded": false) resumes on this one to the verdict the
// same job reaches when it was stored sharded, reporting its one stored
// blob as one segment. The fixture is copied and only the copy's running
// manifest is rewritten.
func TestResumesUnshardedParentJob(t *testing.T) {
	const runningID = "j960e2057cebbeca1"
	release := setGate() // the running job was submitted under test-gate-spd3
	release()
	resume := func(sharded bool) (*client.JobStatus, []client.Verdict) {
		t.Helper()
		root := t.TempDir()
		if err := os.CopyFS(root, os.DirFS("testdata/store_7f98e63")); err != nil {
			t.Fatal(err)
		}
		if !sharded {
			path := root + "/jobs/" + runningID + ".json"
			m, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			old := []byte(`"sharded": true`)
			if !bytes.Contains(m, old) {
				t.Fatalf("fixture's running manifest is no longer sharded:\n%s", m)
			}
			if err := os.WriteFile(path, bytes.Replace(m, old, []byte(`"sharded": false`), 1), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, ts := newTestServer(t, Config{StoreDir: root, ShardWorkers: 1})
		defer s.Close()
		waitFor(t, func() bool { return client.Terminal(jobState(s, runningID)) }, "resumed job terminal")
		st := decodeJobStatus(t, getBody(t, ts.URL+"/v2/jobs/"+runningID))
		rep := decodeReport(t, getBody(t, ts.URL+"/v2/jobs/"+runningID+"/result"))
		waitFor(t, func() bool { return s.InFlight() == 0 }, "nothing in flight")
		if st.Sharded != sharded {
			t.Errorf("sharded=%v: status says sharded=%v", sharded, st.Sharded)
		}
		for i := range rep.Verdicts {
			rep.Verdicts[i].DurationMS = 0
		}
		return st, rep.Verdicts
	}
	st, got := resume(false)
	_, want := resume(true)
	if st.State != client.StateDone || st.Segments != 1 {
		t.Errorf("unsharded job: state %q, %d segments; want done, 1", st.State, st.Segments)
	}
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w || len(got) != 1 || got[0].RaceCount != 1 {
		t.Errorf("unsharded job's verdicts = %s, want %s with one race", g, w)
	}
}

// TestWireStats: wireStats is the server's one conversion into a client
// type, so its JSON must be stats.Snapshot's own, nil and empty region
// lists included.
func TestWireStats(t *testing.T) {
	rec := stats.New()
	rec.Add(stats.CASClean, 7)
	rec.ObserveCASRetry(3)
	full := rec.Snapshot()
	full.Regions = []stats.RegionSnapshot{{Name: "a", Elems: 4, Reads: 2, Writes: 1}}
	full.Reads, full.Writes = 2, 1
	full.Footprint = stats.Footprint{ShadowBytes: 64, TreeBytes: 32}
	for name, snap := range map[string]stats.Snapshot{"zero": {}, "empty regions": stats.New().Snapshot(), "full": full} {
		want, _ := json.Marshal(snap)
		got, _ := json.Marshal(wireStats(snap))
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}
