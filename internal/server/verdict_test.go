package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spd3/client"
	"spd3/internal/detect"
	"spd3/internal/stats"
	"spd3/internal/trace"
)

// records returns every verdict record under a store root, by path
// relative to verdicts/.
func records(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	dir := filepath.Join(root, "verdicts")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func replays(s *Server) int64 { return s.rec.Snapshot().Get(stats.JobSegmentReplays) }

// scopedRaces records a depth-first trace of scopes top-level finishes.
// In scope k a child writes element 0 and perScope elements of its own,
// then the main task writes them too: every scope races on element 0 (with
// its own witnesses) and on perScope elements no other scope touches.
// The later a scope, the smaller its elements, so the smallest keys
// arrive last.
func scopedRaces(t *testing.T, scopes, perScope int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, true)
	mt, implicit := &detect.Task{ID: 1}, &detect.Finish{ID: 1}
	mt.IEF = implicit
	rec.MainTask(mt, implicit)
	sh := rec.NewShadow(detect.Spec("scoped", scopes*perScope+1, 8))
	for k := 0; k < scopes; k++ {
		f := &detect.Finish{ID: int64(k + 2)}
		rec.FinishStart(mt, f)
		child := &detect.Task{ID: detect.TaskID(k + 2), IEF: f}
		rec.BeforeSpawn(mt, child)
		first := (scopes-1-k)*perScope + 1
		for _, i := range append([]int{0}, seq(first, perScope)...) {
			sh.Write(child, i)
		}
		rec.TaskEnd(child)
		for _, i := range append([]int{0}, seq(first, perScope)...) {
			sh.Write(mt, i)
		}
		rec.FinishEnd(mt, f)
	}
	rec.FinishEnd(mt, implicit)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func seq(first, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = first + i
	}
	return out
}

// TestMergeIsOrderIndependent: a job's result does not depend on the
// order its segment replays finish in, nor on which of them a verdict
// record answered. Six segments race on 19 elements between them and the
// cap keeps 4: under one shard worker and four, cold and warm, the
// result bytes are the same, and they carry the 4 smallest keys, each
// with the witnesses of the first segment that reported it.
func TestMergeIsOrderIndependent(t *testing.T) {
	const scopes, perScope = 6, 3
	tr := scopedRaces(t, scopes, perScope)
	var want string
	for _, workers := range []int{1, 4} {
		s, ts := newTestServer(t, Config{ShardWorkers: workers, MinSegmentBytes: 1, MaxRacesPerReport: perScope + 1, StoreDir: t.TempDir()})
		for _, pass := range []string{"cold", "warm"} {
			name := fmt.Sprintf("%d workers, %s", workers, pass)
			replays0 := replays(s)
			status, body := analyze(t, ts.URL, "?detector=all&stats=1", tr)
			if status != http.StatusOK {
				t.Fatalf("%s: %d\n%s", name, status, body)
			}
			got := normalizeWire(body)
			rep := decodeReport(t, body)
			if pass == "warm" && replays(s) != replays0 {
				t.Errorf("%s: %d replays, want every unit answered by its record", name, replays(s)-replays0)
			}
			if want == "" {
				want = got
				if rep.Segments < scopes {
					t.Fatalf("%d segments, want at least %d", rep.Segments, scopes)
				}
				for _, v := range rep.Verdicts {
					if v.RaceCount != scopes*perScope+1 || !v.Capped || len(v.Races) != perScope+1 {
						t.Fatalf("%s: %d races, %d kept, capped %v", v.Detector, v.RaceCount, len(v.Races), v.Capped)
					}
					for i, r := range v.Races {
						if r.Index != i {
							t.Errorf("%s: kept race %d is on element %d, want the smallest keys", v.Detector, i, r.Index)
						}
					}
				}
			}
			if got != want {
				t.Errorf("%s: result differs\n%s", name, firstDiff(got, want))
			}
		}
		s.Close()
	}
	// Element 0's witnesses are those of the first segment that reports
	// it, as its record holds them.
	s, ts := newTestServer(t, Config{ShardWorkers: 4, MinSegmentBytes: 1, MaxRacesPerReport: perScope + 1})
	defer s.Close()
	resp, body := submitV2(t, ts.URL, "?detector=all", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d\n%s", resp.StatusCode, body)
	}
	id := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s, id) == client.StateDone }, "job done")
	m := s.lookupJob(id).manifest()
	for _, v := range m.Result.Verdicts {
		var first *client.Race
		for _, ref := range m.Segments {
			data, err := s.Store().Verdict(ref.Hash, v.Detector)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := decodeRecord(data, s.cfg.Limits)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rec.Races {
				if first == nil && r.Index == 0 {
					first = &r
				}
			}
		}
		if first == nil || v.Races[0] != *first {
			t.Errorf("%s: element 0 kept as %+v, the first segment's is %+v", v.Detector, v.Races[0], first)
		}
	}
}

// corruptions are the ways a stored record can go bad; each must be a
// miss that replays and rewrites the record.
var corruptions = []struct {
	name string
	mod  func(t *testing.T, good []byte) []byte
}{
	{"bit flip", func(t *testing.T, good []byte) []byte {
		// A digit of a counter: the JSON still parses, only the sum sees it.
		i := bytes.Index(good, []byte(`"mem.reads":`))
		if i < 0 {
			t.Fatalf("no mem.reads in %s", good)
		}
		i += len(`"mem.reads":`)
		out := bytes.Clone(good)
		out[i] ^= 1
		return out
	}},
	{"truncated", func(t *testing.T, good []byte) []byte { return good[:len(good)/2] }},
	{"zero length", func(t *testing.T, good []byte) []byte { return nil }},
	{"stale version", func(t *testing.T, good []byte) []byte {
		return reencode(t, good, func(rec *verdictRecord) { rec.Version-- })
	}},
	{"other limits", func(t *testing.T, good []byte) []byte {
		return reencode(t, good, func(rec *verdictRecord) { rec.Limits.MaxTotalElems++ })
	}},
}

// reencode decodes a good record, edits it and encodes it with a valid sum.
func reencode(t *testing.T, good []byte, edit func(*verdictRecord)) []byte {
	t.Helper()
	rec, err := decodeRecord(good, trace.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	edit(&rec)
	data, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecordFaults: a record that is damaged, stale or made under other
// Limits is a miss. The job's result bytes are those of the cold run, it
// replays the one segment again, and the replay rewrites the record.
func TestRecordFaults(t *testing.T) {
	tr, err := os.ReadFile("testdata/racymc.trc")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: root})
	defer s.Close()
	_, cold := analyze(t, ts.URL, "?detector=spd3&stats=1", tr)
	recs := records(t, root)
	if len(recs) != 1 {
		t.Fatalf("%d records after a one-segment job, want 1: %v", len(recs), recs)
	}
	var path string
	var good []byte
	for rel, data := range recs {
		path, good = filepath.Join(root, "verdicts", rel), data
	}
	if !strings.HasSuffix(path, ".spd3") {
		t.Errorf("record %s is not keyed by its detector", path)
	}
	for _, c := range corruptions {
		if err := os.WriteFile(path, c.mod(t, good), 0o644); err != nil {
			t.Fatal(err)
		}
		replays0 := replays(s)
		_, warm := analyze(t, ts.URL, "?detector=spd3&stats=1", tr)
		if normalizeWire(warm) != normalizeWire(cold) {
			t.Errorf("%s: result differs from the cold run\n%s", c.name, firstDiff(normalizeWire(warm), normalizeWire(cold)))
		}
		if n := replays(s) - replays0; n != 1 {
			t.Errorf("%s: %d replays, want 1", c.name, n)
		}
		if data, _ := os.ReadFile(path); !bytes.Equal(data, good) {
			t.Errorf("%s: record not rewritten", c.name)
		}
	}
	// And the rewritten record answers the next job: /statsz shows no
	// replay and no check, only the footprint of the verdict served.
	before := getStatsz(t, ts.URL).Stats
	_, warm := analyze(t, ts.URL, "?detector=spd3&stats=1", tr)
	after := getStatsz(t, ts.URL).Stats
	if normalizeWire(warm) != normalizeWire(cold) {
		t.Errorf("rewritten record: result differs\n%s", firstDiff(normalizeWire(warm), normalizeWire(cold)))
	}
	for _, c := range []stats.Counter{stats.JobSegmentReplays, stats.CASClean, stats.CASPublish} {
		if after.Get(c) != before.Get(c) {
			t.Errorf("a record hit moved %s by %d", c, after.Get(c)-before.Get(c))
		}
	}
	if want := decodeReport(t, cold).Verdicts[0].Stats.Footprint; after.Footprint.Total()-before.Footprint.Total() != want.ShadowBytes+want.TreeBytes+want.ClockBytes+want.SetBytes {
		t.Errorf("/statsz footprint grew by %d, want the verdict's %+v", after.Footprint.Total()-before.Footprint.Total(), want)
	}
}

// TestRecordsOnlyForPureReplays: a sampled job, a hidden test variant, a
// failed replay and a canceled one leave no record, and a sampled job
// replays even where records exist.
func TestRecordsOnlyForPureReplays(t *testing.T) {
	tr := recordRacyMonteCarlo(t)
	root := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: root, MinSegmentBytes: 1})
	defer s.Close()
	noRecords := func(what string) {
		t.Helper()
		if recs := records(t, root); len(recs) != 0 {
			t.Errorf("%s left %d records", what, len(recs))
		}
	}

	if status, body := analyze(t, ts.URL, "?detector=spd3&sample=bernoulli:0.5", tr); status != http.StatusOK {
		t.Fatalf("sampled: %d\n%s", status, body)
	}
	noRecords("a sampled job")
	if status, body := analyze(t, ts.URL, "?detector=test-gate-spd3", tr); status != http.StatusOK {
		t.Fatalf("hidden variant: %d\n%s", status, body)
	}
	noRecords("a hidden variant")
	crasher, err := os.ReadFile("testdata/nesting_crasher.trc")
	if err != nil {
		t.Fatal(err)
	}
	if status, body := analyze(t, ts.URL, "?detector=all", crasher[:len(crasher)-1]); status != http.StatusBadRequest {
		t.Fatalf("failed replay: %d, want 400\n%s", status, body)
	}
	noRecords("a failed replay")

	// A replay canceled part-way: one segment, big enough to be caught
	// running.
	big := synthTrace(t, 1<<21)
	for attempt := 0; ; attempt++ {
		resp, body := submitV2(t, ts.URL, "?detector=spd3", "", big)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d\n%s", resp.StatusCode, body)
		}
		id := decodeJobStatus(t, body).ID
		waitFor(t, func() bool { return s.pool.Busy() > 0 || client.Terminal(jobState(s, id)) }, "replay running")
		deleteJob(t, ts.URL, id)
		waitFor(t, func() bool { return client.Terminal(jobState(s, id)) }, "job terminal")
		state := jobState(s, id)
		deleteJob(t, ts.URL, id)
		if state == client.StateCanceled {
			break
		}
		// The replay won the race with the cancel; its record is sound.
		for rel := range records(t, root) {
			os.Remove(filepath.Join(root, "verdicts", rel))
		}
		if attempt == 4 {
			t.Skip("the replay always finished before its cancel")
		}
	}
	noRecords("a canceled replay")

	// Warm records do not serve a sampled job.
	analyze(t, ts.URL, "?detector=spd3", tr)
	if len(records(t, root)) == 0 {
		t.Fatal("an unsampled job left no record")
	}
	replays0 := replays(s)
	_, body := analyze(t, ts.URL, "?detector=spd3&sample=bernoulli:0.5", tr)
	if n, segs := replays(s)-replays0, decodeReport(t, body).Segments; n != int64(segs) {
		t.Errorf("sampled job over warm records: %d replays for %d segments", n, segs)
	}
}

// TestSweepRemovesRecords: once a job is deleted, the sweep that takes
// its blobs takes their records, and any record whose blob is gone.
func TestSweepRemovesRecords(t *testing.T) {
	root := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: root, MinSegmentBytes: 1})
	defer s.Close()
	analyze(t, ts.URL, "?detector=all", recordRacyMonteCarlo(t))
	if len(records(t, root)) == 0 {
		t.Fatal("no records written")
	}
	orphan := strings.Repeat("ab", sha256.Size)
	if err := s.Store().PutVerdict(orphan, "spd3", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if _, swept := s.GC(); swept == 0 {
		t.Fatal("GC swept no blobs")
	}
	if recs := records(t, root); len(recs) != 0 {
		t.Errorf("records outlived their blobs: %v", recs)
	}
	if n, b := s.Store().Blobs(); n != 0 || b != 0 {
		t.Errorf("records counted as blobs: %d / %d", n, b)
	}
}

// TestRecordWriteFault: a record that cannot be written costs nothing
// but the next job's replay.
func TestRecordWriteFault(t *testing.T) {
	tr := recordRacyMonteCarlo(t)
	root := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: root})
	defer s.Close()
	repair := breakDir(t, filepath.Join(root, "verdicts"))
	status, broken := analyze(t, ts.URL, "?detector=spd3&stats=1", tr)
	if status != http.StatusOK {
		t.Fatalf("with verdicts/ broken: %d\n%s", status, broken)
	}
	repair()
	replays0 := replays(s)
	_, cold := analyze(t, ts.URL, "?detector=spd3&stats=1", tr)
	if replays(s) == replays0 || len(records(t, root)) == 0 {
		t.Errorf("after repair: %d replays, %d records", replays(s)-replays0, len(records(t, root)))
	}
	if normalizeWire(cold) != normalizeWire(broken) {
		t.Errorf("result differs\n%s", firstDiff(normalizeWire(cold), normalizeWire(broken)))
	}
}

// TestResumeOverRecords: a daemon restarted over a store with records
// resumes a job the last one died running, from the records alone, to
// the verdict the cold run reached.
func TestResumeOverRecords(t *testing.T) {
	dir := t.TempDir()
	tr := recordRacyMonteCarlo(t)
	s1, ts1 := newTestServer(t, Config{StoreDir: dir, MinSegmentBytes: 1})
	resp, body := submitV2(t, ts1.URL, "?detector=all&stats=1", "", tr)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d\n%s", resp.StatusCode, body)
	}
	id := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return jobState(s1, id) == client.StateDone }, "cold job done")
	cold := normalizeWire(getBody(t, ts1.URL+"/v2/jobs/"+id+"/result"))

	// What a daemon killed mid-replay leaves: the same job, running.
	m := s1.lookupJob(id).manifest()
	m.ID, m.State, m.Result = "jrunning", client.StateRunning, nil
	if err := s1.Store().WriteManifest(&m); err != nil {
		t.Fatal(err)
	}
	s1.Kill()
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{StoreDir: dir, MinSegmentBytes: 1})
	defer s2.Close()
	waitFor(t, func() bool { return client.Terminal(jobState(s2, "jrunning")) }, "resumed job terminal")
	if got := normalizeWire(getBody(t, ts2.URL+"/v2/jobs/jrunning/result")); got != cold {
		t.Errorf("resumed result differs\n%s", firstDiff(got, cold))
	}
	if n := replays(s2); n != 0 {
		t.Errorf("resumed job replayed %d units, want all from records", n)
	}
}

// TestVerdictsGolden pins the exact records every listed detector leaves
// for the committed traces. A record is trusted across daemon versions
// as long as detect.VerdictVersion stays put, so bytes that move without
// a bump fail here.
func TestVerdictsGolden(t *testing.T) {
	traces, err := filepath.Glob("testdata/*.trc")
	if err != nil || len(traces) == 0 {
		t.Fatalf("no committed traces: %v", err)
	}
	s, ts := newTestServer(t, Config{})
	defer s.Close()
	var out bytes.Buffer
	fmt.Fprintf(&out, "version %d\n", detect.VerdictVersion)
	for _, path := range traces {
		tr, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range detect.Names() {
			fmt.Fprintf(&out, "%s %s %s\n", filepath.Base(path), name, recordDigest(t, s, ts.URL, name, tr))
		}
	}
	if *updateGolden {
		if err := os.WriteFile("testdata/verdicts.golden", out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/verdicts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	diff := firstDiff(out.String(), string(want))
	if version, _, _ := bytes.Cut(want, []byte("\n")); string(version) == fmt.Sprintf("version %d", detect.VerdictVersion) {
		t.Fatalf("verdict bytes changed: bump detect.VerdictVersion and rerun with -update\n%s", diff)
	}
	t.Fatalf("testdata/verdicts.golden is for another detect.VerdictVersion: rerun with -update\n%s", diff)
}

// recordDigest runs one job and returns the SHA-256 of its segments'
// records, in segment order, or why there are none.
func recordDigest(t *testing.T, s *Server, base, detector string, tr []byte) string {
	t.Helper()
	resp, body := submitV2(t, base, "?detector="+detector, "", tr)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Sprintf("refused %d", resp.StatusCode)
	}
	id := decodeJobStatus(t, body).ID
	waitFor(t, func() bool { return client.Terminal(jobState(s, id)) }, "job terminal")
	defer deleteJob(t, base, id)
	m := s.lookupJob(id).manifest()
	if m.State != client.StateDone {
		return fmt.Sprintf("%s %d", m.State, m.ErrorStatus)
	}
	h := sha256.New()
	for _, ref := range m.Segments {
		data, err := s.Store().Verdict(ref.Hash, detector)
		if err != nil {
			t.Fatalf("%s: segment %s has no record: %v", detector, ref.Hash, err)
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// benchJobs runs one spd3 job per op on an in-process server: submit,
// wait for the verdict, delete. next returns op i's trace.
func benchJobs(b *testing.B, next func(i int) []byte) {
	s, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	run := func(tr []byte) {
		j, err := s.submitJob(context.Background(), bytes.NewReader(tr), submitOpts{detector: "spd3", tenant: "default"})
		if err != nil {
			b.Fatal(err)
		}
		<-j.done
		if st := j.manifest().State; st != client.StateDone {
			b.Fatalf("job %s", st)
		}
		s.removeJob(j)
	}
	run(next(-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := next(i)
		b.StartTimer()
		run(tr)
	}
	b.StopTimer()
	b.ReportMetric(float64(replays(s))/float64(b.N+1), "replays/op")
}

// seededTrace records a race-free depth-first program drawn from seed:
// four top-level finishes, each spawning four tasks that read 1 500
// seeded elements of a shared input and write 500 of their own quarter
// of an output.
func seededTrace(tb testing.TB, seed int64) []byte {
	tb.Helper()
	const elems = 1 << 12
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, true)
	mt, implicit := &detect.Task{ID: 1}, &detect.Finish{ID: 1}
	mt.IEF = implicit
	rec.MainTask(mt, implicit)
	in := rec.NewShadow(detect.Spec("in", elems, 8))
	out := rec.NewShadow(detect.Spec("out", elems, 8))
	id := int64(1)
	for k := 0; k < 4; k++ {
		id++
		f := &detect.Finish{ID: id}
		rec.FinishStart(mt, f)
		for c := 0; c < 4; c++ {
			id++
			child := &detect.Task{ID: detect.TaskID(id), IEF: f}
			rec.BeforeSpawn(mt, child)
			for a := 0; a < 1500; a++ {
				in.Read(child, rng.Intn(elems))
			}
			for a := 0; a < 500; a++ {
				out.Write(child, c*elems/4+rng.Intn(elems/4))
			}
			rec.TaskEnd(child)
		}
		rec.FinishEnd(mt, f)
	}
	rec.FinishEnd(mt, implicit)
	if err := rec.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkJobWarm: the same trace every op, so every segment is a store
// dedup hit and every replay unit is answered by its verdict record.
func BenchmarkJobWarm(b *testing.B) {
	tr := seededTrace(b, 1)
	benchJobs(b, func(int) []byte { return tr })
}

// BenchmarkJobCold: a fresh seed every op, so every segment is new and
// replays.
func BenchmarkJobCold(b *testing.B) {
	benchJobs(b, func(i int) []byte { return seededTrace(b, int64(i)+2) })
}
