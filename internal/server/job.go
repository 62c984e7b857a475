// The job path: the daemon's one submit→verdict lifecycle. A submit is
// admitted (drain set, then tenant quota) before its body is read; its
// executor starts once the header has been peeked, and the body streams
// through the limiter/cancel/splitter pipeline into the content-addressed
// store, each segment handed to the executor the moment it is stored, so
// the shard pool replays the head of an upload while its tail is still
// arriving. When the body ends the manifest is persisted and the job
// registered; the executor, its last replay back, finalizes the manifest
// with the merged result. A body that fails on the way cancels its
// replays, waits for them and leaves nothing — the job was never visible.
// POST /v2/jobs answers 202 with a job id as soon as the job is
// registered; the client follows /events (findings, then a done frame),
// collects the envelope from /result, and DELETEs the job.
package server

import (
	"bufio"
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spd3/client"
	"spd3/internal/detect"
	"spd3/internal/sample"
	"spd3/internal/server/quota"
	"spd3/internal/server/store"
	"spd3/internal/stats"
	"spd3/internal/trace"
)

// jobEvent is one SSE frame, marshaled once for every subscriber: an
// event name and its JSON payload.
type jobEvent struct {
	name string
	data []byte
}

func frame(ev client.Event) jobEvent {
	data, _ := json.Marshal(ev)
	return jobEvent{name: ev.Name, data: data}
}

// Job is one analysis job's live state: the durable manifest plus the
// in-memory accumulator, cancellation plumbing, and SSE subscribers.
// All mutable fields are guarded by mu; done closes exactly once, when
// the job reaches a terminal state.
type Job struct {
	mu sync.Mutex
	m  *store.Manifest

	// names and acc exist while the job runs: the detector fan-out set
	// and one merged verdict per detector, deduplicated job-wide.
	names    []string
	acc      []*mergedVerdict
	segsDone []int

	// The hand-off from an upload to its executor is m.Segments itself:
	// feed appends a ref as the store returns it, and the executor, which
	// walks the list by index, waits on fed at its end while spilling is
	// set. settle clears it; aborted then says the upload failed. A loaded
	// manifest's job is born settled. storedAt: when the last ref was fed.
	fed      sync.Cond
	spilling bool
	aborted  bool
	storedAt time.Time

	ctx  context.Context // done once cancel has been called
	stop context.CancelFunc
	done chan struct{}
	subs map[chan jobEvent]struct{}
}

func newJob(m *store.Manifest) *Job {
	j := &Job{m: m, done: make(chan struct{}), subs: map[chan jobEvent]struct{}{}}
	j.ctx, j.stop = context.WithCancel(context.Background())
	j.fed.L = &j.mu
	return j
}

// feed hands the executor one more stored segment.
func (j *Job) feed(ref store.SegmentRef) {
	j.mu.Lock()
	j.m.Segments = append(j.m.Segments, ref)
	j.storedAt = time.Now()
	j.mu.Unlock()
	j.fed.Signal()
}

// settle ends the spill; ok says a durable, registered job came of it.
func (j *Job) settle(ok bool) {
	j.mu.Lock()
	j.spilling, j.aborted = false, !ok
	j.mu.Unlock()
	j.fed.Signal()
}

// segment returns the job's i'th stored segment, waiting for it while the
// upload spills; ok is false past a settled list's end, or once it failed.
func (j *Job) segment(i int) (ref store.SegmentRef, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i >= len(j.m.Segments) && j.spilling {
		j.fed.Wait()
	}
	if i >= len(j.m.Segments) || j.aborted {
		return ref, false
	}
	return j.m.Segments[i], true
}

// cancel requests cancellation; the replay observes it at its next
// Limits.Cancel poll. Idempotent.
func (j *Job) cancel() { j.stop() }

// manifest returns a shallow copy of the job's manifest under the lock.
func (j *Job) manifest() store.Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return *j.m
}

// status builds the wire status under the lock.
func (j *Job) status() client.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := client.JobStatus{
		Tool:        Tool,
		Version:     Version,
		ID:          j.m.ID,
		Tenant:      j.m.Tenant,
		Detector:    j.m.Detector,
		Sequential:  j.m.Sequential,
		State:       j.m.State,
		TraceBytes:  j.m.TraceBytes,
		StoredBytes: j.m.StoredBytes(),
		Segments:    len(j.m.Segments),
		Sharded:     j.m.Sharded,
		Unsplit:     j.m.Unsplit,
		Error:       j.m.Error,
		RaceCount:   j.raceCountLocked(),
		CreatedAt:   j.m.CreatedAt,
		UpdatedAt:   j.m.UpdatedAt,
	}
	for i, name := range j.names {
		st.Progress = append(st.Progress, client.DetectorProgress{
			Detector: name, SegmentsDone: j.segsDone[i], RaceCount: j.acc[i].count,
		})
	}
	return st
}

// subscribe registers an SSE subscriber and returns the channel plus a
// replay of the races found so far. The channel is closed when the job
// finishes (at once if it already has); the handler then writes the done
// frame from the job's final state.
func (j *Job) subscribe() (ch chan jobEvent, replay []jobEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, m := range j.acc {
		for _, r := range m.kept {
			replay = append(replay, raceEvent(j.names[i], r.Race))
		}
	}
	if j.m.Result != nil && j.acc == nil {
		// Terminal job loaded from disk: replay from the result.
		for _, v := range j.m.Result.Verdicts {
			for _, r := range v.Races {
				replay = append(replay, raceEvent(v.Detector, r))
			}
		}
	}
	ch = make(chan jobEvent, 256)
	if client.Terminal(j.m.State) {
		close(ch)
		return ch, replay
	}
	j.subs[ch] = struct{}{}
	return ch, replay
}

func (j *Job) unsubscribe(ch chan jobEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// broadcast fans one event to every subscriber. Sends never block: a
// subscriber that has fallen 256 events behind loses this one (SSE is a
// tail, not a journal — /result is the complete record).
func (j *Job) broadcast(ev jobEvent) {
	j.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// finish closes every subscriber's channel. The done frame is not sent
// on it: a subscriber whose buffer is full would lose it.
func (j *Job) finish() {
	j.mu.Lock()
	for ch := range j.subs {
		close(ch)
	}
	j.subs = map[chan jobEvent]struct{}{}
	j.mu.Unlock()
	close(j.done)
}

// finalEvent is the done frame, built from the job's terminal state.
func (j *Job) finalEvent() jobEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return frame(client.Event{Name: "done", State: j.m.State, RaceCount: j.raceCountLocked(), Error: j.m.Error})
}

func (j *Job) raceCountLocked() int {
	n := 0
	for _, m := range j.acc {
		n += m.count
	}
	if j.m.Result != nil && j.acc == nil {
		for _, v := range j.m.Result.Verdicts {
			n += v.RaceCount
		}
	}
	return n
}

func raceEvent(detector string, r client.Race) jobEvent {
	return frame(client.Event{Name: "race", Detector: detector, Race: &r})
}

// newJobID returns a fresh, unguessable job id.
func newJobID() string {
	var b [8]byte
	rand.Read(b[:]) //nolint:errcheck // crypto/rand never fails on supported platforms
	return "j" + hex.EncodeToString(b[:])
}

// tenantOf extracts the request's tenant: the X-SPD3-Tenant header, or
// "default" when absent — single-tenant deployments never see quota
// interference because every request lands in the same bucket. The name
// keys the quota table, manifests and logs, so it is held to 1–64
// characters of [A-Za-z0-9._-]; anything else is a 400.
func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get("X-SPD3-Tenant")
	if t == "" {
		return "default", nil
	}
	ok := len(t) <= 64
	for i := 0; ok && i < len(t); i++ {
		c := t[i]
		ok = c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-'
	}
	if !ok {
		return "", fmt.Errorf("bad X-SPD3-Tenant %q: want 1-64 characters of [A-Za-z0-9._-]", t)
	}
	return t, nil
}

// submitOpts is a submit request's validated query (see parseSubmit).
type submitOpts struct {
	detector  string // validated registry name or "all"
	tenant    string
	withStats bool
	estimate  int64
	sampling  string // validated per-request sampling spec override, or ""
}

// parseSubmit validates a submit request's query string. On failure it
// has written the error response and returns false.
func (s *Server) parseSubmit(w http.ResponseWriter, r *http.Request) (submitOpts, bool) {
	q := r.URL.Query()
	name := q.Get("detector")
	if name == "" {
		name = "spd3"
	}
	if name != "all" && !detect.Registered(name) {
		s.writeError(w, http.StatusNotFound, "unknown detector %q (have %s, or \"all\")",
			name, strings.Join(detect.Names(), ", "))
		return submitOpts{}, false
	}
	sampling := q.Get("sample")
	if _, err := sample.Parse(sampling); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad sample spec %q: %v", sampling, err)
		return submitOpts{}, false
	}
	tenant, err := tenantOf(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return submitOpts{}, false
	}
	return submitOpts{
		detector:  name,
		tenant:    tenant,
		withStats: q.Get("stats") != "",
		estimate:  max(r.ContentLength, 0),
		sampling:  sampling,
	}, true
}

// submitJob runs the submit half of a job: admission (a drain-set slot,
// then the tenant's quotas) before a byte of the body is read, the
// streaming spill of the body into the store — each stored segment fed
// to the job's executor, started once the header has been peeked — and
// the durable manifest write. On success the job is registered, counted,
// marked running and left — with its drain-set slot — to that executor
// to finalize; on failure the replays in flight are canceled and waited
// for, nothing is registered, and both slots are returned. The body
// reader never waits on a replay: all blocking on the shard pool is the
// executor's. writeSubmitError classifies the error.
func (s *Server) submitJob(ctx context.Context, body io.Reader, opts submitOpts) (*Job, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	if err := s.quotas.Admit(opts.tenant, opts.estimate); err != nil {
		s.release()
		return nil, err
	}
	var j *Job
	admitted := false
	defer func() {
		if admitted {
			return
		}
		if j != nil {
			// Drain must not return with a replay of this upload still on the pool.
			j.cancel()
			j.settle(false)
			<-j.done
		}
		s.quotas.ReleaseSlot(opts.tenant)
		s.release()
	}()

	s.store.BeginWrite()
	defer s.store.EndWrite()

	limiter := trace.NewLimitedReader(body, s.cfg.MaxBodyBytes)
	br := bufio.NewReaderSize(trace.NewCancelReader(limiter, ctx.Done()), 64<<10)

	sequential, err := trace.PeekHeader(br)
	if err != nil {
		return nil, err
	}
	if detect.Sequential(opts.detector) && !sequential {
		return nil, fmt.Errorf("detector %q requires a depth-first trace: %w", opts.detector, trace.ErrSequentialOnly)
	}

	// In memory only — no table entry, no manifest — until the body is stored.
	j = newJob(&store.Manifest{
		ID:         newJobID(),
		Tenant:     opts.tenant,
		Detector:   opts.detector,
		Sequential: sequential,
		WithStats:  opts.withStats,
		Sampling:   opts.sampling,
		Sharded:    true,
		State:      client.StateQueued,
	})
	j.spilling = true
	go s.runJob(j)

	unsplit := false
	putRef := func(ref store.SegmentRef, dup bool) {
		j.feed(ref)
		if dup {
			s.rec.Inc(stats.StoreDedupHits)
		} else {
			s.rec.Add(stats.StorePutBytes, ref.Bytes)
		}
	}
	sp, err := trace.NewSplitter(br, trace.SplitConfig{
		MinSegmentBytes: s.cfg.MinSegmentBytes,
		MaxSegmentBytes: s.cfg.MaxSegmentBytes,
	})
	if err != nil {
		return nil, err
	}
split:
	for {
		seg, err := sp.Next()
		switch {
		case errors.Is(err, io.EOF):
			break split
		case errors.Is(err, trace.ErrSegmentOversize):
			// One finish scope refuses to fit a segment: the rest of
			// the stream (including the splitter's buffered prefix)
			// spills to the store as a single blob, hashed while
			// streaming so nothing is materialized in memory.
			ref, dup, perr := s.store.PutStream(sp.Unsplit())
			if perr != nil {
				return nil, perr
			}
			putRef(ref, dup)
			unsplit = true
			s.rec.Inc(stats.SrvUnsplit)
			break split
		case err != nil:
			return nil, err
		}
		ref, dup, perr := s.store.Put(seg)
		if perr != nil {
			return nil, perr
		}
		putRef(ref, dup)
	}

	streamed := limiter.Count()
	s.rec.Add(stats.SrvStreamedBytes, streamed)

	j.mu.Lock()
	j.m.Unsplit, j.m.TraceBytes = unsplit, streamed
	j.m.CreatedAt = time.Now()
	j.m.UpdatedAt = j.m.CreatedAt
	m := *j.m
	j.mu.Unlock()
	s.rec.Add(stats.TraceSegments, int64(len(m.Segments)))
	// Settle the real stored bytes before the manifest lands: a refusal
	// here (the upload's true size only became known during the spill)
	// leaves no manifest behind, so the spilled blobs are garbage for
	// the next sweep and the tenant's gauge never overshoots.
	if err := s.quotas.Charge(opts.tenant, m.StoredBytes(), opts.estimate); err != nil {
		return nil, err
	}
	if err := s.store.WriteManifest(&m); err != nil {
		s.quotas.ReleaseBytes(opts.tenant, m.StoredBytes())
		return nil, err
	}
	admitted = true

	s.jobsMu.Lock()
	s.jobs[m.ID] = j
	s.jobsMu.Unlock()
	s.rec.Inc(stats.JobSubmitted)
	s.logf("job %s submitted tenant=%s detector=%s bytes=%d segments=%d",
		m.ID, opts.tenant, opts.detector, streamed, len(m.Segments))
	s.markRunning(j)
	j.settle(true)
	return j, nil
}

// replaySegment replays one stored segment into a fresh, owned instance
// of the named detector (detect.Owned), streaming each distinct race
// through onRace and folding the run's stats into the server aggregate.
// A non-nil sampler — the job's (tenant, sampling) pair's shared one —
// gates the detector, and the timed replay feeds the sampler's feedback
// loop: rates adapt across segments and across jobs.
func (s *Server) replaySegment(name string, sampler *sample.Sampler, rd io.Reader, lim trace.Limits, onRace func(client.Race)) (stats.Snapshot, error) {
	ses, err := detect.Open(name, detect.SessionOpts{
		MaxRaces: s.cfg.MaxRacesPerReport,
		OnRace: func(r detect.Race) bool {
			onRace(client.Race{Kind: r.Kind.String(), Region: r.Region, Index: r.Index, Prev: r.PrevStep, Cur: r.CurStep})
			return false
		},
		Sampler: sampler,
		Owned:   true, // this goroutine alone replays the segment
	})
	if err != nil {
		return stats.Snapshot{}, err
	}
	start := time.Now()
	replayErr := trace.ReplayWithLimits(rd, ses.Det, ses.Rec, lim)
	snap := ses.Snapshot(time.Since(start))
	s.mu.Lock()
	s.agg.Merge(snap)
	s.mu.Unlock()
	return snap, replayErr
}

// markRunning moves a queued job — registered, its manifest durable — to
// running, before its executor is allowed to finalize it. The move is in
// memory and on the job's event stream only: the manifest on disk stays
// queued until the terminal write, since resume re-runs a queued job and
// a running one alike, and writing it would cost every job an fsync.
func (s *Server) markRunning(j *Job) {
	j.mu.Lock()
	j.m.State = client.StateRunning
	j.m.UpdatedAt = time.Now()
	j.mu.Unlock()
	j.broadcast(frame(client.Event{Name: "state", State: client.StateRunning}))
}

// runJob is the executor: it fans the job's (segment, detector) pairs
// across the shard pool as the segments become available — all at once
// for a resumed job, one by one behind a spilling upload — bounded by
// the tenant's shard semaphore so one tenant's backlog cannot monopolize
// the pool, then, the upload settled, finalizes the manifest with the
// merged result. It runs on its own goroutine and owns its caller's
// drain-set slot, released once the job is terminal — unless the upload
// failed: then it only reports that its replays are over.
func (s *Server) runJob(j *Job) {
	m := j.manifest()
	names := []string{m.Detector}
	if m.Detector == "all" {
		names = eligibleDetectors(m.Sequential)
	}
	j.mu.Lock()
	j.names = names
	j.segsDone = make([]int, len(names))
	j.acc = make([]*mergedVerdict, len(names))
	for i := range names {
		j.acc[i] = &mergedVerdict{seen: map[raceKey]*keptRace{}}
	}
	j.mu.Unlock()

	lim := s.cfg.Limits
	lim.Cancel = j.ctx.Done()
	maxRaces := s.cfg.MaxRacesPerReport
	// Unsampled replays under listed detectors keep verdict records
	// (verdict.go); hidden test variants and sampled jobs always replay.
	sampler := s.samplers.sampler(m.Tenant, m.Sampling)
	listed := detect.Names()
	recorded := make([]bool, len(names))
	for i, name := range names {
		recorded[i] = sampler == nil && slices.Contains(listed, name)
	}

	start := time.Now()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error // set once, read after wg.Wait
	)
	setErr := func(err error) {
		errOnce.Do(func() { firstErr = err })
		j.cancel() // one failed segment aborts the rest of the fan-out
	}

	tsem := s.quotas.ShardSem(m.Tenant)
	segDone := func(di int, snap stats.Snapshot) {
		j.mu.Lock()
		j.acc[di].stats.Merge(snap)
		j.segsDone[di]++
		j.mu.Unlock()
	}
	segJob := func(di, seg int, ref store.SegmentRef) {
		name := names[di]
		if recorded[di] {
			if rec, ok := s.readRecord(ref.Hash, name, lim); ok {
				for _, r := range rec.Races {
					j.addRace(di, seg, r, maxRaces)
				}
				// No replay ran, so /statsz counts no work; its footprint
				// still accounts for the detector memory the verdict stands for.
				s.mu.Lock()
				s.agg.Merge(stats.Snapshot{Footprint: rec.Stats.Footprint})
				s.mu.Unlock()
				segDone(di, rec.Stats)
				return
			}
		}
		rd, err := s.store.Open(ref)
		if err != nil {
			setErr(err)
			return
		}
		defer rd.Close()
		s.rec.Inc(stats.JobSegmentReplays)
		var races []client.Race
		keep := recorded[di]
		snap, err := s.replaySegment(name, sampler, bufio.NewReaderSize(rd, 64<<10), lim, func(r client.Race) {
			j.addRace(di, seg, r, maxRaces)
			// More races than a verdict carries: no record.
			if keep = keep && len(races) < maxRaces; keep {
				races = append(races, r)
			}
		})
		if err != nil {
			setErr(err)
			return
		}
		if keep {
			s.writeRecord(ref.Hash, name, verdictRecord{
				Version: detect.VerdictVersion, Limits: limitsOf(lim), Races: races, Stats: snap,
			})
		}
		segDone(di, snap)
	}

	// Canceled, it starts nothing more but walks on to where the upload settles.
fanout:
	for i := 0; ; i++ {
		ref, ok := j.segment(i)
		if !ok {
			break
		}
		for di := range names {
			if j.ctx.Err() != nil {
				continue fanout
			}
			if tsem != nil {
				select {
				case tsem <- struct{}{}:
				case <-j.ctx.Done():
					continue fanout
				}
			}
			release := func() {
				if tsem != nil {
					<-tsem
				}
			}
			if !s.pool.run(j.ctx, &wg, func() {
				defer release()
				segJob(di, i, ref)
			}) {
				release()
				continue fanout
			}
		}
	}
	wg.Wait()
	j.mu.Lock()
	aborted := j.aborted
	j.mu.Unlock()
	if aborted {
		close(j.done) // the submitter still holds both slots and is waiting to return them
		return
	}
	defer s.release()
	if j.ctx.Err() != nil {
		setErr(trace.ErrCanceled)
	}
	s.finalizeJob(j, firstErr, start)
}

// addRace folds one race that segment seg reported into the job
// accumulator (dedup is job-wide per detector; see mergedVerdict for why
// the outcome does not depend on arrival order) and broadcasts fresh
// races to SSE subscribers.
func (j *Job) addRace(di, seg int, r client.Race, maxRaces int) {
	j.mu.Lock()
	m := j.acc[di]
	k := keyOf(r)
	if kept, dup := m.seen[k]; dup {
		if kept != nil && seg < kept.seg {
			kept.Prev, kept.Cur, kept.seg = r.Prev, r.Cur, seg
		}
		j.mu.Unlock()
		return
	}
	m.count++
	kept := &keptRace{Race: r, seg: seg}
	switch {
	case len(m.kept) < maxRaces:
		heap.Push(&m.kept, kept)
	case raceLess(r, m.kept[0].Race):
		m.seen[keyOf(m.kept[0].Race)] = nil
		m.kept[0] = kept
		heap.Fix(&m.kept, 0)
	default:
		kept = nil
	}
	m.seen[k] = kept
	name := j.names[di]
	j.mu.Unlock()
	j.broadcast(raceEvent(name, r))
}

// finalizeJob moves the job to its terminal state, persists the result
// (skipped after Kill, simulating a daemon that died mid-replay), and
// settles counters and quota.
func (s *Server) finalizeJob(j *Job, runErr error, start time.Time) {
	// The terminal state is computed on a copy and persisted to disk
	// BEFORE it becomes visible through the in-memory job: a poller that
	// saw "done" could DELETE immediately, and if that removal's
	// DeleteManifest ran before this write, the write would resurrect a
	// manifest no table entry owns — invisible to /statsz, never TTL
	// expired, pinning its blobs against every future sweep.
	j.mu.Lock()
	man := *j.m
	man.UpdatedAt = time.Now()
	// wall runs from the executor's start: spill (upload overlapped) + tail.
	wall := man.UpdatedAt.Sub(start)
	spill := min(max(j.storedAt.Sub(start), 0), wall)
	var verdicts []client.Verdict
	switch {
	case runErr != nil && errors.Is(runErr, trace.ErrCanceled):
		man.State = client.StateCanceled
		man.Error = "analysis canceled"
	case runErr != nil:
		man.State = client.StateFailed
		man.Error = runErr.Error()
		man.ErrorStatus = statusFor(runErr)
	default:
		man.State = client.StateDone
		ms := float64(wall) / float64(time.Millisecond)
		verdicts = make([]client.Verdict, len(j.acc))
		for i, acc := range j.acc {
			verdicts[i] = client.Verdict{
				Detector:   j.names[i],
				Racy:       acc.count > 0,
				RaceCount:  acc.count,
				Races:      acc.races(),
				Capped:     acc.count > len(acc.kept),
				DurationMS: ms,
			}
			if man.WithStats {
				verdicts[i].Stats = wireStats(acc.stats)
			}
		}
		rep := &client.Report{
			Tool:       Tool,
			Version:    Version,
			Detector:   man.Detector,
			Sequential: man.Sequential,
			TraceBytes: man.TraceBytes,
			Verdicts:   verdicts,
			Sharded:    man.Sharded,
			Segments:   len(man.Segments),
		}
		if man.Detector == "all" {
			agree := true
			for _, v := range verdicts {
				agree = agree && v.Racy == verdicts[0].Racy
			}
			rep.Agree = &agree
		}
		man.Result = rep
	}
	j.mu.Unlock()

	if !s.killed.Load() {
		if err := s.store.WriteManifest(&man); err != nil {
			s.logf("job %s: persisting terminal manifest: %v", man.ID, err)
		}
	}
	j.mu.Lock()
	*j.m = man
	j.mu.Unlock()

	switch man.State {
	case client.StateDone:
		s.rec.Inc(stats.JobDone)
		s.rec.Add(stats.SrvAnalyses, int64(len(verdicts)))
	case client.StateFailed:
		s.rec.Inc(stats.JobFailed)
	case client.StateCanceled:
		s.rec.Inc(stats.JobCanceled)
	}
	s.quotas.ReleaseSlot(man.Tenant)
	s.logf("job %s %s tenant=%s detector=%s segments=%d spill=%dms tail=%dms err=%v",
		man.ID, man.State, man.Tenant, man.Detector, len(man.Segments),
		spill.Milliseconds(), (wall - spill).Milliseconds(), runErr)
	j.finish()
	s.sampleMem()
}

// removeJob deletes a job outright: manifest gone, stored bytes
// released, dropped from the table. The blobs become garbage for the
// next sweep. Callers must only remove terminal jobs (finalizeJob has
// already returned their queue slot).
func (s *Server) removeJob(j *Job) {
	man := j.manifest()
	s.jobsMu.Lock()
	delete(s.jobs, man.ID)
	s.jobsMu.Unlock()
	if err := s.store.DeleteManifest(man.ID); err != nil {
		s.logf("job %s: deleting manifest: %v", man.ID, err)
	}
	s.quotas.ReleaseBytes(man.Tenant, man.StoredBytes())
}

// lookupJob finds one job by path id.
func (s *Server) lookupJob(id string) *Job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[id]
}

// ---- /v2 handlers ----

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	opts, ok := s.parseSubmit(w, r)
	if !ok {
		return
	}
	j, err := s.submitJob(r.Context(), r.Body, opts)
	if err != nil {
		if ctx := r.Context(); ctx.Err() != nil {
			// The client leaving is the cause, whatever read or decode
			// error the aborted upload surfaced as.
			err = fmt.Errorf("%w: %v", trace.ErrCanceled, ctx.Err())
		}
		s.writeSubmitError(w, err)
		return
	}
	st := j.status()
	w.Header().Set("Location", "/v2/jobs/"+st.ID)
	s.writeJSON(w, http.StatusAccepted, st)
}

// writeSubmitError classifies and counts a refused or failed submit:
// draining is 503 (srv.rejected), quota exhaustion 429 with Retry-After
// (quota.denied), an upload canceled by the client leaving 504
// (srv.canceled), and trace sentinels keep their statusFor mapping.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var qe *quota.Error
	switch {
	case errors.Is(err, errDraining):
		s.rec.Inc(stats.SrvRejected)
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.As(err, &qe):
		s.rec.Inc(stats.QuotaDenied)
		w.Header().Set("Retry-After", strconv.Itoa(int(qe.RetryAfter.Seconds()+0.5)))
		s.writeError(w, http.StatusTooManyRequests, "%v", qe)
	case errors.Is(err, trace.ErrCanceled):
		s.rec.Inc(stats.SrvCanceled)
		s.writeError(w, http.StatusGatewayTimeout, "analysis canceled: %v", err)
	default:
		s.writeError(w, statusFor(err), "%v", err)
	}
}

// writeResult relays a terminal job's outcome on GET /v2/jobs/{id}/result.
func (s *Server) writeResult(w http.ResponseWriter, m store.Manifest) {
	switch m.State {
	case client.StateDone:
		s.writeJSON(w, http.StatusOK, m.Result)
	case client.StateFailed:
		status := m.ErrorStatus
		if status == 0 {
			status = http.StatusInternalServerError
		}
		s.writeError(w, status, "%s", m.Error)
	default:
		s.writeError(w, http.StatusGatewayTimeout, "analysis canceled")
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	// Same tenant mapping as submission: a missing header scopes the
	// listing to "default" rather than exposing every tenant's job ids
	// (which grant status/result/cancel access).
	tenant, err := tenantOf(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.jobsMu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.jobsMu.Unlock()
	list := client.JobList{Tool: Tool, Version: Version, Jobs: []client.JobStatus{}}
	for _, j := range jobs {
		st := j.status()
		if st.Tenant != tenant {
			continue
		}
		list.Jobs = append(list.Jobs, st)
	}
	sort.Slice(list.Jobs, func(i, k int) bool {
		a, b := list.Jobs[i], list.Jobs[k]
		if !a.CreatedAt.Equal(b.CreatedAt) {
			return a.CreatedAt.Before(b.CreatedAt)
		}
		return a.ID < b.ID
	})
	s.writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if m := j.manifest(); client.Terminal(m.State) {
		s.writeResult(w, m)
		return
	}
	// Not terminal yet: answer like the 202 submit did, so pollers can
	// hit /result in a loop until it turns into the envelope.
	s.writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !client.Terminal(j.manifest().State) {
		// Running or queued: DELETE is a cancellation request, routed
		// into the replay through Limits.Cancel. The job survives
		// (state canceled) until deleted again.
		j.cancel()
		s.writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	s.removeJob(j)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, replay := j.subscribe()
	defer j.unsubscribe(ch)
	// The server's WriteTimeout bounds each frame's write, not the
	// stream: a job idle for longer still ends its stream with done, and
	// a reader that takes nothing is cut one WriteTimeout after a frame.
	rc := http.NewResponseController(w)
	var timeout time.Duration
	if hs, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
		timeout = hs.WriteTimeout
	}
	write := func(ev jobEvent) {
		if timeout > 0 {
			// A failure leaves the old deadline, which the write then meets.
			_ = rc.SetWriteDeadline(time.Now().Add(timeout))
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
	}
	for _, ev := range replay {
		write(ev)
	}
	fl.Flush()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// The job is terminal: the done frame goes last, however
				// many race events a full buffer dropped.
				write(j.finalEvent())
				fl.Flush()
				return
			}
			write(ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
