// Package server implements spd3d, the networked trace-analysis service:
// a stdlib-only HTTP daemon that accepts traces recorded by
// internal/trace and replays them into any detector from the detect
// registry.
//
// SPD3's certification guarantee (PAPER §5, Theorem 1) makes traces the
// natural unit of work for a detection service: one recorded execution
// certifies all schedules of that input, so a program records once at
// near-zero overhead and the daemon analyzes the trace many times — under
// different detectors, on different machines, long after the run.
//
// API:
//
//	POST   /v2/jobs?detector=<name>   trace body → 202 + job status, once the upload is stored
//	POST   /v2/jobs?detector=all      differential: every legal detector, verdict agreement
//	GET    /v2/jobs                   the caller's tenant's jobs
//	GET    /v2/jobs/{id}              job status
//	GET    /v2/jobs/{id}/result       JSON race report (202 while the job runs)
//	GET    /v2/jobs/{id}/events       SSE: races as found, then a done frame
//	DELETE /v2/jobs/{id}              cancel a live job, remove a finished one
//	GET    /v2/detectors              registry listing
//	GET    /healthz                   liveness (503 while draining)
//	GET    /statsz                    merged stats snapshot + server counters
//
// Robustness is the point, not an afterthought: every submit passes one
// admission step before a byte of its body is read (503 while draining,
// 429 + Retry-After when the tenant's job queue is full), bodies are
// size-capped (413), a DELETE of a live job propagates into the replay
// loop through trace.Limits.Cancel (the replay stops, it does not run to
// completion in the background), and Drain lets the daemon finish
// admitted work while refusing new submits. Decode failures map to
// precise status codes via the trace package's typed errors: 400
// malformed, 413 over resource limits, 422 sequential-only detector on a
// parallel trace, 404 unknown detector.
//
// There is one submit→verdict lifecycle (job.go): the upload streams
// through a counting limiter (overflow → the same trace.ErrLimit → 413
// path as declared-resource limits), a cancel-aware reader and a
// finish-scope splitter into the content-addressed store, never held in
// memory in full, while the segments already stored replay, fanned
// across a bounded worker pool (shard.go). Daemon memory stays
// proportional to one segment plus the live task set of the replays —
// SPD3's O(1) per-location space guarantee end-to-end — so a trace far
// larger than the daemon's memory ceiling analyzes to the exact verdict
// a buffered replay would reach. POST /v2/jobs answers 202 once the
// upload is stored; spd3/client's Analyze is the one-call form (submit,
// wait, result, delete).
//
// This package is that lifecycle and nothing else: the JSON it speaks
// is declared in spd3/client and marshaled here, the trace store is
// internal/server/store and the tenant ledger internal/server/quota.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spd3/client"
	"spd3/internal/detect"
	"spd3/internal/server/quota"
	"spd3/internal/server/store"
	"spd3/internal/stats"
	"spd3/internal/trace"
)

// Tool and Version identify the daemon in every JSON envelope, in the
// same style as spd3 -stats and spd3vet -json.
const (
	Tool    = "spd3d"
	Version = "1.0.0"
)

// Config tunes one Server. The zero value gets sensible defaults from
// New.
type Config struct {
	// MaxBodyBytes caps the trace body size; larger uploads get 413.
	// Defaults to 64 MiB.
	MaxBodyBytes int64
	// Limits bounds the resources one replay may demand. The zero
	// value means trace.DefaultLimits. Cancel is overwritten per
	// job.
	Limits trace.Limits
	// MaxRacesPerReport caps the races carried in one JSON verdict
	// (the verdict stays exact; Capped marks truncation). Defaults to
	// 256.
	MaxRacesPerReport int
	// ShardWorkers bounds concurrent segment replays across the whole
	// daemon (the shard pool). Zero or negative means GOMAXPROCS; 1 is
	// the serial configuration.
	ShardWorkers int
	// MinSegmentBytes coalesces tiny finish scopes before a cut.
	// Defaults to 256 KiB.
	MinSegmentBytes int
	// MaxSegmentBytes bounds how much one segment may buffer before the
	// analysis falls back to a single streamed replay. Defaults to
	// 32 MiB.
	MaxSegmentBytes int
	// StoreDir roots the persistent trace store (segments + job
	// manifests). Empty means an ephemeral store in a fresh temp
	// directory, removed by Close — jobs then do not survive restarts.
	StoreDir string
	// StoreTTL bounds how long a finished job (done, failed, or
	// canceled) stays in the store before GC reclaims its manifest and
	// unshared segments. Defaults to 1h; negative keeps jobs forever.
	StoreTTL time.Duration
	// GCInterval is the store garbage-collection period. 0 disables the
	// background sweeper (GC then only happens via explicit Sweep calls
	// and job deletion).
	GCInterval time.Duration
	// Quota bounds each tenant's queued jobs, stored bytes, submit byte
	// rate, and concurrent shard slots. See quota.Config for defaults.
	Quota quota.Config
	// Sampling configures per-tenant check sampling: a default spec, an
	// overhead budget for the samplers, and per-tenant overrides. The
	// zero value means every check runs (sampling off).
	Sampling SamplingConfig
	// Log receives one line per analysis; nil disables.
	Log *log.Logger
}

// Server is the spd3d request handler plus its drain set, job table,
// trace store, and counters. Create with Open; serve via Handler; pair
// Drain with http.Server.Shutdown; Close when done.
type Server struct {
	cfg      Config
	rec      *stats.Recorder // srv.*, job.*, store.* and quota.* counters
	pool     *shardPool
	store    *store.Store
	quotas   *quota.Table
	samplers *samplerTable
	peakHeap atomic.Uint64
	start    time.Time
	mux      *http.ServeMux

	// tmpStore is the temp directory Open created for the store when
	// StoreDir was empty; Close removes it.
	tmpStore string
	// killed simulates an abrupt daemon death for restart testing: set
	// by Kill, it stops all manifest persistence so the on-disk state
	// freezes exactly as a SIGKILL would leave it.
	killed atomic.Bool
	gcStop chan struct{}
	gcDone chan struct{}

	jobsMu sync.Mutex
	jobs   map[string]*Job

	mu       sync.Mutex
	draining bool
	inFlight int            // the drain set: submits being stored and jobs not yet terminal
	idle     chan struct{}  // non-nil while a Drain waits for idleness
	agg      stats.Snapshot // analysis counters merged across requests
}

// Open returns a Server with cfg's zero fields defaulted, its store
// opened (resuming any jobs a previous daemon left queued or running),
// and its GC sweeper started when configured.
func Open(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Limits == (trace.Limits{}) {
		cfg.Limits = trace.DefaultLimits()
	}
	if cfg.MaxRacesPerReport <= 0 {
		cfg.MaxRacesPerReport = 256
	}
	if cfg.ShardWorkers <= 0 {
		cfg.ShardWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MinSegmentBytes <= 0 {
		cfg.MinSegmentBytes = 256 << 10
	}
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = 32 << 20
	}
	if cfg.StoreTTL == 0 {
		cfg.StoreTTL = time.Hour
	}
	if err := cfg.Sampling.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		rec:   stats.New(),
		start: time.Now(),
		mux:   http.NewServeMux(),
		jobs:  map[string]*Job{},
		pool:  newShardPool(cfg.ShardWorkers),
	}
	s.quotas = quota.New(cfg.Quota, cfg.ShardWorkers)
	s.samplers = newSamplerTable(cfg.Sampling)
	dir := cfg.StoreDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "spd3d-store-*")
		if err != nil {
			return nil, err
		}
		dir, s.tmpStore = tmp, tmp
	}
	st, err := store.Open(dir)
	if err != nil {
		_ = s.Close() // removes the temp dir; the store error is the one to report
		return nil, err
	}
	s.store = st

	s.mux.HandleFunc("GET /v2/detectors", s.handleDetectors)
	s.mux.HandleFunc("POST /v2/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v2/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v2/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v2/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)

	if err := s.resumeJobs(); err != nil {
		return nil, err
	}
	if cfg.GCInterval > 0 {
		s.gcStop = make(chan struct{})
		s.gcDone = make(chan struct{})
		go s.gcLoop()
	}
	return s, nil
}

// resumeJobs rebuilds the job table from the manifests a previous
// daemon left behind. Terminal jobs come back as poll-able results;
// queued or running jobs are re-queued and re-executed — the replay is
// a pure function of the stored segments, so re-running a job that
// died mid-replay is always sound.
func (s *Server) resumeJobs() error {
	manifests, err := s.store.LoadManifests()
	if err != nil {
		return err
	}
	for _, m := range manifests {
		j := newJob(m)
		live := !client.Terminal(m.State)
		s.quotas.Restore(m.Tenant, m.StoredBytes(), live)
		s.jobsMu.Lock()
		s.jobs[m.ID] = j
		s.jobsMu.Unlock()
		if !live {
			close(j.done)
			continue
		}
		if err := s.acquire(); err != nil {
			return err
		}
		s.rec.Inc(stats.JobResumed)
		s.logf("job %s resumed tenant=%s detector=%s segments=%d",
			m.ID, m.Tenant, m.Detector, len(m.Segments))
		s.markRunning(j)
		go s.runJob(j)
	}
	return nil
}

// gcLoop is the background store sweeper: every GCInterval it expires
// finished jobs older than StoreTTL and collects unreferenced blobs.
func (s *Server) gcLoop() {
	defer close(s.gcDone)
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.GC()
		case <-s.gcStop:
			return
		}
	}
}

// GC runs one garbage-collection pass: jobs in a terminal state whose
// manifests are older than StoreTTL are deleted (releasing their quota
// bytes), unreferenced blobs are swept from the CAS, and tenants left
// holding nothing are dropped from the quota table and, with their
// samplers, from the sampler table.
func (s *Server) GC() (sweptJobs, sweptBlobs int) {
	if ttl := s.cfg.StoreTTL; ttl > 0 {
		now := time.Now()
		s.jobsMu.Lock()
		var expired []*Job
		for _, j := range s.jobs {
			if m := j.manifest(); client.Terminal(m.State) && now.Sub(m.UpdatedAt) > ttl {
				expired = append(expired, j)
			}
		}
		s.jobsMu.Unlock()
		for _, j := range expired {
			s.removeJob(j)
			sweptJobs++
		}
	}
	sweptBlobs, err := s.store.Sweep()
	if err != nil {
		s.logf("gc: %v", err)
	}
	s.samplers.forget(s.quotas.Sweep())
	s.rec.Add(stats.StoreSweptJobs, int64(sweptJobs))
	s.rec.Add(stats.StoreSweptBlobs, int64(sweptBlobs))
	return sweptJobs, sweptBlobs
}

// Store exposes the server's trace store (for tests and tooling).
func (s *Server) Store() *store.Store { return s.store }

// Kill simulates an abrupt daemon death for restart testing: every job
// is canceled and all further manifest persistence stops, so the
// on-disk store freezes in whatever state a SIGKILL would have left it
// — running manifests stay "running" and resume on the next Open.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.jobsMu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.jobsMu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
}

// Close stops the GC sweeper and removes an ephemeral store. It does
// not wait for running jobs; call Drain first for a graceful stop.
func (s *Server) Close() error {
	if s.gcStop != nil {
		close(s.gcStop)
		<-s.gcDone
		s.gcStop = nil
	}
	if s.tmpStore != "" {
		return os.RemoveAll(s.tmpStore)
	}
	return nil
}

// Handler returns the daemon's HTTP handler; it counts every request
// into the srv.requests counter before routing.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.rec.Inc(stats.SrvRequests)
		s.mux.ServeHTTP(w, r)
	})
}

// errDraining refuses a submit that arrives after Drain; 503 on the wire.
var errDraining = errors.New("server is draining")

// acquire takes one slot in the drain set, or refuses while draining.
// A submit takes its slot before reading the body and hands it to the
// executor, so everything Drain waits for was admitted before Drain
// began and reaches a terminal state in this process.
func (s *Server) acquire() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	s.inFlight++
	return nil
}

// release returns a slot and wakes a pending Drain when the last one
// leaves.
func (s *Server) release() {
	s.mu.Lock()
	s.inFlight--
	if s.inFlight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// Drain switches the server into draining mode — submits on either
// endpoint are refused with 503, /healthz flips to 503 — and blocks
// until every admitted submit has failed or its job is terminal, or ctx
// expires (jobs still running then stay "running" on disk and resume at
// the next Open). It is the first half of a graceful shutdown; pair it
// with http.Server.Shutdown and Close.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inFlight == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// InFlight returns the size of the drain set: submits being stored plus
// jobs queued or running.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}

// wireStats renders a snapshot in its wire form — the one conversion
// between the engine's stats and the client's types; the JSON is what
// stats.Snapshot's own MarshalJSON produces.
func wireStats(snap stats.Snapshot) *client.StatsSnapshot {
	out := &client.StatsSnapshot{
		Counters:   snap.Map(),
		Histograms: map[string][]int64{stats.CASRetryHistName: snap.CASRetryHist[:]},
		Footprint:  client.Footprint(snap.Footprint),
	}
	if snap.Regions != nil { // nil and empty render differently
		out.Regions = make([]client.RegionStats, len(snap.Regions))
		for i, g := range snap.Regions {
			out.Regions[i] = client.RegionStats(g)
		}
	}
	return out
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, client.ErrorReport{Tool: Tool, Version: Version, Status: status, Error: fmt.Sprintf(format, args...)})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// statusFor maps a replay decode failure to its HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, trace.ErrSequentialOnly):
		return http.StatusUnprocessableEntity // 422
	case errors.Is(err, trace.ErrLimit):
		return http.StatusRequestEntityTooLarge // 413
	case errors.Is(err, trace.ErrBadMagic), errors.Is(err, trace.ErrTruncated), errors.Is(err, trace.ErrMalformed):
		return http.StatusBadRequest // 400
	default:
		return http.StatusInternalServerError
	}
}

// eligibleDetectors is differential mode's fan-out set: every
// registered detector that can legally consume the trace
// (sequential-only detectors join only for depth-first traces; the
// uninstrumented "none" baseline has no verdict and is skipped).
func eligibleDetectors(sequential bool) []string {
	var names []string
	for _, d := range detect.Describe() {
		if d.Name == "none" || (d.Sequential && !sequential) {
			continue
		}
		names = append(names, d.Name)
	}
	return names
}

func (s *Server) handleDetectors(w http.ResponseWriter, r *http.Request) {
	list := client.DetectorList{Tool: Tool, Version: Version}
	for _, d := range detect.Describe() {
		list.Detectors = append(list.Detectors, client.Detector(d))
	}
	s.writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Tool    string `json:"tool"`
		Version string `json:"version"`
		Status  string `json:"status"`
	}
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, health{Tool, Version, "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, health{Tool, Version, "ok"})
}

// sampleMem reads the runtime's heap gauges and folds HeapAlloc into
// the monotonic peak. Because the peak only grows, spd3load needs no
// sampler goroutine racing the analysis: one /statsz read after the run
// sees the high-water mark.
func (s *Server) sampleMem() (heapAlloc, sys uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	for {
		old := s.peakHeap.Load()
		if m.HeapAlloc <= old || s.peakHeap.CompareAndSwap(old, m.HeapAlloc) {
			break
		}
	}
	return m.HeapAlloc, m.Sys
}

// vmHWM returns the process's peak resident set (VmHWM from
// /proc/self/status) in bytes, or 0 where the proc filesystem is
// unavailable.
func vmHWM() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	snap := s.rec.Snapshot()
	s.mu.Lock()
	snap.Merge(s.agg)
	inFlight, draining := s.inFlight, s.draining
	s.mu.Unlock()
	heapAlloc, sys := s.sampleMem()
	var queued, running, total int
	s.jobsMu.Lock()
	for _, j := range s.jobs {
		total++
		switch j.manifest().State {
		case client.StateQueued:
			queued++
		case client.StateRunning:
			running++
		}
	}
	s.jobsMu.Unlock()
	blobs, blobBytes := s.store.Blobs()
	s.writeJSON(w, http.StatusOK, client.Statsz{
		Tool:           Tool,
		Version:        Version,
		UptimeSeconds:  time.Since(s.start).Seconds(),
		InFlight:       inFlight,
		Draining:       draining,
		ShardWorkers:   s.pool.Workers(),
		ShardBusy:      s.pool.Busy(),
		JobsQueued:     queued,
		JobsRunning:    running,
		JobsTotal:      total,
		StoreBlobs:     blobs,
		StoreBytes:     blobBytes,
		HeapAllocBytes: heapAlloc,
		SysBytes:       sys,
		PeakHeapBytes:  s.peakHeap.Load(),
		PeakRSSBytes:   vmHWM(),
		Sampling:       s.samplers.gauges(),
		Stats:          *wireStats(snap),
	})
}
