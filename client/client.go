// Package client is the typed Go client for a running spd3d daemon —
// the public successor to the helpers that used to live in
// internal/server. It speaks the /v2 job API (SubmitJob → WaitJob →
// Result → DeleteJob, with StreamEvents for live race findings over
// SSE); Analyze runs that sequence as one call.
//
// The package is the one definition of the daemon's JSON contract:
// spd3d (internal/server) marshals the wire types declared here, and
// docs/schema/*.json is checked against them. It imports nothing under
// internal/, so external tooling can depend on it. Daemon stats arrive
// as the expvar-style counters map (see StatsSnapshot), keyed by the
// namespaced counter names documented in the README (cas.*, dmhp.*,
// srv.*, job.*, store.*, quota.*, ...).
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client talks to one spd3d daemon. The zero value is not usable;
// construct with New.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7331".
	BaseURL string
	// HTTPClient is the underlying transport; New installs a default
	// with a generous overall timeout. StreamEvents, and so WaitJob and
	// Analyze's wait, strip the client timeout and rely on the caller's
	// context instead.
	HTTPClient *http.Client
	// Tenant, when set, is sent as the X-SPD3-Tenant header on every
	// request, scoping jobs and quotas to that tenant.
	Tenant string
	// Sample, when set, is sent as the sample= query parameter on
	// SubmitJob (and so on Analyze): a sampling spec like "bernoulli:0.01" or
	// "burst:0.02" overriding the daemon's per-tenant sampling config
	// for this client's submissions ("off" forces every check to run).
	Sample string
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTPClient: &http.Client{Timeout: 5 * time.Minute},
	}
}

// APIError is a non-2xx daemon response, decoded from its JSON error
// envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the daemon's error text.
	Message string
	// RetryAfter is the daemon's suggested backoff on a 429 quota
	// rejection (zero when the daemon sent none).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("spd3d: %s (HTTP %d)", e.Message, e.Status)
}

// Saturated reports whether the request was shed by admission control
// or quota (429 or 503 draining) — the retryable class a load
// generator counts separately from hard failures.
func (e *APIError) Saturated() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// ---- wire types (the daemon's stable JSON contract) ----

// Race is one reported race.
type Race struct {
	Kind   string `json:"kind"`
	Region string `json:"region"`
	Index  int    `json:"index"`
	Prev   string `json:"prev"`
	Cur    string `json:"cur"`
}

// StatsSnapshot is the daemon's observability snapshot in wire form:
// the namespaced counters map plus histograms, per-region traffic, and
// the detector footprint. Counter keys are stable wire names like
// "srv.analyses", "job.submitted", "store.put_bytes".
type StatsSnapshot struct {
	Counters   map[string]int64   `json:"counters"`
	Histograms map[string][]int64 `json:"histograms"`
	Regions    []RegionStats      `json:"regions"`
	Footprint  Footprint          `json:"footprint"`
}

// Get returns one counter by wire name (0 when absent).
func (s *StatsSnapshot) Get(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// RegionStats is one region's merged traffic.
type RegionStats struct {
	Name   string `json:"name"`
	Elems  int    `json:"elems"`
	Reads  int64  `json:"reads"`
	Writes int64  `json:"writes"`
}

// Footprint is a detector's analytic memory accounting.
type Footprint struct {
	ShadowBytes int64 `json:"shadow_bytes"`
	TreeBytes   int64 `json:"tree_bytes"`
	ClockBytes  int64 `json:"clock_bytes"`
	SetBytes    int64 `json:"set_bytes"`
}

// Verdict is one detector's result on one trace. DurationMS is the
// job's wall time from its executor starting — just after the upload's
// header was read — to the merged verdict: the daemon replays stored
// segments while the rest of the body is still arriving, so it includes
// the part of the upload the replays ran beside, and it is the same for
// every verdict of one job.
type Verdict struct {
	Detector   string         `json:"detector"`
	Racy       bool           `json:"racy"`
	RaceCount  int            `json:"race_count"`
	Races      []Race         `json:"races"`
	Capped     bool           `json:"capped,omitempty"`
	DurationMS float64        `json:"duration_ms"`
	Stats      *StatsSnapshot `json:"stats,omitempty"`
}

// Report is the merged analysis envelope: the /v2 job result.
type Report struct {
	Tool       string    `json:"tool"`
	Version    string    `json:"version"`
	Detector   string    `json:"detector"`
	Sequential bool      `json:"sequential"`
	TraceBytes int64     `json:"trace_bytes"`
	Verdicts   []Verdict `json:"verdicts"`
	// Sharded is true for every job this daemon version stores: the
	// finish-scope splitter cuts each upload. Segments is how many
	// independently replayed units the trace was stored as.
	Sharded  bool `json:"sharded,omitempty"`
	Segments int  `json:"segments,omitempty"`
	// Agree is set in differential mode: whether every detector
	// reached the same racy/race-free verdict.
	Agree *bool `json:"agree,omitempty"`
}

// Detector describes one registry entry from /v2/detectors.
type Detector struct {
	Name       string `json:"name"`
	Sequential bool   `json:"sequential"`
}

// DetectorList is the /v2/detectors response.
type DetectorList struct {
	Tool      string     `json:"tool"`
	Version   string     `json:"version"`
	Detectors []Detector `json:"detectors"`
}

// Statsz is the /statsz response: server gauges plus the merged
// observability snapshot. InFlight is the drain set (submits being
// stored plus live jobs); StoreBlobs/StoreBytes count the CAS after
// dedup; PeakHeapBytes and PeakRSSBytes are high-water marks, so one
// read after a run sees the run's ceiling.
type Statsz struct {
	Tool           string  `json:"tool"`
	Version        string  `json:"version"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	InFlight       int     `json:"in_flight"`
	Draining       bool    `json:"draining"`
	ShardWorkers   int     `json:"shard_workers"`
	ShardBusy      int     `json:"shard_busy"`
	JobsQueued     int     `json:"jobs_queued"`
	JobsRunning    int     `json:"jobs_running"`
	JobsTotal      int     `json:"jobs_total"`
	StoreBlobs     int     `json:"store_blobs"`
	StoreBytes     int64   `json:"store_bytes"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	SysBytes       uint64  `json:"sys_bytes"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`
	PeakRSSBytes   int64   `json:"peak_rss_bytes"`
	// Sampling lists the daemon's live per-tenant sampling gauges: one
	// row per (tenant, spec) pair it has replayed under and not yet
	// forgotten with its tenant, carrying the sampler's current rate.
	Sampling []TenantSampling `json:"sampling,omitempty"`
	Stats    StatsSnapshot    `json:"stats"`
}

// TenantSampling is one live sampling gauge: the mode and current
// (budget-adapted) sampling rate in effect for one tenant.
type TenantSampling struct {
	Tenant string  `json:"tenant"`
	Mode   string  `json:"mode"`
	Rate   float64 `json:"rate"`
}

// DetectorProgress is one detector's live progress inside a job.
type DetectorProgress struct {
	Detector     string `json:"detector"`
	SegmentsDone int    `json:"segments_done"`
	RaceCount    int    `json:"race_count"`
}

// Job states, as carried in JobStatus.State and in stored manifests.
// The machine is strictly forward: queued → running → one terminal
// state. Queued is only ever on disk: a job's first manifest records it,
// and the daemon marks the job running before anyone can see it, so the
// 202 body of a submit and every job a restarted daemon resumes read
// running.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Terminal reports whether state is one a job never leaves.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// JobStatus is the machine-readable job state from GET /v2/jobs/{id}
// and the 202 body of POST /v2/jobs.
type JobStatus struct {
	Tool        string             `json:"tool"`
	Version     string             `json:"version"`
	ID          string             `json:"job_id"`
	Tenant      string             `json:"tenant"`
	Detector    string             `json:"detector"`
	Sequential  bool               `json:"sequential"`
	State       string             `json:"state"`
	TraceBytes  int64              `json:"trace_bytes"`
	StoredBytes int64              `json:"stored_bytes"`
	Segments    int                `json:"segments"`
	Sharded     bool               `json:"sharded"` // as Report.Sharded
	Unsplit     bool               `json:"unsplit,omitempty"`
	Progress    []DetectorProgress `json:"progress,omitempty"`
	RaceCount   int                `json:"race_count"`
	Error       string             `json:"error,omitempty"`
	CreatedAt   time.Time          `json:"created_at"`
	UpdatedAt   time.Time          `json:"updated_at"`
}

// JobList is the GET /v2/jobs response: the caller's tenant's jobs,
// oldest first.
type JobList struct {
	Tool    string      `json:"tool"`
	Version string      `json:"version"`
	Jobs    []JobStatus `json:"jobs"`
}

// Event is one frame from a job's SSE stream: Name is "race", "state",
// or "done"; the payload fields are filled according to Name.
type Event struct {
	// Name is the SSE event name; it travels on the frame's event line,
	// not in the data payload.
	Name string `json:"-"`
	// Detector and Race are set on "race" events.
	Detector string `json:"detector,omitempty"`
	Race     *Race  `json:"race,omitempty"`
	// State is set on "state" and "done" events.
	State string `json:"state,omitempty"`
	// RaceCount and Error are set on "done" events.
	RaceCount int    `json:"race_count,omitempty"`
	Error     string `json:"error,omitempty"`
}

// MarshalJSON renders the frame's data payload: the fields its Name
// carries and no others. A "done" frame states its race count even when
// that is zero, which a field tag cannot express.
func (e Event) MarshalJSON() ([]byte, error) {
	if e.Name == "done" {
		return json.Marshal(struct {
			State     string `json:"state"`
			RaceCount int    `json:"race_count"`
			Error     string `json:"error,omitempty"`
		}{e.State, e.RaceCount, e.Error})
	}
	type payload Event // the tags without this method
	return json.Marshal(payload(e))
}

// ErrorReport is the JSON body of every non-2xx response.
type ErrorReport struct {
	Tool    string `json:"tool"`
	Version string `json:"version"`
	Status  int    `json:"status"`
	Error   string `json:"error"`
}

// apiError decodes a non-2xx response into *APIError: the envelope's
// message (the raw body when it is not one) and any Retry-After.
func apiError(resp *http.Response, body []byte) *APIError {
	apiErr := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	var er ErrorReport
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		apiErr.Message = er.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if d, perr := time.ParseDuration(ra + "s"); perr == nil {
			apiErr.RetryAfter = d
		}
	}
	return apiErr
}

// do issues the request and decodes the response into out, converting
// non-2xx statuses into *APIError. want is the expected success status.
func (c *Client) do(req *http.Request, want int, out any) error {
	if c.Tenant != "" {
		req.Header.Set("X-SPD3-Tenant", c.Tenant)
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return fmt.Errorf("spd3d: reading response: %w", err)
	}
	if resp.StatusCode != want {
		return apiError(resp, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("spd3d: decoding response: %w", err)
	}
	return nil
}

// ---- shared endpoints ----

// Detectors returns the daemon's registry listing.
func (c *Client) Detectors(ctx context.Context) ([]Detector, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/detectors", nil)
	if err != nil {
		return nil, err
	}
	var list DetectorList
	if err := c.do(req, http.StatusOK, &list); err != nil {
		return nil, err
	}
	return list.Detectors, nil
}

// Health checks /healthz; nil means the daemon is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	return c.do(req, http.StatusOK, nil)
}

// Stats returns the daemon's /statsz snapshot.
func (c *Client) Stats(ctx context.Context) (*Statsz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	var st Statsz
	if err := c.do(req, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ---- /v2 job API ----

// Analyze is the one-call form of the job API: SubmitJob, WaitJob,
// Result, then DeleteJob, so the job holds the tenant's quota only for
// the call. detector is a registry name, or "all" for differential mode;
// "" selects the daemon default (spd3). A job that failed or was
// canceled surfaces as *APIError with the daemon's recorded status. If
// ctx ends after the submit, the DELETE cancels the still-live job, a
// second one deletes it once canceled, and Analyze returns ctx's error.
func (c *Client) Analyze(ctx context.Context, detector string, tr io.Reader) (*Report, error) {
	st, err := c.SubmitJob(ctx, detector, tr)
	if err != nil {
		return nil, err
	}
	var rep *Report
	if _, err = c.WaitJob(ctx, st.ID); err == nil {
		rep, err = c.Result(ctx, st.ID)
	}
	// Best-effort clean-up on a context of its own: ctx may be the reason
	// the wait ended. A live job answers the DELETE with 202.
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	var live *APIError
	if errors.As(c.DeleteJob(dctx, st.ID), &live) && live.Status == http.StatusAccepted {
		if _, werr := c.WaitJob(dctx, st.ID); werr == nil {
			c.DeleteJob(dctx, st.ID) //nolint:errcheck // best-effort, as above
		}
	}
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return rep, err
}

// SubmitJob streams a recorded trace to POST /v2/jobs and returns the
// accepted job's status: state "running", or already terminal when the
// replay finished before the reply was written. The upload is the only
// synchronous part; pair with WaitJob/Result to collect the analysis.
// detector is a registry name, "all", or "" for the daemon default;
// Sample rides along as sample=.
func (c *Client) SubmitJob(ctx context.Context, detector string, tr io.Reader) (*JobStatus, error) {
	q := url.Values{}
	if detector != "" {
		q.Set("detector", detector)
	}
	if c.Sample != "" {
		q.Set("sample", c.Sample)
	}
	u := c.BaseURL + "/v2/jobs"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, tr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var st JobStatus
	if err := c.do(req, http.StatusAccepted, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// GetJob returns one job's current status.
func (c *Client) GetJob(ctx context.Context, id string) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := c.do(req, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// WaitJob follows the job's event stream to its done frame and returns
// the terminal status (done, failed, or canceled) from one GetJob;
// inspect State to distinguish success from failure. A stream cut before
// its done frame — spd3d's write timeout cuts every stream that outlives
// it — costs one GetJob: a terminal status is returned, a live job is
// subscribed to again. ctx bounds the whole wait.
func (c *Client) WaitJob(ctx context.Context, id string) (*JobStatus, error) {
	for {
		err := c.StreamEvents(ctx, id, func(Event) bool { return true })
		if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, err
		}
		st, err := c.GetJob(ctx, id)
		if err != nil || Terminal(st.State) {
			return st, err
		}
	}
}

// Result fetches a finished job's merged report. A job that failed or
// was canceled surfaces as *APIError with the daemon's recorded status;
// a job still running surfaces as *APIError with status 202.
func (c *Client) Result(ctx context.Context, id string) (*Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := c.do(req, http.StatusOK, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// CancelJob cancels a queued or running job (DELETE on a live job).
// The replay stops at its next cancellation poll; the job lands in
// state "canceled".
func (c *Client) CancelJob(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v2/jobs/"+id, nil)
	if err != nil {
		return err
	}
	return c.do(req, http.StatusAccepted, nil)
}

// DeleteJob deletes a finished job: its manifest and quota charge are
// released immediately, its segments on the next GC sweep.
func (c *Client) DeleteJob(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v2/jobs/"+id, nil)
	if err != nil {
		return err
	}
	return c.do(req, http.StatusNoContent, nil)
}

// StreamEvents subscribes to a job's SSE stream and delivers each
// event to fn: races as they are found, state transitions, and a final
// "done" event after which the stream ends and StreamEvents returns
// nil. fn returning false detaches early, also with nil. The call
// blocks until then or until ctx ends (ctx's error); a stream the
// daemon cut before its done frame — a write timeout, a shutdown — is
// an error wrapping io.ErrUnexpectedEOF. It uses a transport without the
// client's overall timeout, since a healthy stream can legitimately
// outlive it.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v2/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if c.Tenant != "" {
		req.Header.Set("X-SPD3-Tenant", c.Tenant)
	}
	hc := &http.Client{Transport: c.HTTPClient.Transport}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return apiError(resp, body)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var ev Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev = Event{Name: strings.TrimPrefix(line, "event: ")}
		case strings.HasPrefix(line, "data: "):
			json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) //nolint:errcheck // unknown fields are simply absent
		case line == "":
			if ev.Name == "" {
				continue
			}
			done := ev.Name == "done"
			if !fn(ev) {
				return nil
			}
			if done {
				return nil
			}
			ev = Event{}
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	cut := fmt.Errorf("spd3d: event stream of job %s ended before its done frame: %w", id, io.ErrUnexpectedEOF)
	return errors.Join(cut, sc.Err())
}
