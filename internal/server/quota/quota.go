// Package quota is spd3d's per-tenant ledger: what each tenant holds
// (live jobs, stored bytes, submit-rate tokens, shard slots) and the
// admission decision made from it. It knows nothing of HTTP or of jobs;
// the server calls Admit before reading a submit's body, Charge once
// the upload's real size is known, and the two releases as a job ends
// and is deleted.
//
// Invariants: a tenant's gauges never exceed the configured ceilings
// (Charge refuses rather than overshoots) and never go negative; one
// tenant's exhaustion never touches another's admission; and a tenant
// holding nothing is forgotten by Sweep, so the table is bounded by the
// tenants with work in the daemon, not by the names clients have sent.
package quota

import (
	"fmt"
	"sync"
	"time"
)

// Config bounds what one tenant (keyed by the X-SPD3-Tenant header;
// missing header = the "default" tenant) may consume. Every limit is
// per-tenant, so one tenant exhausting its quota never touches another
// tenant's admission — the isolation the /v2 redesign promises.
type Config struct {
	// MaxQueuedJobs bounds a tenant's non-terminal jobs (queued +
	// running). Defaults to 64; negative disables the bound.
	MaxQueuedJobs int
	// MaxStoredBytes bounds a tenant's total stored segment bytes,
	// summed over its live jobs (pre-dedup, so self-similar traces
	// cannot launder quota through the CAS). Defaults to 4 GiB;
	// negative disables.
	MaxStoredBytes int64
	// TenantShards bounds how many shard-pool slots one tenant's
	// segment replays may hold at once, so a tenant with a giant queued
	// backlog cannot monopolize the pool. 0 means the pool size
	// (no per-tenant narrowing); negative disables.
	TenantShards int
	// RateBytesPerSec refills a per-tenant token bucket charged by
	// submitted trace bytes; an empty bucket rejects the submit with
	// 429 + Retry-After. 0 disables rate limiting.
	RateBytesPerSec int64
	// BurstBytes is the bucket capacity. Defaults to 4×RateBytesPerSec
	// when rate limiting is on.
	BurstBytes int64
}

// withDefaults returns cfg with zero fields defaulted.
func (c Config) withDefaults() Config {
	if c.MaxQueuedJobs == 0 {
		c.MaxQueuedJobs = 64
	}
	if c.MaxStoredBytes == 0 {
		c.MaxStoredBytes = 4 << 30
	}
	if c.RateBytesPerSec > 0 && c.BurstBytes <= 0 {
		c.BurstBytes = 4 * c.RateBytesPerSec
	}
	return c
}

// Error is a typed admission rejection: what ran out, and how long the
// client should wait before retrying. The server maps it to 429 with a
// Retry-After header.
type Error struct {
	Kind       string // "queued jobs", "stored bytes", "byte rate"
	Tenant     string
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("tenant %q over quota: %s exhausted (retry after %s)",
		e.Tenant, e.Kind, e.RetryAfter.Round(time.Second))
}

// tenantState is one tenant's live accounting: gauges for its queued
// jobs and stored bytes, its token bucket, and its shard-slot
// semaphore. Gauges move on job admission, deletion, and GC; the
// semaphore is held around each segment replay.
type tenantState struct {
	jobs        int
	storedBytes int64

	// Token bucket, refilled lazily (see refill).
	tokens   int64
	lastFill time.Time

	// shardSem narrows the global shard pool for this tenant; nil when
	// TenantShards is disabled.
	shardSem chan struct{}
}

// Table tracks every tenant that holds something: a live job, stored
// bytes, or a token-bucket debt. Tenants are created by Admit and
// Restore and forgotten by Sweep.
type Table struct {
	cfg Config
	now func() time.Time // the token bucket's clock; tests step it

	mu      sync.Mutex
	tenants map[string]*tenantState
}

// New returns an empty table. poolWorkers is the shard pool's size,
// which TenantShards defaults to.
func New(cfg Config, poolWorkers int) *Table {
	cfg = cfg.withDefaults()
	if cfg.TenantShards == 0 {
		cfg.TenantShards = poolWorkers
	}
	return &Table{cfg: cfg, now: time.Now, tenants: make(map[string]*tenantState)}
}

// tenant returns (creating if needed) one tenant's state. Callers hold
// q.mu.
func (q *Table) tenant(name string) *tenantState {
	t, ok := q.tenants[name]
	if !ok {
		t = &tenantState{tokens: q.cfg.BurstBytes, lastFill: q.now()}
		if q.cfg.TenantShards > 0 {
			t.shardSem = make(chan struct{}, q.cfg.TenantShards)
		}
		q.tenants[name] = t
	}
	return t
}

// refill credits t's bucket with the tokens earned since its last fill.
func (q *Table) refill(t *tenantState) {
	now := q.now()
	refill := int64(now.Sub(t.lastFill).Seconds() * float64(q.cfg.RateBytesPerSec))
	if refill > 0 {
		t.tokens = min(t.tokens+refill, q.cfg.BurstBytes)
		t.lastFill = now
	}
}

// Admit charges one job submission of byteEstimate against tenant's
// quotas: the queued-jobs gauge, the stored-bytes gauge, and the token
// bucket. On success the job gauge is already incremented (settle with
// Charge, then ReleaseSlot/ReleaseBytes); on failure an *Error
// describes the exhausted resource.
func (q *Table) Admit(tenant string, byteEstimate int64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenant(tenant)

	if q.cfg.MaxQueuedJobs > 0 && t.jobs >= q.cfg.MaxQueuedJobs {
		return &Error{Kind: "queued jobs", Tenant: tenant, RetryAfter: 5 * time.Second}
	}
	if q.cfg.MaxStoredBytes > 0 && t.storedBytes+byteEstimate > q.cfg.MaxStoredBytes {
		return &Error{Kind: "stored bytes", Tenant: tenant, RetryAfter: 30 * time.Second}
	}
	if q.cfg.RateBytesPerSec > 0 {
		q.refill(t)
		if t.tokens < byteEstimate {
			wait := time.Duration(float64(byteEstimate-t.tokens)/float64(q.cfg.RateBytesPerSec)*float64(time.Second)) + time.Second
			return &Error{Kind: "byte rate", Tenant: tenant, RetryAfter: wait}
		}
		t.tokens -= byteEstimate
	}
	t.jobs++
	return nil
}

// Charge settles a submitted job's actual stored bytes (known only
// after the splitter has run) against the tenant's gauge, and debits
// the token bucket for any bytes beyond the admission estimate (the
// bucket may go negative; the tenant pays it back through refill).
//
// The stored-bytes ceiling is re-checked here because admission only
// saw the client-supplied Content-Length — 0 for a chunked upload — so
// concurrent submits could each pass Admit and only reveal their real
// size after the spill. A charge that would push the gauge over the
// ceiling is refused: the caller fails the job and its blobs become
// garbage for the next sweep, so the gauge itself never overshoots.
func (q *Table) Charge(tenant string, storedBytes, estimate int64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := q.tenant(tenant)
	if q.cfg.MaxStoredBytes > 0 && t.storedBytes+storedBytes > q.cfg.MaxStoredBytes {
		return &Error{Kind: "stored bytes", Tenant: tenant, RetryAfter: 30 * time.Second}
	}
	t.storedBytes += storedBytes
	if q.cfg.RateBytesPerSec > 0 && storedBytes > estimate {
		t.tokens -= storedBytes - estimate
	}
	return nil
}

// ReleaseSlot returns a job's queue slot: called when the job reaches a
// terminal state. Its stored bytes stay charged until ReleaseBytes, so
// a tenant cannot park unlimited finished results in the store.
func (q *Table) ReleaseSlot(tenant string) {
	q.mu.Lock()
	if t := q.tenants[tenant]; t != nil && t.jobs > 0 {
		t.jobs--
	}
	q.mu.Unlock()
}

// ReleaseBytes returns a deleted or GC-expired job's stored bytes.
func (q *Table) ReleaseBytes(tenant string, storedBytes int64) {
	q.mu.Lock()
	if t := q.tenants[tenant]; t != nil {
		t.storedBytes = max(t.storedBytes-storedBytes, 0)
	}
	q.mu.Unlock()
}

// Restore rebuilds a tenant's gauges from a manifest at daemon restart:
// the stored bytes always, plus a queue slot when the job is live
// (queued or running).
func (q *Table) Restore(tenant string, storedBytes int64, live bool) {
	q.mu.Lock()
	t := q.tenant(tenant)
	t.storedBytes += storedBytes
	if live {
		t.jobs++
	}
	q.mu.Unlock()
}

// ShardSem returns the tenant's shard-slot semaphore (nil = unlimited).
// The caller's job holds a queue slot, so the tenant exists and Sweep
// leaves it alone for as long as the semaphore is in use.
func (q *Table) ShardSem(tenant string) chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tenant(tenant).shardSem
}

// Gauges reads one tenant's live-job and stored-bytes gauges (zero for
// a tenant the table does not hold) and the number of tenants held.
func (q *Table) Gauges(tenant string) (jobs int, storedBytes int64, tenants int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t := q.tenants[tenant]; t != nil {
		jobs, storedBytes = t.jobs, t.storedBytes
	}
	return jobs, storedBytes, len(q.tenants)
}

// Sweep forgets every tenant that holds nothing — no live job, no
// stored bytes, a full token bucket — and returns their names. Such a
// tenant's next submit recreates exactly the state dropped here, so
// forgetting it is invisible to admission.
func (q *Table) Sweep() (forgotten []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for name, t := range q.tenants {
		if t.jobs != 0 || t.storedBytes != 0 {
			continue
		}
		if q.cfg.RateBytesPerSec > 0 {
			if q.refill(t); t.tokens < q.cfg.BurstBytes {
				continue
			}
		}
		delete(q.tenants, name)
		forgotten = append(forgotten, name)
	}
	return forgotten
}
