package quota

import (
	"errors"
	"testing"
	"time"
)

// op is one ledger call in a scripted scenario, followed by the state
// tenant "t" must be in afterwards.
type op struct {
	call string // admit, charge, slot, bytes, restore, restore-live, sweep, tick
	n, m int64  // admit: estimate; charge: stored, estimate; bytes/restore: stored; tick: seconds
	deny string // the *Error Kind the call must return ("" = success)

	jobs    int
	stored  int64
	tenants int
}

func TestLedger(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ops  []op
	}{
		{
			name: "admit, charge, release in order; idle tenant is swept",
			cfg:  Config{MaxQueuedJobs: 2, MaxStoredBytes: 100},
			ops: []op{
				{call: "admit", n: 40, jobs: 1, tenants: 1},
				{call: "charge", n: 40, m: 40, jobs: 1, stored: 40, tenants: 1},
				{call: "sweep", jobs: 1, stored: 40, tenants: 1}, // live job
				{call: "slot", stored: 40, tenants: 1},
				{call: "sweep", stored: 40, tenants: 1}, // stored bytes
				{call: "bytes", n: 40, tenants: 1},
				{call: "sweep"},
			},
		},
		{
			name: "queue ceiling",
			cfg:  Config{MaxQueuedJobs: 2},
			ops: []op{
				{call: "admit", jobs: 1, tenants: 1},
				{call: "admit", jobs: 2, tenants: 1},
				{call: "admit", deny: "queued jobs", jobs: 2, tenants: 1},
				{call: "slot", jobs: 1, tenants: 1},
				{call: "admit", jobs: 2, tenants: 1},
			},
		},
		{
			name: "stored-bytes ceiling at admit counts the estimate",
			cfg:  Config{MaxStoredBytes: 100},
			ops: []op{
				{call: "admit", n: 60, jobs: 1, tenants: 1},
				{call: "charge", n: 60, m: 60, jobs: 1, stored: 60, tenants: 1},
				{call: "admit", n: 41, deny: "stored bytes", jobs: 1, stored: 60, tenants: 1},
				{call: "admit", n: 40, jobs: 2, stored: 60, tenants: 1},
			},
		},
		{
			// Two chunked uploads (estimate 0) both pass admit; the second
			// one's real size only shows at charge, which refuses it and
			// leaves the gauge where it was. The caller then returns the slot.
			name: "chunked upload: charge refuses what admit let through",
			cfg:  Config{MaxStoredBytes: 100},
			ops: []op{
				{call: "admit", jobs: 1, tenants: 1},
				{call: "admit", jobs: 2, tenants: 1},
				{call: "charge", n: 70, jobs: 2, stored: 70, tenants: 1},
				{call: "charge", n: 31, deny: "stored bytes", jobs: 2, stored: 70, tenants: 1},
				{call: "slot", jobs: 1, stored: 70, tenants: 1},
				{call: "charge", n: 30, jobs: 1, stored: 100, tenants: 1},
			},
		},
		{
			name: "releases never drive a gauge negative",
			ops: []op{
				{call: "slot"}, // unknown tenant: not created
				{call: "bytes", n: 10},
				{call: "restore", n: 5, stored: 5, tenants: 1},
				{call: "slot", stored: 5, tenants: 1},
				{call: "bytes", n: 10, tenants: 1},
			},
		},
		{
			name: "restore rebuilds gauges; only a live job takes a slot",
			cfg:  Config{MaxQueuedJobs: 1},
			ops: []op{
				{call: "restore", n: 30, stored: 30, tenants: 1},
				{call: "restore-live", n: 20, jobs: 1, stored: 50, tenants: 1},
				{call: "admit", deny: "queued jobs", jobs: 1, stored: 50, tenants: 1},
			},
		},
		{
			name: "a tenant in token debt survives the sweep until it has refilled",
			cfg:  Config{RateBytesPerSec: 10, BurstBytes: 40},
			ops: []op{
				{call: "admit", n: 40, jobs: 1, tenants: 1},
				{call: "slot", tenants: 1},
				{call: "sweep", tenants: 1},
				{call: "tick", n: 3, tenants: 1},
				{call: "sweep", tenants: 1}, // 30 of 40 tokens
				{call: "tick", n: 1, tenants: 1},
				{call: "sweep"},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := New(tc.cfg, 2)
			now := time.Unix(1_000_000, 0)
			q.now = func() time.Time { return now }
			for i, o := range tc.ops {
				var err error
				switch o.call {
				case "admit":
					err = q.Admit("t", o.n)
				case "charge":
					err = q.Charge("t", o.n, o.m)
				case "slot":
					q.ReleaseSlot("t")
				case "bytes":
					q.ReleaseBytes("t", o.n)
				case "restore", "restore-live":
					q.Restore("t", o.n, o.call == "restore-live")
				case "sweep":
					q.Sweep()
				case "tick":
					now = now.Add(time.Duration(o.n) * time.Second)
				default:
					t.Fatalf("op %d: unknown call %q", i, o.call)
				}
				var qe *Error
				switch {
				case o.deny == "" && err != nil:
					t.Fatalf("op %d %s: %v", i, o.call, err)
				case o.deny != "" && (!errors.As(err, &qe) || qe.Kind != o.deny || qe.Tenant != "t"):
					t.Fatalf("op %d %s: err = %v, want %q exhausted", i, o.call, err, o.deny)
				}
				if jobs, stored, tenants := q.Gauges("t"); jobs != o.jobs || stored != o.stored || tenants != o.tenants {
					t.Fatalf("op %d %s: jobs/stored/tenants = %d/%d/%d, want %d/%d/%d",
						i, o.call, jobs, stored, tenants, o.jobs, o.stored, o.tenants)
				}
			}
		})
	}
}

// TestRetryAfter pins the token bucket's arithmetic with the clock
// stepped by hand: a refusal asks for the time the missing tokens take
// to refill plus one second, refill is capped at the burst, a charge
// beyond the estimate puts the bucket in debt, and the fixed backoffs
// of the two gauges.
func TestRetryAfter(t *testing.T) {
	q := New(Config{RateBytesPerSec: 100, BurstBytes: 400, MaxQueuedJobs: -1, MaxStoredBytes: -1}, 0)
	now := time.Unix(1_000_000, 0)
	q.now = func() time.Time { return now }
	retryAfter := func(estimate int64) time.Duration {
		t.Helper()
		err := q.Admit("t", estimate)
		var qe *Error
		if err == nil {
			return 0
		}
		if !errors.As(err, &qe) || qe.Kind != "byte rate" {
			t.Fatalf("Admit(%d) = %v, want a byte-rate refusal", estimate, err)
		}
		return qe.RetryAfter
	}
	for i, step := range []struct {
		tick     time.Duration
		estimate int64
		want     time.Duration // 0 = admitted
	}{
		{0, 400, 0},               // the full burst
		{0, 100, 2 * time.Second}, // empty: 100 missing at 100 B/s, +1s
		{500 * time.Millisecond, 100, 1500 * time.Millisecond}, // 50 refilled, 50 missing
		{500 * time.Millisecond, 100, 0},                       // 100 refilled
		{time.Hour, 425, 1250 * time.Millisecond},              // refill stops at the burst: 25 missing
		{0, 400, 0},
	} {
		now = now.Add(step.tick)
		if got := retryAfter(step.estimate); got != step.want {
			t.Errorf("step %d: Admit(%d) after +%v: RetryAfter = %v, want %v", i, step.estimate, step.tick, got, step.want)
		}
	}
	// The bucket is empty; an upload 250 bytes over its estimate leaves
	// a debt the next admit has to wait out.
	if err := q.Charge("t", 250, 0); err != nil {
		t.Fatal(err)
	}
	if got := retryAfter(50); got != 4*time.Second {
		t.Errorf("in debt by 250: RetryAfter = %v, want 4s", got)
	}

	fixed := New(Config{MaxQueuedJobs: 1, MaxStoredBytes: 10}, 0)
	var qe *Error
	if err := fixed.Admit("t", 11); !errors.As(err, &qe) || qe.RetryAfter != 30*time.Second {
		t.Errorf("stored-bytes refusal = %v, want RetryAfter 30s", err)
	}
	if err := fixed.Admit("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := fixed.Admit("t", 0); !errors.As(err, &qe) || qe.RetryAfter != 5*time.Second {
		t.Errorf("queued-jobs refusal = %v, want RetryAfter 5s", err)
	}
	if msg := qe.Error(); msg != `tenant "t" over quota: queued jobs exhausted (retry after 5s)` {
		t.Errorf("message = %q", msg)
	}
}

// TestShardSem: the per-tenant semaphore is TenantShards wide, defaults
// to the pool size, and a negative value disables it.
func TestShardSem(t *testing.T) {
	for _, tc := range []struct{ shards, pool, want int }{{0, 3, 3}, {2, 8, 2}, {-1, 8, 0}} {
		q := New(Config{TenantShards: tc.shards}, tc.pool)
		q.Restore("t", 1, true)
		if got := cap(q.ShardSem("t")); got != tc.want {
			t.Errorf("TenantShards %d, pool %d: cap = %d, want %d", tc.shards, tc.pool, got, tc.want)
		}
	}
}
