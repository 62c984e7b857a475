// Command spd3load measures the service-level performance of a running
// spd3d daemon: it records one program's trace in-process (record once —
// SPD3's Theorem 1 makes that single trace certify all schedules of the
// input), then drives N concurrent one-call analyses (client.Analyze:
// submit, wait, result, delete over /v2) and prints throughput and
// latency percentiles.
//
// Usage:
//
//	spd3d -addr :7331 &
//	spd3load -addr http://127.0.0.1:7331 -bench SOR -size 0.2 -c 8 -n 200
//	spd3load -addr http://127.0.0.1:7331 -bench RacyMonteCarlo -detector all -d 10s
//	spd3load -addr http://127.0.0.1:7331 -bench RacyMonteCarlo -scale 64 -c 2 -n 8
//	spd3load -addr http://127.0.0.1:7331 -bench RacyMonteCarlo -tenant ci -digest
//
// -scale N streams an N×-amplified trace per request without ever
// materializing it client-side (trace.Amplifier synthesizes the bytes on
// the fly), which is how the daemon's flat-memory claim is exercised:
// after the run spd3load reads /statsz and reports the daemon's peak
// heap, peak RSS, and how many bytes and finish-scope segments it
// streamed through the sharded analyze path.
//
// Each measured latency covers the whole job lifecycle, submit to
// result. -tenant scopes the jobs (and the daemon's quotas) to a named
// tenant. -digest prints a stable SHA-256 over the run's deduplicated
// race set: same digest, same races.
//
// Rejections from the daemon's admission control (429 saturated / 503
// draining) are counted separately from hard failures: saturating the
// server is an expected outcome of a load test, not an error.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spd3/client"
	"spd3/internal/bench"
	_ "spd3/internal/detectors" // populate the detector registry (recording needs none, listing does)
	"spd3/internal/task"
	"spd3/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:7331", "spd3d base URL")
		name     = flag.String("bench", "SOR", "program to record (see spd3 -list)")
		detector = flag.String("detector", "spd3", "detector the daemon should run (or \"all\")")
		size     = flag.Float64("size", 0.2, "problem-size multiplier for the recorded run")
		scale    = flag.Int("scale", 1, "stream an N×-amplified trace per request (synthesized on the fly, never materialized client-side)")
		chunked  = flag.Bool("chunked", false, "coarse one-chunk-per-worker loops")
		seq      = flag.Bool("seq", false, "record depth-first (required for sequential-only detectors)")
		workers  = flag.Int("workers", 4, "worker count for the recorded run")
		conc     = flag.Int("c", 8, "concurrent connections")
		total    = flag.Int("n", 100, "total requests (ignored when -d is set)")
		duration = flag.Duration("d", 0, "run for this long instead of a fixed request count")
		tenant   = flag.String("tenant", "", "X-SPD3-Tenant header: scope jobs and quotas to this tenant")
		digest   = flag.Bool("digest", false, "print a SHA-256 over the run's deduplicated race set (equal digests, equal races)")
		sampleSp = flag.String("sample", "", "per-request sampling spec override sent as sample= (e.g. bernoulli:0.01, burst:0.02, off)")
	)
	flag.Parse()

	data, err := recordTrace(*name, *size, *chunked, *seq, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spd3load:", err)
		os.Exit(1)
	}
	wireBytes := int64(len(data))
	if *scale > 1 {
		amp, err := trace.NewAmplifier(data, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spd3load:", err)
			os.Exit(1)
		}
		wireBytes = amp.SizeHint()
		fmt.Printf("trace     : %s ×%d (%d bytes recorded, ~%d bytes streamed per request, sequential=%v)\n",
			*name, *scale, len(data), wireBytes, *seq)
	} else {
		fmt.Printf("trace     : %s (%d bytes, sequential=%v)\n", *name, len(data), *seq)
	}

	cl := client.New(*addr)
	cl.Tenant = *tenant
	cl.Sample = *sampleSp
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "spd3load: daemon at %s not healthy: %v\n", *addr, err)
		os.Exit(1)
	}
	before, err := cl.Stats(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spd3load: reading /statsz: %v\n", err)
		os.Exit(1)
	}

	res := run(ctx, cl, *detector, data, *scale, *conc, *total, *duration)
	fmt.Print(res.summary(*detector, wireBytes))
	if *digest {
		fmt.Printf("digest    : %s\n", res.raceDigest())
	}
	// The daemon's peak gauges are monotonic, so one post-run read sees
	// the run's high-water mark; the counter deltas isolate this run
	// from whatever the daemon served before.
	if after, err := cl.Stats(ctx); err == nil {
		fmt.Print(daemonSummary(before, after, len(res.races)))
	} else {
		fmt.Fprintf(os.Stderr, "spd3load: reading /statsz after run: %v\n", err)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}

// daemonSummary renders the server-side view of the run: bytes streamed
// through the analyze path, finish-scope segments sharded, the
// detector-side sampling deltas (with the effective rate and a
// missed-race estimate when checks were elided), and the daemon's
// memory high-water marks — the numbers that substantiate the
// flat-ceiling claim when -scale pushes traces far past daemon RAM.
// found is the run's deduplicated distinct-race count, the basis of the
// missed-race estimate.
func daemonSummary(before, after *client.Statsz, found int) string {
	var b bytes.Buffer
	streamed := after.Stats.Get("srv.streamed_bytes") - before.Stats.Get("srv.streamed_bytes")
	segments := after.Stats.Get("trace.segments") - before.Stats.Get("trace.segments")
	unsplit := after.Stats.Get("srv.unsplit") - before.Stats.Get("srv.unsplit")
	fmt.Fprintf(&b, "daemon    : %.2f MB streamed, %d segments", float64(streamed)/(1<<20), segments)
	if unsplit > 0 {
		fmt.Fprintf(&b, " (%d unsplit fallbacks)", unsplit)
	}
	fmt.Fprintf(&b, ", %d shard workers\n", after.ShardWorkers)
	if stored := after.Stats.Get("store.put_bytes") - before.Stats.Get("store.put_bytes"); stored > 0 {
		dedup := after.Stats.Get("store.dedup_hits") - before.Stats.Get("store.dedup_hits")
		fmt.Fprintf(&b, "store     : %.2f MB written, %d dedup hits, %d blobs / %.2f MB resident\n",
			float64(stored)/(1<<20), dedup, after.StoreBlobs, float64(after.StoreBytes)/(1<<20))
	}
	checked := after.Stats.Get("sample.checked") - before.Stats.Get("sample.checked")
	skipped := after.Stats.Get("sample.skipped") - before.Stats.Get("sample.skipped")
	if checked > 0 || skipped > 0 {
		rate := float64(checked) / float64(checked+skipped)
		fmt.Fprintf(&b, "sampling  : %d checked, %d skipped (effective rate %.4f)",
			checked, skipped, rate)
		// Per-location coins give both racing accesses the same decision,
		// so a race at a skipped location is missed with probability
		// (1-r): found races undercount by roughly found×(1-r)/r.
		if rate > 0 && rate < 1 && found > 0 {
			fmt.Fprintf(&b, ", ~%.0f races likely missed", float64(found)*(1-rate)/rate)
		}
		fmt.Fprintln(&b)
		for _, ts := range after.Sampling {
			fmt.Fprintf(&b, "governor  : tenant=%s mode=%s rate=%.4f\n", ts.Tenant, ts.Mode, ts.Rate)
		}
	}
	fmt.Fprintf(&b, "daemon mem: peak heap %.1f MiB", float64(after.PeakHeapBytes)/(1<<20))
	if after.PeakRSSBytes > 0 {
		fmt.Fprintf(&b, ", peak RSS %.1f MiB", float64(after.PeakRSSBytes)/(1<<20))
	}
	fmt.Fprintf(&b, ", sys %.1f MiB\n", float64(after.SysBytes)/(1<<20))
	return b.String()
}

// recordTrace runs the named program once under the trace recorder
// and returns the trace bytes.
func recordTrace(name string, scale float64, chunked, seq bool, workers int) ([]byte, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	if b.NeedsParallel && seq {
		return nil, fmt.Errorf("%s needs the parallel executor; drop -seq", name)
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, seq)
	exec := task.Pool
	if seq {
		exec, workers = task.Sequential, 1
	}
	rt, err := task.New(task.Config{Executor: exec, Workers: workers, Detector: rec})
	if err != nil {
		return nil, err
	}
	if _, err := b.Run(rt, bench.Input{Scale: scale, Chunked: chunked}); err != nil {
		return nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// result aggregates one load run.
type result struct {
	ok, rejected, failed int
	racy                 bool
	races                map[string]struct{} // deduplicated across every successful report
	latencies            []time.Duration     // successful requests only
	elapsed              time.Duration
	firstErr             error
}

// recordReport folds one successful report into the run's aggregates.
func (r *result) recordReport(rep *client.Report) {
	for _, v := range rep.Verdicts {
		r.racy = r.racy || v.Racy
		for _, rc := range v.Races {
			if r.races == nil {
				r.races = make(map[string]struct{})
			}
			r.races[fmt.Sprintf("%s/%s/%s/%d", v.Detector, rc.Kind, rc.Region, rc.Index)] = struct{}{}
		}
	}
}

// raceDigest returns a SHA-256 over the sorted, deduplicated race set —
// stable across request ordering, so two runs on the same trace can be
// compared by their digests.
func (r *result) raceDigest() string {
	keys := make([]string, 0, len(r.races))
	for k := range r.races {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// run hammers the daemon with conc connections until total requests have
// been issued (or d has elapsed, when d > 0). When scale > 1 each
// request streams a fresh scale×-amplified trace straight onto the wire.
func run(ctx context.Context, cl *client.Client, detector string, data []byte, scale, conc, total int, d time.Duration) *result {
	var (
		issued   atomic.Int64
		deadline time.Time
	)
	if d > 0 {
		deadline = time.Now().Add(d)
		total = math.MaxInt // bounded by the deadline instead
	}
	more := func() bool {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		return issued.Add(1) <= int64(total)
	}

	results := make([]result, conc)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[w]
			for more() {
				var body io.Reader = bytes.NewReader(data)
				if scale > 1 {
					// Amplifiers are single-use streams, so each request
					// builds its own; the base scan is cheap next to the
					// replay it feeds.
					amp, err := trace.NewAmplifier(data, scale)
					if err != nil {
						r.failed++
						if r.firstErr == nil {
							r.firstErr = err
						}
						return
					}
					body = amp
				}
				t0 := time.Now()
				rep, err := cl.Analyze(ctx, detector, body)
				lat := time.Since(t0)
				switch {
				case err == nil:
					r.ok++
					r.latencies = append(r.latencies, lat)
					r.recordReport(rep)
				default:
					var apiErr *client.APIError
					if errors.As(err, &apiErr) && apiErr.Saturated() {
						r.rejected++
					} else {
						r.failed++
						if r.firstErr == nil {
							r.firstErr = err
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	out := &result{elapsed: time.Since(start)}
	for i := range results {
		r := &results[i]
		out.ok += r.ok
		out.rejected += r.rejected
		out.failed += r.failed
		out.racy = out.racy || r.racy
		out.latencies = append(out.latencies, r.latencies...)
		for k := range r.races {
			if out.races == nil {
				out.races = make(map[string]struct{})
			}
			out.races[k] = struct{}{}
		}
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

func (r *result) summary(detector string, traceBytes int64) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "detector  : %s\n", detector)
	fmt.Fprintf(&b, "requests  : %d ok, %d rejected (saturated), %d failed in %v\n",
		r.ok, r.rejected, r.failed, r.elapsed.Round(time.Millisecond))
	if r.firstErr != nil {
		fmt.Fprintf(&b, "first err : %v\n", r.firstErr)
	}
	if r.ok > 0 {
		secs := r.elapsed.Seconds()
		fmt.Fprintf(&b, "throughput: %.1f analyses/s, %.2f MB/s of trace\n",
			float64(r.ok)/secs, float64(r.ok)*float64(traceBytes)/(1<<20)/secs)
		fmt.Fprintf(&b, "latency   : p50 %v  p90 %v  p99 %v  max %v\n",
			percentile(r.latencies, 0.50).Round(time.Microsecond),
			percentile(r.latencies, 0.90).Round(time.Microsecond),
			percentile(r.latencies, 0.99).Round(time.Microsecond),
			percentile(r.latencies, 1.0).Round(time.Microsecond))
		fmt.Fprintf(&b, "verdict   : racy=%v\n", r.racy)
	}
	return b.String()
}
