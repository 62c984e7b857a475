// Command spd3d is the networked trace-analysis daemon: it accepts
// traces recorded by spd3 -record (or any trace.Recorder) over HTTP and
// replays them into any detector from the detect registry.
//
// Usage:
//
//	spd3d -addr :7331
//	curl -fsS --data-binary @sor.trc 'http://127.0.0.1:7331/v2/jobs?detector=all'
//	curl -fsS http://127.0.0.1:7331/v2/jobs/<job_id>
//	curl -fsS http://127.0.0.1:7331/v2/jobs/<job_id>/result
//	curl -fsS -X DELETE http://127.0.0.1:7331/v2/jobs/<job_id>
//	curl -fsS http://127.0.0.1:7331/v2/detectors
//	curl -fsS http://127.0.0.1:7331/statsz
//
// A submit answers 202 once the upload is stored in a content-addressed
// trace store; the job replays meanwhile, and /result answers 202 until
// it is terminal. spd3/client's Analyze is the one-call form.
//
// -store names the store directory (empty = a throwaway temp dir);
// pointing a restarted daemon at the same -store resumes interrupted
// jobs. -store-ttl and -gc-interval control how long finished jobs and
// their segments linger. The -tenant-* flags bound each tenant (keyed
// by the X-SPD3-Tenant header) independently: queued jobs, stored
// bytes, concurrent shard slots, and submitted byte rate.
//
// -sample sets a default check-sampling spec (mode:rate), -tenant-sample
// overrides it per tenant, and -overhead-budget hands each sampler a
// modeled overhead target to hold by adapting its rate online; a
// per-request sample= query parameter overrides both. The
// live per-tenant rates and sample.* counters surface in /statsz.
//
// Every submit is admitted before its body is read: 503 while draining,
// 429 + Retry-After when the tenant's queue (-tenant-queue) or another
// quota is exhausted. The daemon caps upload size (-max-body-mb, 413),
// cancels a live job's replay on DELETE, and drains admitted work before
// exiting on SIGINT/SIGTERM (-drain). Use cmd/spd3load to measure its
// service-level throughput and latency.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spd3/internal/detect"
	_ "spd3/internal/detectors" // populate the detector registry
	"spd3/internal/sample"
	"spd3/internal/server"
	"spd3/internal/server/quota"
)

func main() {
	var (
		addr         = flag.String("addr", ":7331", "listen address")
		maxBodyMB    = flag.Int64("max-body-mb", 64, "trace upload cap in MiB; larger uploads get 413")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "HTTP read timeout")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute, "HTTP write timeout")
		drainWait    = flag.Duration("drain", 30*time.Second, "max wait for in-flight analyses on shutdown")
		races        = flag.Int("races", 256, "max races carried per JSON verdict")
		shardWorkers = flag.Int("shard-workers", 0, "max concurrent segment replays across the daemon (0 = GOMAXPROCS, 1 = serial)")
		segMinKB     = flag.Int("segment-min-kb", 256, "coalesce finish-scope segments smaller than this many KiB")
		segMaxMB     = flag.Int("segment-max-mb", 32, "fall back to single-stream analysis when one finish scope exceeds this many MiB")
		quiet        = flag.Bool("quiet", false, "suppress per-analysis log lines")

		storeDir      = flag.String("store", "", "trace store directory for /v2 jobs (empty = throwaway temp dir; reuse a path to resume jobs across restarts)")
		storeTTL      = flag.Duration("store-ttl", time.Hour, "keep finished jobs and their segments this long (negative = forever)")
		gcInterval    = flag.Duration("gc-interval", 5*time.Minute, "store garbage-collection period (0 disables background GC)")
		tenantQueue   = flag.Int("tenant-queue", 0, "max queued+running jobs per tenant (0 = default 64, negative disables)")
		tenantStoreMB = flag.Int64("tenant-store-mb", 0, "max stored trace bytes per tenant in MiB (0 = default 4096, negative disables)")
		tenantShards  = flag.Int("tenant-shards", 0, "max shard-pool slots one tenant may hold (0 = pool size, negative disables)")
		tenantRateMB  = flag.Int64("tenant-rate-mb", 0, "per-tenant submitted-bytes rate limit in MiB/s (0 disables)")

		sampleSpec   = flag.String("sample", "", "default check-sampling spec for every tenant (mode:rate, e.g. bernoulli:0.01, burst:0.02; empty or off = check everything)")
		budgetSpec   = flag.String("overhead-budget", "", "sampling overhead budget for the samplers (e.g. 5% or 0.05); empty freezes rates at their configured values")
		tenantSample = flag.String("tenant-sample", "", "per-tenant sampling overrides as tenant=spec[,tenant=spec...]")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "spd3d: ", log.LstdFlags)
	srvLog := logger
	if *quiet {
		srvLog = nil
	}
	tenantStore := *tenantStoreMB
	if tenantStore > 0 {
		tenantStore <<= 20
	}
	budget, err := sample.ParseBudget(*budgetSpec)
	if err != nil {
		logger.Fatalf("-overhead-budget: %v", err)
	}
	var tenantSpecs map[string]string
	if *tenantSample != "" {
		tenantSpecs = map[string]string{}
		for _, kv := range strings.Split(*tenantSample, ",") {
			tenant, spec, ok := strings.Cut(kv, "=")
			if !ok || tenant == "" {
				logger.Fatalf("-tenant-sample: %q is not tenant=spec", kv)
			}
			tenantSpecs[tenant] = spec
		}
	}
	srv, err := server.Open(server.Config{
		MaxBodyBytes:      *maxBodyMB << 20,
		MaxRacesPerReport: *races,
		ShardWorkers:      *shardWorkers,
		MinSegmentBytes:   *segMinKB << 10,
		MaxSegmentBytes:   *segMaxMB << 20,
		StoreDir:          *storeDir,
		StoreTTL:          *storeTTL,
		GCInterval:        *gcInterval,
		Quota: quota.Config{
			MaxQueuedJobs:   *tenantQueue,
			MaxStoredBytes:  tenantStore,
			TenantShards:    *tenantShards,
			RateBytesPerSec: *tenantRateMB << 20,
		},
		Sampling: server.SamplingConfig{
			Default: *sampleSpec,
			Budget:  budget,
			Tenants: tenantSpecs,
		},
		Log: srvLog,
	})
	if err != nil {
		logger.Fatal(err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	hs := &http.Server{
		Handler:      srv.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}

	var names []string
	for _, d := range detect.Describe() {
		names = append(names, d.Name)
	}
	logger.Printf("listening on %s (detectors: %s)", ln.Addr(), strings.Join(names, ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		logger.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: refuse new submits (503), let admitted ones
	// finish, then close the listener and idle connections.
	logger.Printf("shutting down: draining %d in-flight submits and jobs", srv.InFlight())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Printf("drain: %v (unfinished jobs resume at the next start with the same -store)", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "spd3d: bye")
}
