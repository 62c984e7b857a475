package main

// The daemon workloads: recorded traces of the benchmark's own kernels
// sent through the real cmd/spd3d binary with spd3/client. The child
// runs on loopback with GOMAXPROCS and -shard-workers pinned to nproc
// and a fresh store inside the checkout, and is stopped with its
// directories removed on every exit path.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spd3/client"
	"spd3/internal/detect"
	"spd3/internal/task"
	"spd3/internal/trace"
)

// buildDaemon compiles cmd/spd3d into the checkout's .bench_build
// directory and reports how long that took (printed as build_s, never
// part of setup_s).
func buildDaemon(root string) (bin string, seconds float64, err error) {
	bin = filepath.Join(root, ".bench_build", "spd3d")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spd3d")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building cmd/spd3d: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// daemon is one running spd3d child.
type daemon struct {
	cmd    *exec.Cmd
	dir    string // holds the store; removed by stop
	cl     *client.Client
	logs   sync.WaitGroup // the stderr drain
	tail   []string       // last stderr lines, for diagnostics
	tailMu sync.Mutex
}

func startDaemon(cfg *config) (*daemon, error) {
	dir, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "daemon-*")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	d.cmd = exec.Command(cfg.daemonBin,
		"-addr", "127.0.0.1:0", "-quiet",
		"-store", filepath.Join(dir, "store"),
		"-shard-workers", fmt.Sprint(cfg.nproc),
		"-max-body-mb", "1024")
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", cfg.nproc), "TMPDIR="+dir)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cfg.track(d)

	// The child listens on an ephemeral port and logs the address.
	addrc := make(chan string, 1)
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- strings.Fields(rest)[0]:
				default:
				}
			}
			d.tailMu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.tailMu.Unlock()
		}
	}()
	select {
	case addr := <-addrc:
		d.cl = client.New("http://" + addr)
	case <-time.After(20 * time.Second):
		d.stop(cfg)
		return nil, fmt.Errorf("spd3d did not report its listen address: %s", d.stderrTail())
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.cl.Health(context.Background()) != nil {
		if time.Now().After(deadline) {
			d.stop(cfg)
			return nil, fmt.Errorf("spd3d never became healthy: %s", d.stderrTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return d, nil
}

func (d *daemon) stderrTail() string {
	d.tailMu.Lock()
	defer d.tailMu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop terminates the child, waits for it, and removes its directory.
func (d *daemon) stop(cfg *config) {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	done := make(chan struct{})
	go func() {
		d.logs.Wait()
		d.cmd.Wait() //nolint:errcheck // exit status of a terminated child is not interesting
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // as above
		<-done
	}
	os.RemoveAll(d.dir)
	cfg.untrack(d)
}

// ---- recorded inputs ------------------------------------------------

// jobTrace is one recorded trace with its by-construction verdict.
type jobTrace struct {
	name     string
	data     []byte
	races    []raceKey // empty for a clean trace
	accesses int64     // the kernel's own count of the reads and writes recorded
}

// record runs body depth-first under a trace.Recorder, so the same seed
// always yields the same bytes and every race has a fixed kind.
func record(body func(h host) error) ([]byte, error) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf, true)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: rec})
	if err != nil {
		return nil, err
	}
	if err := body(host{rt: rt}); err != nil {
		return nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// traceVariant records variant v of the trace family: even v is a
// stencil, odd v a gather, v/2 picks one of two sizes, and racy adds the
// kernel's seeded fault. Sizes are fixed (about 1 MiB of trace) so the
// work per job does not depend on the seed; the seed moves the gather's
// columns and the position of each fault.
func traceVariant(v int, racy bool, seed uint64, quick bool) (jobTrace, error) {
	var (
		k     kernel
		flt   fault
		races []raceKey
		extra int64
		name  string
	)
	vs := seed + uint64(v)*1000003
	if v%2 == 0 {
		n, sweeps := 66+4*(v/2%2), 7
		if quick {
			n, sweeps = 18+2*(v/2%2), 2
		}
		s := newStencil(n, sweeps, vs)
		name = fmt.Sprintf("stencil%d", n)
		if racy {
			flt, races = s.rogueFault(vs)
			extra = int64(sweeps) // one rogue write per red phase
		}
		k = s
	} else {
		rows, iters := 512+64*(v/2%2), 7
		if quick {
			rows, iters = 32+8*(v/2%2), 2
		}
		g := newGather(rows, 16, iters, vs)
		name = fmt.Sprintf("gather%d", rows)
		if racy {
			flt, races = g.sharedRowFault(vs)
		}
		k = g
	}
	if racy {
		name += "-racy"
	}
	data, err := record(func(h host) error { _, _, err := k.inst(h, flt); return err })
	c := k.counts()
	return jobTrace{name: name, data: data, races: races, accesses: c.reads + c.writes + extra}, err
}

// accessCounter counts the reads and writes a trace replays.
type accessCounter struct {
	detect.Nop
	n int64
}

type countShadow struct{ c *accessCounter }

func (s countShadow) Read(*detect.Task, int)  { s.c.n++ }
func (s countShadow) Write(*detect.Task, int) { s.c.n++ }

func (c *accessCounter) NewShadow(detect.ShadowSpec) detect.Shadow { return countShadow{c} }

// verifyTrace checks that the recorded bytes replay exactly the
// accesses the kernel says it performs.
func verifyTrace(jt jobTrace, res *result) {
	var c accessCounter
	err := trace.Replay(bytes.NewReader(jt.data), &c)
	res.check(err == nil && c.n == jt.accesses, "trace %s replays %d accesses (err %v), the kernel performs %d", jt.name, c.n, err, jt.accesses)
}

// ---- one operation --------------------------------------------------

func wireRaces(rep *client.Report) []raceKey {
	var out []raceKey
	for _, v := range rep.Verdicts {
		for _, r := range v.Races {
			out = append(out, raceKey{r.Kind, r.Region, r.Index})
		}
	}
	return out
}

// verifyReport holds a daemon response to the trace's by-construction
// verdict: one spd3 verdict, racy exactly when the trace is, carrying
// exactly the expected race set.
func verifyReport(rep *client.Report, jt jobTrace) error {
	if len(rep.Verdicts) != 1 || rep.Verdicts[0].Detector != "spd3" {
		return fmt.Errorf("want one spd3 verdict, got %d", len(rep.Verdicts))
	}
	v := rep.Verdicts[0]
	if v.Racy != (len(jt.races) > 0) || v.Capped {
		return fmt.Errorf("trace %s: racy=%v capped=%v, want racy=%v", jt.name, v.Racy, v.Capped, len(jt.races) > 0)
	}
	if got := wireRaces(rep); !sameRaces(got, jt.races) {
		return fmt.Errorf("trace %s: race set %v, want %v", jt.name, got, jt.races)
	}
	return nil
}

// runJob takes one trace through the /v2 job API — submit, the SSE
// stream up to its done event, result — verifies the verdict, and then
// deletes the job. The returned latency ends when the verified verdict
// is in hand; the delete is outside it.
func runJob(ctx context.Context, cl *client.Client, jt jobTrace, tr *tracer, parent int) (time.Duration, error) {
	job := tr.begin("job", parent, "")
	defer tr.end(job)
	t0 := time.Now()

	sp := tr.begin("client.submit", job, "")
	st, err := cl.SubmitJob(ctx, "spd3", bytes.NewReader(jt.data))
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	tr.setJob(job, st.ID)
	tr.setJob(sp, st.ID)

	sp = tr.begin("client.wait", job, st.ID)
	var done client.Event
	err = cl.StreamEvents(ctx, st.ID, func(ev client.Event) bool {
		if ev.Name == "done" {
			done = ev
		}
		return true
	})
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if done.State != client.StateDone {
		return 0, fmt.Errorf("job %s ended %q: %s", st.ID, done.State, done.Error)
	}

	sp = tr.begin("client.result", job, st.ID)
	rep, err := cl.Result(ctx, st.ID)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if err := verifyReport(rep, jt); err != nil {
		return 0, err
	}
	lat := time.Since(t0)

	sp = tr.begin("client.delete", job, st.ID)
	err = cl.DeleteJob(ctx, st.ID)
	tr.end(sp)
	return lat, err
}

// closedLoop keeps clients requests in flight, each client sending its
// next job only when the previous one has a verified verdict, drawing
// traces round-robin from pool, until both the duration and the minimum
// count are reached. It returns the verdict latencies in ms and the
// elapsed wall time; failures are counted into res.
func closedLoop(ctx context.Context, cl *client.Client, pool []jobTrace, clients, minJobs int, d time.Duration, tr *tracer, parent int, res *result) (samples, time.Duration) {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		lats  samples
		wg    sync.WaitGroup
		start = time.Now()
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(minJobs) && time.Since(start) >= d {
					return
				}
				lat, err := runJob(ctx, cl, pool[i%int64(len(pool))], tr, parent)
				mu.Lock()
				if res.check(err == nil, "job: %v", err) {
					lats = append(lats, lat.Seconds()*1e3)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lats, time.Since(start)
}

// countingReader counts the bytes actually handed to the HTTP transport.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// upload sends base amplified copies times through /v1/analyze and
// verifies the verdict; it returns the latency and the bytes sent. The
// amplified bytes are made before the clock starts: on two cores an
// amplifier running inside the timed window would compete with the
// daemon it is feeding, and the benchmark would measure its generator.
func upload(ctx context.Context, cl *client.Client, base jobTrace, copies int, tr *tracer, parent int) (time.Duration, int64, error) {
	data, err := trace.AmplifyBytes(base.data, copies)
	if err != nil {
		return 0, 0, err
	}
	body := &countingReader{r: bytes.NewReader(data)}
	sp := tr.begin("client.submit", parent, "")
	t0 := time.Now()
	rep, err := cl.Analyze(ctx, "spd3", body)
	lat := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return lat, body.n, err
	}
	return lat, body.n, verifyReport(rep, base)
}

// ---- /statsz deltas and generator cost ------------------------------

type statsDelta struct {
	before, after *client.Statsz
}

func (s statsDelta) counter(name string) float64 {
	return float64(s.after.Stats.Get(name) - s.before.Stats.Get(name))
}

func footprintTotal(f client.Footprint) int64 {
	return f.ShadowBytes + f.TreeBytes + f.ClockBytes + f.SetBytes
}

func (s statsDelta) footprint() float64 {
	return float64(footprintTotal(s.after.Stats.Footprint) - footprintTotal(s.before.Stats.Footprint))
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// repeatSetup runs a daemon workload's whole set-up cfg.setupReps times,
// so setup_s is a median, with a calibration pass before each and the
// previous repetition's daemon stopped first. It returns the last
// repetition's daemon, the one that is measured, and the set-up times in s.
func repeatSetup(cfg *config, cal *calibrator, setup func() (*daemon, error)) (*daemon, samples, error) {
	var (
		d      *daemon
		setups samples
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		if d != nil {
			d.stop(cfg)
		}
		cal.sample()
		t0 := time.Now()
		var err error
		if d, err = setup(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return d, setups, nil
}

// ---- daemon_jobs ----------------------------------------------------

// jobsSetup is everything that precedes the measured loop of
// daemon_jobs: record the pool, start the daemon, submit every trace
// once so the store holds all their segments (those jobs are kept, so
// the blobs stay referenced), and run a few warm-up jobs.
func jobsSetup(cfg *config, res *result) (*daemon, []jobTrace, error) {
	pool := make([]jobTrace, 0, 8)
	for v := 0; v < 4; v++ {
		for _, racy := range []bool{false, true} {
			jt, err := traceVariant(v, racy, cfg.seed, cfg.quick)
			if err != nil {
				return nil, nil, err
			}
			verifyTrace(jt, res)
			pool = append(pool, jt)
		}
	}
	d, err := startDaemon(cfg)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	for _, jt := range pool {
		st, err := d.cl.SubmitJob(ctx, "spd3", bytes.NewReader(jt.data))
		if err == nil {
			_, err = d.cl.WaitJob(ctx, st.ID)
		}
		if err != nil {
			d.stop(cfg)
			return nil, nil, fmt.Errorf("priming the store: %w", err)
		}
	}
	closedLoop(ctx, d.cl, pool, cfg.nproc, 2*len(pool), 0, nil, -1, res)
	return d, pool, nil
}

func poolAccesses(pool []jobTrace) (mean float64, bytes float64) {
	for _, jt := range pool {
		mean += float64(jt.accesses) / float64(len(pool))
		bytes += float64(len(jt.data)) / float64(len(pool))
	}
	return mean, bytes
}

// jobRounds splits the measured loop of daemon_jobs so that a calibration
// pass can run between rounds, while the daemon is idle.
const jobRounds = 6

func runJobsUntraced(cfg *config) *result {
	res := newResult("daemon_jobs", false)
	var pool []jobTrace
	cal := cfg.cal.reset()
	d, setups, err := repeatSetup(cfg, cal, func() (d *daemon, err error) {
		d, pool, err = jobsSetup(cfg, res)
		return d, err
	})
	if err != nil {
		res.check(false, "daemon set-up: %v", err)
		return res
	}
	defer d.stop(cfg)

	ctx := context.Background()
	before, err := d.cl.Stats(ctx)
	if err != nil {
		res.check(false, "/statsz: %v", err)
		return res
	}
	var (
		lats    samples
		elapsed time.Duration
		sampler = sampleRSS(d.cmd.Process.Pid)
	)
	for round := 0; round < jobRounds; round++ {
		cal.sample()
		l, e := closedLoop(ctx, d.cl, pool, cfg.nproc, cfg.minJobs/jobRounds, cfg.duration/jobRounds, nil, -1, res)
		lats, elapsed = append(lats, l...), elapsed+e
	}
	rss := sampler.finish()
	after, err := d.cl.Stats(ctx)
	if err != nil || len(lats) == 0 {
		res.check(false, "no job completed (/statsz err %v)", err)
		return res
	}
	delta := statsDelta{before, after}
	meanAcc, _ := poolAccesses(pool)
	jobsPerS := float64(len(lats)) / elapsed.Seconds()
	res.setTimes(cal, setups, lats, jobsPerS*meanAcc/1e6)
	res.set("detector_mib", delta.footprint()/delta.counter("job.done")/mib)
	res.set("rss_mib", rss)
	res.note("jobs_per_s %.4g (raw) over %.3f s with %d closed-loop clients", jobsPerS, elapsed.Seconds(), cfg.nproc)
	return res
}

// ---- daemon_stream --------------------------------------------------

// streamBase is upload i's base trace: a racy gather nobody has sent
// before (its columns and fault come from a seed of its own), so none of
// its segments is in the store. Every upload is the same kind and size
// of program, so the upload latencies are samples of one distribution.
func streamBase(cfg *config, i int, res *result) (jobTrace, int, error) {
	jt, err := traceVariant(1, true, cfg.seed+uint64(i+1)*7919, cfg.quick)
	if err != nil {
		return jt, 0, err
	}
	verifyTrace(jt, res)
	// streamBytes is nominal: ids widen as copies accumulate, so the
	// amplifier streams about a fifth more than copies × the base length.
	// The bytes actually sent are counted and printed.
	return jt, (cfg.streamBytes + len(jt.data) - 1) / len(jt.data), nil
}

// streamSetup starts a daemon with an empty store and sends one small
// amplified upload through it so connection set-up and first-use costs
// fall outside the measurement.
func streamSetup(cfg *config, res *result) (*daemon, error) {
	d, err := startDaemon(cfg)
	if err != nil {
		return nil, err
	}
	warm, err := traceVariant(0, true, cfg.seed^0x5eed, cfg.quick)
	if err == nil {
		_, _, err = upload(context.Background(), d.cl, warm, 4, nil, -1)
	}
	if err != nil {
		d.stop(cfg)
		return nil, fmt.Errorf("warm-up upload: %w", err)
	}
	res.check(true, "")
	return d, nil
}

// streamLoop sends uploads one after another from a single client until
// both the minimum count and the duration are reached.
func streamLoop(cfg *config, d *daemon, cal *calibrator, first, minUploads int, dur time.Duration, tr *tracer, parent int, res *result) (lats, rates samples, accPerS samples, sent int64, elapsed time.Duration) {
	start := time.Now()
	for i := first; i-first < minUploads || time.Since(start) < dur; i++ {
		base, copies, err := streamBase(cfg, i, res)
		if err != nil {
			res.check(false, "recording base %d: %v", i, err)
			return
		}
		cal.sample()
		lat, n, err := upload(context.Background(), d.cl, base, copies, tr, parent)
		sent += n
		if res.check(err == nil, "upload %d: %v", i, err) {
			lats = append(lats, lat.Seconds()*1e3)
			rates = append(rates, float64(n)/mib/lat.Seconds())
			accPerS = append(accPerS, float64(base.accesses)*float64(copies)/lat.Seconds()/1e6)
		}
	}
	return lats, rates, accPerS, sent, time.Since(start)
}

func runStreamUntraced(cfg *config) *result {
	res := newResult("daemon_stream", false)
	cal := cfg.cal.reset()
	d, setups, err := repeatSetup(cfg, cal, func() (*daemon, error) { return streamSetup(cfg, res) })
	if err != nil {
		res.check(false, "daemon set-up: %v", err)
		return res
	}
	defer d.stop(cfg)

	before, err := d.cl.Stats(context.Background())
	if err != nil {
		res.check(false, "/statsz: %v", err)
		return res
	}
	sampler := sampleRSS(d.cmd.Process.Pid)
	lats, rates, accPerS, sent, _ := streamLoop(cfg, d, cal, 0, cfg.minUploads, cfg.duration, nil, -1, res)
	rss := sampler.finish()
	after, err := d.cl.Stats(context.Background())
	if err != nil || len(lats) == 0 {
		res.check(false, "no upload completed (/statsz err %v)", err)
		return res
	}
	delta := statsDelta{before, after}
	res.setTimes(cal, setups, lats, accPerS.median())
	res.set("detector_mib", delta.footprint()/float64(len(lats))/mib)
	res.set("rss_mib", rss)
	res.note("trace_mib_per_s (raw): %s; %d bytes sent, one upload is %.1f MiB", rates.describe("MiB/s"), sent, float64(sent)/float64(len(lats))/mib)
	return res
}
