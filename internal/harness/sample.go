// The sampling ablation: how much detection probability each sampling
// mode buys per unit of overhead. For each (mode, rate) point the table
// reports the dense-kernel overhead relative to the uninstrumented
// baseline, the fraction of shadow accesses actually checked, and the
// detection probability over a corpus of randomly generated programs
// whose races full SPD3 finds — the measured form of the soundness
// argument in DESIGN: sampling never invents a race, it only trades
// detection probability for overhead. The final rows run a sampler's
// feedback loop at a 5% budget and report the rate it settled on.
package harness

import (
	"fmt"
	"math"
	"time"

	"spd3/internal/bench"
	"spd3/internal/detect"
	"spd3/internal/progen"
	"spd3/internal/sample"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// samplePoints is the rate sweep per mode. 1.0 is the check-everything
// control: its overhead should match plain SPD3 and its detection
// probability must be exactly 1.
var samplePoints = []float64{0.01, 0.05, 0.25, 1.0}

// sampleSeeds bounds the progen corpus for the detection-probability
// column. Seeds whose full-SPD3 verdict is race-free are skipped, so
// the effective denominator is the racy subset.
const sampleSeeds = 60

// ablationSample produces the overhead-vs-detection table.
func ablationSample(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	n := cfg.maxThreads()
	b, err := bench.ByName("SOR")
	if err != nil {
		return nil, err
	}
	in := bench.Input{Scale: cfg.Scale}
	base, err := cfg.measure(b, Base, n, in)
	if err != nil {
		return nil, err
	}
	// The reference row is SPD3 without the stats recorder: the sampled
	// rows time a stats-off run too (see measureSampled), so every
	// Overhead entry isolates detector cost from counter-tally cost.
	full, err := cfg.measure(b, SPD3NoStats, n, in)
	if err != nil {
		return nil, err
	}
	racySeeds := racyProgenSeeds()

	t := &Table{
		Title: fmt.Sprintf("Sampling ablation: SPD3 on SOR at %d workers, detection over %d racy generated programs", n, len(racySeeds)),
		Notes: []string{
			"Overhead: sampled-SPD3 time / uninstrumented time (full SPD3 shown first; stats recorder off in all timed runs)",
			"CheckedFrac: sample.checked / (sample.checked + sample.skipped)",
			"DetectProb: fraction of racy generated programs still reported racy",
		},
		Header: []string{"Config", "Overhead", "CheckedFrac", "DetectProb"},
	}
	t.AddRow("spd3 (no sampling)", ratio(full.Time, base.Time), 1.0, detectProb(racySeeds, nil))

	for _, mode := range []sample.Mode{sample.Bernoulli, sample.Burst} {
		for _, rate := range samplePoints {
			scfg := sample.Config{Mode: mode, Rate: rate}
			m, err := cfg.measureSampled(b, sample.New(scfg), n, in)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%s:%g", mode, rate),
				ratio(m.Time, base.Time),
				checkedFrac(m.Stats),
				detectProb(racySeeds, func(seed int64) *sample.Sampler {
					return sample.NewSeeded(scfg, uint64(seed))
				}))
		}
	}

	// The floor row: Bernoulli at MinRate admits almost
	// nothing, so its overhead is the cost of the gate itself — the
	// bound no sampling rate can go below on this substrate (per-access
	// instrumentation calls survive even when every check is skipped).
	floor, err := cfg.measureSampled(b, sample.New(sample.Config{Mode: sample.Bernoulli, Rate: sample.MinRate}), n, in)
	if err != nil {
		return nil, err
	}
	t.AddRow("gate floor (bernoulli:min)", ratio(floor.Time, base.Time), checkedFrac(floor.Stats), 0.0)

	// The governor row: one budgeted sampler observes repeated runs
	// until its rate stops moving (a deployment's replay segments give it
	// the same stream), then the settled configuration is measured like
	// any fixed point. On a kernel this dense a 5% budget drives the rate
	// to the floor — the overhead left is the gate itself. (Govern cannot
	// fail on this constant spec and budget.)
	gov, _ := sample.Govern("bernoulli:1", 0.05)
	warm := cfg
	warm.Repeats = 1
	for i := 0; i < 16; i++ {
		before := gov.Rate()
		if _, err := warm.measureSampled(b, gov, n, in); err != nil {
			return nil, err
		}
		if after := gov.Rate(); after == before {
			break
		}
	}
	settled := sample.Config{Mode: sample.Bernoulli, Rate: gov.Rate()}
	m, err := cfg.measureSampled(b, sample.New(settled), n, in)
	if err != nil {
		return nil, err
	}
	t.AddRow(fmt.Sprintf("governor 5%% on SOR (settled rate %.4f)", gov.Rate()),
		ratio(m.Time, base.Time),
		checkedFrac(m.Stats),
		detectProb(racySeeds, func(seed int64) *sample.Sampler {
			return sample.NewSeeded(settled, uint64(seed))
		}))

	// The governor's other regime: settled on the light progen corpus
	// itself, where a 5% budget affords a high rate. This is the
	// deployment-matched detection number — the rate the governor holds
	// on the workload whose races it is asked to catch, not a rate
	// imported from a hotter kernel. Govern cannot fail here either.
	pgov, _ := sample.Govern("bernoulli:1", 0.05)
	for i := 0; i < 8; i++ {
		before := pgov.Rate()
		progenCorpus(racySeeds, "spd3", func(int64) *sample.Sampler { return pgov })
		if pgov.Rate() == before {
			break
		}
	}
	psettled := sample.Config{Mode: sample.Bernoulli, Rate: pgov.Rate()}
	seeded := func(seed int64) *sample.Sampler { return sample.NewSeeded(psettled, uint64(seed)) }
	pbase, _ := progenCorpus(racySeeds, "none", nil)
	ptime, psnap := progenCorpus(racySeeds, "spd3", seeded)
	t.AddRow(fmt.Sprintf("governor 5%% on progen (settled rate %.4f)", pgov.Rate()),
		ratio(ptime, pbase), checkedFrac(psnap), detectProb(racySeeds, seeded))
	return t, nil
}

// runProgen executes generated program seed on two pool workers under a
// fresh session of the named detector and returns the session with the
// run's wall clock.
func runProgen(seed int64, name string, o detect.SessionOpts) (*detect.Session, time.Duration) {
	ses, err := detect.Open(name, o)
	if err != nil {
		panic(err)
	}
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 2, Detector: ses.Det, Stats: ses.Rec})
	if err != nil {
		panic(err)
	}
	start := time.Now()
	if err := progen.Run(rt, progen.Generate(seed, progen.Config{}), nil); err != nil {
		panic(err)
	}
	return ses, time.Since(start)
}

// progenCorpus runs every racy seed under one detector, sampled when mk
// is non-nil, returning the summed wall clock and the corpus' merged
// stats (gate tallies included). mk gets the program seed (the corpus
// shares a handful of shadow locations, so a fixed coin seed would
// collapse the whole corpus onto one assignment — same reasoning as
// detectProb). A budgeted sampler is fed each program's snapshot and
// wall — the settle phase of the progen governor row.
func progenCorpus(racySeeds []int64, name string, mk func(seed int64) *sample.Sampler) (time.Duration, stats.Snapshot) {
	var total time.Duration
	var agg stats.Snapshot
	for _, seed := range racySeeds {
		var smp *sample.Sampler
		if mk != nil {
			smp = mk(seed)
		}
		ses, elapsed := runProgen(seed, name, detect.SessionOpts{Sampler: smp})
		total += elapsed
		agg.Merge(ses.Snapshot(elapsed))
	}
	return total, agg
}

// measureSampled is cfg.measure for SPD3 gated by smp, which every
// session shares. Each repeat is a pair of runs: a stats-off run whose
// wall time is the Overhead signal (a live recorder adds per-access
// tallies the uninstrumented baseline never pays, which would smear
// recorder cost into the sampling column), and a stats-on run whose
// snapshot supplies the gate counts. A budgeted sampler observes the
// counting run's tallies against the timed run's wall clock — the
// deployment-shaped input: real counts, real duration.
func (c Config) measureSampled(b *bench.Benchmark, smp *sample.Sampler, workers int, in bench.Input) (Measurement, error) {
	var best Measurement
	best.Time = math.MaxInt64
	o := detect.SessionOpts{Sampler: smp}
	for rep := 0; rep < c.Repeats; rep++ {
		_, elapsed, _, err := runOnce(b, SPD3NoStats, o, workers, in)
		if err != nil {
			return Measurement{}, err
		}
		counting, _, _, err := runOnce(b, SPD3, o, workers, in)
		if err != nil {
			return Measurement{}, err
		}
		snap := counting.Snapshot(elapsed)
		if elapsed < best.Time {
			best = Measurement{Time: elapsed, Footprint: snap.Footprint, Stats: snap}
		}
	}
	return best, nil
}

// checkedFrac is the fraction of gate decisions that admitted a check.
func checkedFrac(s stats.Snapshot) float64 {
	checked := s.Get(stats.SampleChecked)
	skipped := s.Get(stats.SampleSkipped)
	if checked+skipped == 0 {
		return 1
	}
	return float64(checked) / float64(checked+skipped)
}

// racyProgenSeeds runs the progen corpus under full SPD3 and returns
// the seeds whose programs are racy — the detection-probability
// denominator.
func racyProgenSeeds() []int64 {
	var racy []int64
	for seed := int64(0); seed < sampleSeeds; seed++ {
		if progenRacy(seed, nil) {
			racy = append(racy, seed)
		}
	}
	return racy
}

// detectProb runs each racy seed under a sampler built by mk (nil means
// no sampling) and returns the fraction still reported racy. mk gets
// the program seed so each program plays a different coin assignment —
// the generated programs all touch the same few shadow locations, and
// with one fixed coin seed the whole corpus would collapse onto the
// same handful of decisions, measuring one deployment's luck instead of
// the ensemble probability. Still reproducible: the coins are a
// deterministic function of the seed and SPD3 on a fixed program is
// schedule-independent.
func detectProb(racySeeds []int64, mk func(seed int64) *sample.Sampler) float64 {
	if len(racySeeds) == 0 {
		return 0
	}
	hits := 0
	for _, seed := range racySeeds {
		var smp *sample.Sampler
		if mk != nil {
			smp = mk(seed)
		}
		if progenRacy(seed, smp) {
			hits++
		}
	}
	return float64(hits) / float64(len(racySeeds))
}

// progenRacy executes generated program seed under SPD3 (sampled when
// smp is non-nil) and reports whether any race was detected.
func progenRacy(seed int64, smp *sample.Sampler) bool {
	ses, _ := runProgen(seed, "spd3", detect.SessionOpts{Sampler: smp})
	return !ses.Sink.Empty()
}
