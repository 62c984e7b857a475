package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	_ "spd3/internal/core" // registers "spd3"
	"spd3/internal/detect"
	"spd3/internal/progen"
	"spd3/internal/sample"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// diffSeeds sizes the progen corpus for the sampling differential: the
// ISSUE's acceptance bar is that sampling off is byte-identical to no
// sampling and that sampled verdicts are a subset, over 150 seeds.
const diffSeeds = 150

// raceKeys renders the sink's deduplicated races as a sorted, canonical
// list of (kind, region, element) strings.
func raceKeys(sink *detect.Sink) []string {
	var keys []string
	for _, r := range sink.Races() {
		keys = append(keys, fmt.Sprintf("%v %s[%d]", r.Kind, r.Region, r.Index))
	}
	sort.Strings(keys)
	return keys
}

// progenRaces runs generated program seed under registry SPD3 gated by
// smp (nil: no sampling) and returns the canonical race list. The
// sequential executor plus deterministic coins make the result a pure
// function of (seed, smp).
func progenRaces(t *testing.T, seed int64, smp *sample.Sampler) []string {
	t.Helper()
	sink := detect.NewSink(false, 0)
	det, err := detect.New("spd3", detect.FactoryOpts{Sink: sink, Sampler: smp})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := task.New(task.Config{Executor: task.Sequential, Workers: 1, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	if err := progen.Run(rt, progen.Generate(seed, progen.Config{}), nil); err != nil {
		t.Fatal(err)
	}
	return raceKeys(sink)
}

// subset reports whether every element of a appears in b (both sorted).
func subset(a, b []string) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
	}
	return true
}

// TestSamplingOffIdenticalVerdicts: an Off sampler must leave the
// detector untouched — race-for-race identical to no sampler at all.
func TestSamplingOffIdenticalVerdicts(t *testing.T) {
	off := sample.New(sample.Config{Mode: sample.Off})
	for seed := int64(0); seed < diffSeeds; seed++ {
		full := progenRaces(t, seed, nil)
		got := progenRaces(t, seed, off)
		if !reflect.DeepEqual(full, got) {
			t.Fatalf("seed %d: off-sampler races %v != unsampled races %v", seed, got, full)
		}
	}
}

// TestSampledRacesAreSubset is the measured form of the soundness
// argument: a skipped check only omits a recording, so every race a
// sampled run reports must also be reported by the full run — sampling
// produces false negatives, never false positives.
func TestSampledRacesAreSubset(t *testing.T) {
	for _, mode := range []sample.Mode{sample.Bernoulli, sample.Burst} {
		for seed := int64(0); seed < diffSeeds; seed++ {
			full := progenRaces(t, seed, nil)
			smp := sample.NewSeeded(sample.Config{Mode: mode, Rate: 0.3}, uint64(seed))
			got := progenRaces(t, seed, smp)
			if !subset(got, full) {
				t.Fatalf("%v seed %d: sampled races %v not a subset of full races %v",
					mode, seed, got, full)
			}
		}
	}
}

// TestSampledDigestsGolden pins which accesses the registry's gate
// admits for SPD3: one SHA-256 per mode over the sorted race sets of the
// progen corpus at rate 0.3, recorded at 8f828a1 when core still gated
// its own check path. A drift in the wrapper's semantics — region ids
// numbered differently, a burst epoch that stops advancing at spawn or
// finish — changes a digest.
func TestSampledDigestsGolden(t *testing.T) {
	golden := map[sample.Mode]string{
		sample.Bernoulli: "f131a7c9955c1122560635229ac456c8b4af33cdb5afd6e5627b92978944368f",
		sample.Burst:     "d7744d6dd7ce68b7a9f41708c00d83f3f5d1bbb564e4e5d90479332fc7705cba",
	}
	for _, mode := range []sample.Mode{sample.Bernoulli, sample.Burst} {
		h := sha256.New()
		for seed := int64(0); seed < diffSeeds; seed++ {
			smp := sample.NewSeeded(sample.Config{Mode: mode, Rate: 0.3}, uint64(seed))
			fmt.Fprintf(h, "seed %d\n", seed)
			for _, k := range progenRaces(t, seed, smp) {
				fmt.Fprintln(h, k)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != golden[mode] {
			t.Errorf("%v: race-set digest %s, want %s", mode, got, golden[mode])
		}
	}
}

// TestBurstCatchesPrologueRace: every task's first step is always
// inside the burst window, so a race between the first steps of two
// sibling tasks is caught at any rate — the determinism CI's sampled
// memory smoke relies on.
func TestBurstCatchesPrologueRace(t *testing.T) {
	smp := sample.New(sample.Config{Mode: sample.Burst, Rate: 0.01})
	sink := detect.NewSink(false, 0)
	det, err := detect.New("spd3", detect.FactoryOpts{Sink: sink, Sampler: smp})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := task.New(task.Config{Executor: task.Sequential, Workers: 1, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	sh := rt.Detector().NewShadow(detect.Spec("v", 4, 8))
	err = rt.Run(func(c *task.Ctx) {
		c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
		c.Async(func(c *task.Ctx) { sh.Write(c.Task(), 0) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Empty() {
		t.Fatal("burst:0.01 missed the sibling first-step race; epoch-0 determinism broken")
	}
}

// TestSampleCountersFlow: the gate batches per task and flushes
// into the engine's stats shards — sample.checked/sample.skipped must
// be visible in a snapshot exactly when sampling is on.
func TestSampleCountersFlow(t *testing.T) {
	run := func(smp *sample.Sampler) stats.Snapshot {
		rec := stats.New()
		sink := detect.NewSink(false, 0)
		sink.SetStats(rec)
		det, err := detect.New("spd3", detect.FactoryOpts{Sink: sink, Stats: rec, Sampler: smp})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := task.New(task.Config{Executor: task.Sequential, Workers: 1, Detector: det, Stats: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := progen.Run(rt, progen.Generate(1, progen.Config{}), nil); err != nil {
			t.Fatal(err)
		}
		return rec.Snapshot()
	}

	snap := run(sample.New(sample.Config{Mode: sample.Bernoulli, Rate: 0.5}))
	if snap.Get(stats.SampleChecked)+snap.Get(stats.SampleSkipped) == 0 {
		t.Error("sampling on: no sample.checked/sample.skipped tallies flushed")
	}

	snap = run(nil)
	if n := snap.Get(stats.SampleChecked) + snap.Get(stats.SampleSkipped); n != 0 {
		t.Errorf("sampling off: %d sample.* tallies recorded, want 0", n)
	}
}
