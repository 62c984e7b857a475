package stats

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestConcurrentIncrements: the recorder is one block of atomics, so
// writers that share a cell stay exact.
func TestConcurrentIncrements(t *testing.T) {
	r := New()
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Inc(DMHPWalk)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Get(DMHPWalk); got != goroutines*each {
		t.Fatalf("DMHPWalk = %d, want %d", got, goroutines*each)
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, tc := range []struct {
		v      int64
		bucket int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1 << 20, HistBuckets - 1}} {
		if got := HistBucket(tc.v); got != tc.bucket {
			t.Errorf("HistBucket(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
	}
	r := New()
	r.ObserveCASRetry(1)
	r.ObserveCASRetry(3)
	s := r.Snapshot()
	if s.CASRetryHist[0] != 1 || s.CASRetryHist[1] != 1 {
		t.Fatalf("hist = %v", s.CASRetryHist)
	}
}

func TestRegionsSortedByTraffic(t *testing.T) {
	r := New()
	cold := r.Region("cold", 10)
	hot := r.Region("hot", 10)
	hot.Add(2, 3)
	cold.Add(1, 0)
	s := r.Snapshot()
	if len(s.Regions) != 2 || s.Regions[0].Name != "hot" {
		t.Fatalf("regions = %+v", s.Regions)
	}
	if s.Regions[0].Reads+s.Regions[0].Writes != 5 {
		t.Fatalf("hot traffic = %+v", s.Regions[0])
	}
	if s.Reads+s.Writes != 6 {
		t.Fatalf("totals = %d reads %d writes", s.Reads, s.Writes)
	}
}

func TestResetKeepsRegions(t *testing.T) {
	r := New()
	g := r.Region("g", 4)
	g.Add(0, 1)
	r.Inc(TaskSteal)
	r.ObserveCASRetry(2)
	r.Reset()
	s := r.Snapshot()
	if s.Get(TaskSteal) != 0 || s.Writes != 0 || s.CASRetryHist[1] != 0 {
		t.Fatalf("reset left residue: %s", s.String())
	}
	if len(s.Regions) != 1 || s.Regions[0].Name != "g" {
		t.Fatalf("reset dropped regions: %+v", s.Regions)
	}
	g.Add(1, 0) // region handle stays live after reset
	if got := r.Snapshot().Reads; got != 1 {
		t.Fatalf("post-reset reads = %d, want 1", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Reset()
	r.Inc(CASClean)
	r.Add(CASClean, 9)
	r.ObserveCASRetry(2)
	r.Region("x", 1).Add(0, 1)
	if r.Regions() != nil {
		t.Error("nil recorder has regions")
	}
	s := r.Snapshot()
	if s.Get(CASClean) != 0 || len(s.Regions) != 0 {
		t.Fatalf("nil snapshot not zero: %s", s.String())
	}
}

func TestSnapshotForms(t *testing.T) {
	r := New()
	g := r.Region("a", 8)
	g.Add(1, 1)
	r.Add(CASPublish, 3)
	r.Add(DMHPWalk, 10)
	r.Inc(RaceReported)
	s := r.Snapshot()
	s.Footprint = Footprint{ShadowBytes: 100, TreeBytes: 28}

	m := s.Map()
	if m["cas.publish"] != 3 || m["dmhp.walk"] != 10 || m["mem.reads"] != 1 || m["footprint.total"] != 128 {
		t.Fatalf("map = %v", m)
	}
	str := s.String()
	for _, want := range []string{"1 reads", "3 publish", "10 walk", "1 reported", "128 B"} {
		if !containsStr(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Get(CASPublish) != 3 || back.Reads != 1 || back.Footprint.Total() != 128 ||
		len(back.Regions) != 1 || back.Regions[0].Name != "a" {
		t.Fatalf("round trip lost data: %s", back.String())
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
