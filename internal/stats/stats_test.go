package stats

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCountersMergeAcrossShards(t *testing.T) {
	r := New(4)
	if r.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", r.Shards())
	}
	for i := 0; i < 16; i++ {
		r.Shard(i).Inc(TaskSpawn) // keys wrap around the mask
	}
	r.Shard(1).Add(CASRetry, 5)
	r.Shard(2).Add(CASRetry, 7)
	s := r.Snapshot()
	if got := s.Get(TaskSpawn); got != 16 {
		t.Errorf("TaskSpawn = %d, want 16", got)
	}
	if got := s.Get(CASRetry); got != 12 {
		t.Errorf("CASRetry = %d, want 12", got)
	}
}

func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}} {
		if got := New(tc.in).Shards(); got != tc.want {
			t.Errorf("New(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if New(0).Shards() < 1 {
		t.Error("default shard count not positive")
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := New(8)
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sh := r.Shard(g)
			for i := 0; i < each; i++ {
				sh.Inc(DMHPWalk)
			}
		}(g)
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
	r := New(1)
	r.Shard(0).Observe(HistCASRetry, 1)
	r.Shard(0).Observe(HistCASRetry, 3)
	s := r.Snapshot()
	if s.CASRetryHist[0] != 1 || s.CASRetryHist[1] != 1 {
		t.Fatalf("hist = %v", s.CASRetryHist)
	}
}

func TestRegionsSortedByTraffic(t *testing.T) {
	r := New(2)
	cold := r.Region("cold", 10)
	hot := r.Region("hot", 10)
	for i := 0; i < 5; i++ {
		hot.Inc(i, i%2 == 0)
	}
	cold.Inc(0, false)
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
	r := New(2)
	g := r.Region("g", 4)
	g.Inc(0, true)
	r.Shard(0).Inc(TaskSteal)
	r.Shard(0).Observe(HistCASRetry, 2)
	r.Reset()
	s := r.Snapshot()
	if s.Get(TaskSteal) != 0 || s.Writes != 0 || s.CASRetryHist[1] != 0 {
		t.Fatalf("reset left residue: %s", s.String())
	}
	if len(s.Regions) != 1 || s.Regions[0].Name != "g" {
		t.Fatalf("reset dropped regions: %+v", s.Regions)
	}
	g.Inc(1, false) // region handle stays live after reset
	if got := r.Snapshot().Reads; got != 1 {
		t.Fatalf("post-reset reads = %d, want 1", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Reset()
	r.Shard(3).Inc(CASClean)
	r.Shard(3).Add(CASClean, 9)
	r.Shard(3).Observe(HistCASRetry, 2)
	r.Region("x", 1).Inc(0, true)
	if r.Shards() != 0 {
		t.Error("nil recorder has shards")
	}
	s := r.Snapshot()
	if s.Get(CASClean) != 0 || len(s.Regions) != 0 {
		t.Fatalf("nil snapshot not zero: %s", s.String())
	}
}

func TestSnapshotForms(t *testing.T) {
	r := New(1)
	g := r.Region("a", 8)
	g.Inc(0, false)
	g.Inc(0, true)
	sh := r.Shard(0)
	sh.Add(CASPublish, 3)
	sh.Add(DMHPWalk, 10)
	sh.Inc(RaceReported)
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
