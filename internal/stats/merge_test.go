package stats

import "testing"

func TestSnapshotMerge(t *testing.T) {
	var a, b Snapshot
	a.Counters[CASClean] = 3
	a.Counters[SrvRequests] = 1
	a.CASRetryHist[0] = 2
	a.Reads, a.Writes = 10, 5
	a.Footprint = Footprint{ShadowBytes: 100, TreeBytes: 1}
	a.Regions = []RegionSnapshot{
		{Name: "hot", Elems: 8, Reads: 9, Writes: 1},
		{Name: "cold", Elems: 4, Reads: 1},
	}
	b.Counters[CASClean] = 4
	b.Counters[SrvCanceled] = 2
	b.CASRetryHist[0] = 1
	b.Reads, b.Writes = 1, 2
	b.Footprint = Footprint{ShadowBytes: 50, ClockBytes: 7}
	b.Regions = []RegionSnapshot{
		{Name: "cold", Elems: 16, Reads: 100, Writes: 100},
		{Name: "new", Elems: 2, Writes: 2},
	}

	a.Merge(b)

	if got := a.Get(CASClean); got != 7 {
		t.Errorf("CASClean = %d, want 7", got)
	}
	if a.Get(SrvRequests) != 1 || a.Get(SrvCanceled) != 2 {
		t.Errorf("srv counters = %d/%d, want 1/2", a.Get(SrvRequests), a.Get(SrvCanceled))
	}
	if a.CASRetryHist[0] != 3 {
		t.Errorf("hist bucket 0 = %d, want 3", a.CASRetryHist[0])
	}
	if a.Reads != 11 || a.Writes != 7 {
		t.Errorf("totals = %d/%d, want 11/7", a.Reads, a.Writes)
	}
	if ft := a.Footprint; ft.ShadowBytes != 150 || ft.TreeBytes != 1 || ft.ClockBytes != 7 {
		t.Errorf("footprint = %+v", ft)
	}
	if len(a.Regions) != 3 {
		t.Fatalf("regions = %d, want 3 (merged by name)", len(a.Regions))
	}
	// cold absorbed b's traffic (201 total) and is now the hottest.
	if a.Regions[0].Name != "cold" || a.Regions[0].Reads != 101 || a.Regions[0].Writes != 100 || a.Regions[0].Elems != 16 {
		t.Errorf("merged hottest region = %+v", a.Regions[0])
	}
	if a.Regions[1].Name != "hot" || a.Regions[2].Name != "new" {
		t.Errorf("region order = %q, %q; want hot, new", a.Regions[1].Name, a.Regions[2].Name)
	}
}

// TestSnapshotMergeSampleCounters: the per-segment snapshots a sharded
// replay merges must accumulate the sampling gate's tallies, or the
// governor (which observes the merged snapshot) and the /statsz gauges
// would under-report the effective rate.
func TestSnapshotMergeSampleCounters(t *testing.T) {
	var agg Snapshot
	segments := []struct{ checked, skipped int64 }{
		{100, 900}, {0, 0}, {50, 50}, {7, 0},
	}
	for _, seg := range segments {
		var s Snapshot
		s.Counters[SampleChecked] = seg.checked
		s.Counters[SampleSkipped] = seg.skipped
		agg.Merge(s)
	}
	if got := agg.Get(SampleChecked); got != 157 {
		t.Errorf("sample.checked = %d, want 157", got)
	}
	if got := agg.Get(SampleSkipped); got != 950 {
		t.Errorf("sample.skipped = %d, want 950", got)
	}
}

// TestSampleCounterNames pins the sampling gate's wire names; the
// spd3load summary and the governor gauges parse them out of /statsz.
func TestSampleCounterNames(t *testing.T) {
	if got := SampleChecked.String(); got != "sample.checked" {
		t.Errorf("SampleChecked = %q, want sample.checked", got)
	}
	if got := SampleSkipped.String(); got != "sample.skipped" {
		t.Errorf("SampleSkipped = %q, want sample.skipped", got)
	}
}

// TestSrvCounterNames pins the wire names of the daemon counter group so
// /statsz consumers can rely on them.
func TestSrvCounterNames(t *testing.T) {
	want := map[Counter]string{
		SrvRequests: "srv.requests",
		SrvAnalyses: "srv.analyses",
		SrvRejected: "srv.rejected",
		SrvCanceled: "srv.canceled",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
}
