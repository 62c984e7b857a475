package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Footprint is a detector's analytic accounting of the bytes it
// allocated, mirroring the paper's Table 3 / Figure 6 memory comparison
// in a deterministic, GC-independent way. It lives here (and is aliased
// by package detect) so a Snapshot can carry the detector's memory next
// to its counters.
type Footprint struct {
	ShadowBytes int64 `json:"shadow_bytes"` // per-location shadow words (O(1) vs O(n) is visible here)
	TreeBytes   int64 `json:"tree_bytes"`   // DPST nodes (SPD3) or bag nodes (ESP-bags)
	ClockBytes  int64 `json:"clock_bytes"`  // vector clocks (FastTrack)
	SetBytes    int64 `json:"set_bytes"`    // locksets (Eraser)
}

// Total returns the sum of all accounted bytes.
func (f Footprint) Total() int64 {
	return f.ShadowBytes + f.TreeBytes + f.ClockBytes + f.SetBytes
}

// RegionSnapshot is one region's merged traffic.
type RegionSnapshot struct {
	Name   string `json:"name"`
	Elems  int    `json:"elems"`
	Reads  int64  `json:"reads"`
	Writes int64  `json:"writes"`
}

// Snapshot is the merged, immutable result of one Run: every counter,
// the cas.retry histogram, per-region traffic sorted by total accesses
// descending, the access totals, and the detector's analytic footprint.
type Snapshot struct {
	// Counters holds the merged global counters, indexed by Counter.
	Counters [NumCounters]int64
	// CASRetryHist is the cas.retry histogram: bucket i counts
	// contended shadow-word actions that took about 2^i retries.
	CASRetryHist [HistBuckets]int64
	// Regions holds per-region traffic, hottest first.
	Regions []RegionSnapshot
	// Reads and Writes are the access totals across all regions.
	Reads, Writes int64
	// Footprint is the detector's analytic memory accounting at
	// snapshot time (filled in by the engine, not the recorder).
	Footprint Footprint
}

// Merge adds every scalar of o into s: counters, histograms, access
// totals, footprint components, and per-region traffic (regions are
// matched by name; unmatched ones are appended). The spd3d daemon uses
// it to fold per-request snapshots into one long-running aggregate, so
// it preserves the hottest-first region order Snapshot establishes.
func (s *Snapshot) Merge(o Snapshot) {
	for c := range s.Counters {
		s.Counters[c] += o.Counters[c]
	}
	for b := range s.CASRetryHist {
		s.CASRetryHist[b] += o.CASRetryHist[b]
	}
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Footprint.ShadowBytes += o.Footprint.ShadowBytes
	s.Footprint.TreeBytes += o.Footprint.TreeBytes
	s.Footprint.ClockBytes += o.Footprint.ClockBytes
	s.Footprint.SetBytes += o.Footprint.SetBytes
	byName := make(map[string]int, len(s.Regions))
	for i, g := range s.Regions {
		byName[g.Name] = i
	}
	for _, g := range o.Regions {
		if i, ok := byName[g.Name]; ok {
			s.Regions[i].Reads += g.Reads
			s.Regions[i].Writes += g.Writes
			if g.Elems > s.Regions[i].Elems {
				s.Regions[i].Elems = g.Elems
			}
		} else {
			byName[g.Name] = len(s.Regions)
			s.Regions = append(s.Regions, g)
		}
	}
	sort.Slice(s.Regions, func(i, j int) bool {
		a, b := s.Regions[i], s.Regions[j]
		ta, tb := a.Reads+a.Writes, b.Reads+b.Writes
		if ta != tb {
			return ta > tb
		}
		return a.Name < b.Name
	})
}

// Get returns one merged counter value.
func (s Snapshot) Get(c Counter) int64 {
	if c >= NumCounters {
		return 0
	}
	return s.Counters[c]
}

// Map returns the snapshot's scalar values keyed by their stable wire
// names: every counter (by Counter.String), the access totals
// ("mem.reads", "mem.writes"), and the footprint components
// ("footprint.shadow", "footprint.tree", "footprint.clock",
// "footprint.set", "footprint.total"). Per-region detail and histograms
// are available on the struct itself.
func (s Snapshot) Map() map[string]int64 {
	m := make(map[string]int64, int(NumCounters)+7)
	for c := Counter(0); c < NumCounters; c++ {
		m[c.String()] = s.Counters[c]
	}
	m["mem.reads"] = s.Reads
	m["mem.writes"] = s.Writes
	m["footprint.shadow"] = s.Footprint.ShadowBytes
	m["footprint.tree"] = s.Footprint.TreeBytes
	m["footprint.clock"] = s.Footprint.ClockBytes
	m["footprint.set"] = s.Footprint.SetBytes
	m["footprint.total"] = s.Footprint.Total()
	return m
}

// String renders a stable single-line summary grouped by subsystem.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mem: %d reads, %d writes", s.Reads, s.Writes)
	fmt.Fprintf(&b, " | cas: %d clean, %d publish, %d retry",
		s.Get(CASClean), s.Get(CASPublish), s.Get(CASRetry))
	fmt.Fprintf(&b, " | dmhp: %d walk", s.Get(DMHPWalk))
	if c, k := s.Get(SampleChecked), s.Get(SampleSkipped); c != 0 || k != 0 {
		fmt.Fprintf(&b, " | sample: %d checked, %d skipped", c, k)
	}
	if p := s.Get(ShadowPagesAllocated); p != 0 || s.Get(PageCacheHit) != 0 {
		fmt.Fprintf(&b, " | shadow: %d pages, %d cache-hit, %d cache-miss",
			p, s.Get(PageCacheHit), s.Get(PageCacheMiss))
	}
	fmt.Fprintf(&b, " | task: %d spawn, %d steal, %d inline",
		s.Get(TaskSpawn), s.Get(TaskSteal), s.Get(TaskInline))
	fmt.Fprintf(&b, " | race: %d reported, %d deduped, %d dropped",
		s.Get(RaceReported), s.Get(RaceDeduped), s.Get(RaceDropped))
	if v := s.Get(SrvRequests); v != 0 {
		fmt.Fprintf(&b, " | srv: %d requests, %d analyses, %d rejected, %d canceled",
			v, s.Get(SrvAnalyses), s.Get(SrvRejected), s.Get(SrvCanceled))
		if sb, segs := s.Get(SrvStreamedBytes), s.Get(TraceSegments); sb != 0 || segs != 0 {
			fmt.Fprintf(&b, ", %d B streamed, %d segments", sb, segs)
		}
	}
	if v := s.Get(JobSubmitted); v != 0 {
		fmt.Fprintf(&b, " | job: %d submitted, %d done, %d failed, %d canceled",
			v, s.Get(JobDone), s.Get(JobFailed), s.Get(JobCanceled))
	}
	if v := s.Get(StorePutBytes); v != 0 || s.Get(StoreDedupHits) != 0 {
		fmt.Fprintf(&b, " | store: %d B put, %d dedup-hits", v, s.Get(StoreDedupHits))
	}
	fmt.Fprintf(&b, " | footprint: %d B", s.Footprint.Total())
	return b.String()
}

// jsonSnapshot is the stable JSON shape of a Snapshot: an expvar-style
// counters map plus the structured extras.
type jsonSnapshot struct {
	Counters   map[string]int64   `json:"counters"`
	Histograms map[string][]int64 `json:"histograms"`
	Regions    []RegionSnapshot   `json:"regions"`
	Footprint  Footprint          `json:"footprint"`
}

// MarshalJSON renders the stable JSON form consumed by the cmd tools'
// -stats flags and the CI smoke test.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonSnapshot{
		Counters:   s.Map(),
		Histograms: map[string][]int64{CASRetryHistName: append([]int64(nil), s.CASRetryHist[:]...)},
		Regions:    s.Regions,
		Footprint:  s.Footprint,
	})
}

// UnmarshalJSON restores a snapshot from its JSON form; lossy for the
// derived Map-only keys, faithful for counters, histograms, regions,
// and footprint.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var j jsonSnapshot
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Snapshot{Regions: j.Regions, Footprint: j.Footprint}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c] = j.Counters[c.String()]
	}
	s.Reads = j.Counters["mem.reads"]
	s.Writes = j.Counters["mem.writes"]
	for b, v := range j.Histograms[CASRetryHistName] {
		if b < HistBuckets {
			s.CASRetryHist[b] = v
		}
	}
	return nil
}
