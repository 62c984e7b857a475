package detect

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"spd3/internal/shadow"
	"spd3/internal/stats"
)

func TestRaceString(t *testing.T) {
	r := Race{Kind: WriteWrite, Region: "buf", Index: 7, PrevStep: "step#1", CurStep: "step#2"}
	s := r.String()
	for _, want := range []string{"write-write", "buf[7]", "step#1", "step#2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestRaceKindStrings(t *testing.T) {
	cases := map[RaceKind]string{
		ReadWrite:    "read-write",
		WriteWrite:   "write-write",
		WriteRead:    "write-read",
		RaceKind(99): "RaceKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestAccessKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("AccessKind strings wrong")
	}
}

func TestSinkDedup(t *testing.T) {
	s := NewSink(false, 0)
	for i := 0; i < 5; i++ {
		s.Report(Race{Kind: WriteWrite, Region: "a", Index: 1})
	}
	s.Report(Race{Kind: ReadWrite, Region: "a", Index: 1})
	s.Report(Race{Kind: WriteWrite, Region: "a", Index: 2})
	if got := len(s.Races()); got != 3 {
		t.Fatalf("recorded %d races, want 3 distinct", got)
	}
}

func TestSinkSorted(t *testing.T) {
	s := NewSink(false, 0)
	s.Report(Race{Kind: WriteWrite, Region: "b", Index: 0})
	s.Report(Race{Kind: WriteWrite, Region: "a", Index: 2})
	s.Report(Race{Kind: WriteWrite, Region: "a", Index: 1})
	races := s.Races()
	if races[0].Region != "a" || races[0].Index != 1 || races[2].Region != "b" {
		t.Fatalf("order = %v", races)
	}
}

func TestSinkHaltMode(t *testing.T) {
	s := NewSink(true, 0)
	if s.Stopped() {
		t.Fatal("fresh sink stopped")
	}
	if halt := s.Report(Race{Region: "a"}); !halt {
		t.Fatal("halt-mode Report must request halt")
	}
	if !s.Stopped() {
		t.Fatal("sink not stopped after report")
	}
	// A detector that passed its Stopped poll before the first report
	// landed may still report a distinct race: the sink keeps only the
	// first.
	if halt := s.Report(Race{Region: "b"}); !halt {
		t.Fatal("a stopped sink must keep requesting halt")
	}
	if races := s.Races(); len(races) != 1 || races[0].Region != "a" {
		t.Fatalf("races after stop = %v, want only the first", races)
	}
}

func TestSinkLimit(t *testing.T) {
	s := NewSink(false, 2)
	for i := 0; i < 5; i++ {
		s.Report(Race{Region: "a", Index: i})
	}
	if len(s.Races()) != 2 || !s.Capped() {
		t.Fatalf("races = %d capped = %v", len(s.Races()), s.Capped())
	}
}

func TestSinkMarkAndSince(t *testing.T) {
	s := NewSink(false, 0)
	s.Report(Race{Region: "a", Index: 0})
	mark := s.Mark()
	s.Report(Race{Region: "a", Index: 1})
	s.Report(Race{Region: "a", Index: 2})
	since := s.RacesSince(mark)
	if len(since) != 2 || since[0].Index != 1 {
		t.Fatalf("RacesSince = %v", since)
	}
	if got := s.RacesSince(-5); len(got) != 3 {
		t.Fatalf("RacesSince(-5) = %v", got)
	}
	if got := s.RacesSince(999); len(got) != 0 {
		t.Fatalf("RacesSince(999) = %v", got)
	}
}

// TestSinkConcurrent reports from eight goroutines at once with site
// capture on: each distinct race walks its reporter's stack, and with no
// container method on it the report gains no site.
func TestSinkConcurrent(t *testing.T) {
	s := NewSink(false, 0)
	s.SetCaptureSites(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Report(Race{Region: "r", Index: i})
			}
		}(g)
	}
	wg.Wait()
	races := s.Races()
	if len(races) != 100 {
		t.Fatalf("recorded %d, want 100 distinct", len(races))
	}
	for _, r := range races {
		if r.CurStep != "" {
			t.Fatalf("site %q captured without a container frame", r.CurStep)
		}
	}
}

// TestSinkQuickDedupInvariant: property test (testing/quick) — for any
// report sequence, the sink holds exactly the distinct (kind, region,
// index) triples, in sorted order.
func TestSinkQuickDedupInvariant(t *testing.T) {
	check := func(kinds []uint8, idxs []uint8) bool {
		s := NewSink(false, 0)
		distinct := map[[2]int]bool{}
		for i := range kinds {
			idx := 0
			if i < len(idxs) {
				idx = int(idxs[i]) % 8
			}
			k := RaceKind(kinds[i] % 3)
			s.Report(Race{Kind: k, Region: "r", Index: idx})
			distinct[[2]int{int(k), idx}] = true
		}
		races := s.Races()
		if len(races) != len(distinct) {
			return false
		}
		for i := 1; i < len(races); i++ {
			a, b := races[i-1], races[i]
			if a.Index > b.Index || (a.Index == b.Index && a.Kind >= b.Kind) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintTotal(t *testing.T) {
	f := Footprint{ShadowBytes: 1, TreeBytes: 2, ClockBytes: 4, SetBytes: 8}
	if f.Total() != 15 {
		t.Fatalf("Total = %d", f.Total())
	}
}

func TestNopDetector(t *testing.T) {
	var d Detector = Nop{}
	if d.Name() != "none" || DepthFirst(d) || Owned(d) {
		t.Fatal("Nop misconfigured")
	}
	sh := d.NewShadow(Spec("x", 4, 8))
	sh.Read(nil, 0) // must not touch the task
	sh.Write(nil, 3)
	if d.Footprint().Total() != 0 {
		t.Fatal("Nop has a footprint")
	}
}

// TestLocalFlush: Flush moves every count of the Tally block, the page
// cache's hit/miss pair and the region counts into the recorder under its
// wire name, adds across calls, zeroes the block's copies, and discards
// the tallies into a nil recorder.
func TestLocalFlush(t *testing.T) {
	rec := stats.New()
	g := rec.Region("r", 8)
	pages := shadow.New[int64](8)
	l := Local{}
	fill := func(base int64) {
		l.Tally = [stats.NumBatched]int64{
			stats.CASClean: base + 1, stats.CASPublish: base + 2, stats.CASRetry: base + 3,
			stats.DMHPWalk:      base + 5,
			stats.SampleChecked: base + 7, stats.SampleSkipped: base + 8,
			stats.TaskSpawn: base + 9, stats.TaskInline: base + 11, stats.TaskSteal: base + 12,
		}
		pages.CellOf(&l.PC, 0) // after a flush: one hit (the slot survives)
		pages.CellOf(&l.PC, 1) // one hit
		l.CountAccess(g, false)
		l.CountAccess(g, true)
		l.CountAccess(g, true)
		l.CountAccess(nil, true) // stats off for that container: no count
	}
	fill(0) // first touch: one miss, one hit
	l.Flush(rec)
	fill(10)
	l.Flush(rec)
	want := map[stats.Counter]int64{
		stats.CASClean: 12, stats.CASPublish: 14, stats.CASRetry: 16,
		stats.DMHPWalk:      20,
		stats.SampleChecked: 24, stats.SampleSkipped: 26,
		stats.TaskSpawn: 28, stats.TaskInline: 32, stats.TaskSteal: 34,
		stats.PageCacheHit: 3, stats.PageCacheMiss: 1,
	}
	snap := rec.Snapshot()
	for c := stats.Counter(0); c < stats.NumCounters; c++ {
		if got := snap.Get(c); got != want[c] {
			t.Errorf("%s = %d, want %d", c, got, want[c])
		}
	}
	if r, w := g.Counts(); r != 2 || w != 4 {
		t.Errorf("region counts %d/%d, want 2/4", r, w)
	}
	zeroed := func() bool {
		h, m := l.PC.TakeCounts()
		return l.Tally == [stats.NumBatched]int64{} && h|m == 0
	}
	if !zeroed() {
		t.Errorf("Flush left counts behind: %+v", l)
	}
	fill(0)
	l.Flush(nil) // must not panic; counts still zeroed
	if !zeroed() {
		t.Error("Flush(nil) did not zero the counts")
	}
	l.Flush(rec) // the region counts waited for a recorder and arrive once
	if r, w := g.Counts(); r != 3 || w != 6 {
		t.Errorf("region counts %d/%d after a third batch, want 3/6", r, w)
	}
}

// newRegions registers n one-element regions r0, r1, … with rec.
func newRegions(rec *stats.Recorder, n int) []*stats.Region {
	gs := make([]*stats.Region, n)
	for i := range gs {
		gs[i] = rec.Region(fmt.Sprint("r", i), 1)
	}
	return gs
}

// TestRegionBatch: the block batches traffic per region, not per run of
// accesses to one region. A loop that interleaves a few regions — every
// multi-array kernel's inner loop — publishes nothing until Flush and
// everything at it; any number of regions stays exact, reads and writes
// apart, including one registered after the block's first Flush; regions
// of a container without stats, and a run without a recorder, cost nothing
// and break nothing.
func TestRegionBatch(t *testing.T) {
	counts := func(gs []*stats.Region) (reads, writes []int64) {
		for _, g := range gs {
			r, w := g.Counts()
			reads, writes = append(reads, r), append(writes, w)
		}
		return reads, writes
	}

	t.Run("interleaved", func(t *testing.T) {
		rec := stats.New()
		gs := newRegions(rec, 3)
		l := Local{}
		const rounds = 10_000
		for i := 0; i < rounds; i++ {
			l.CountAccess(gs[0], false)
			l.CountAccess(gs[1], false)
			l.CountAccess(gs[2], i%4 == 0)
		}
		if r, w := counts(gs); !reflect.DeepEqual(r, []int64{0, 0, 0}) || !reflect.DeepEqual(w, []int64{0, 0, 0}) {
			t.Fatalf("before Flush the regions read %v reads, %v writes: a switch of region published a batch", r, w)
		}
		l.Flush(rec)
		if r, w := counts(gs); !reflect.DeepEqual(r, []int64{rounds, rounds, rounds * 3 / 4}) || !reflect.DeepEqual(w, []int64{0, 0, rounds / 4}) {
			t.Fatalf("after Flush the regions read %v reads, %v writes", r, w)
		}
	})

	t.Run("20 regions", func(t *testing.T) {
		rec := stats.New()
		gs := newRegions(rec, 20)
		l := Local{}
		wantR, wantW := make([]int64, len(gs)), make([]int64, len(gs))
		for i := 0; i < 5000; i++ {
			k := (i * 7) % len(gs)
			write := i%3 == 0
			l.CountAccess(gs[k], write)
			l.CountAccess(nil, !write)
			if write {
				wantW[k]++
			} else {
				wantR[k]++
			}
		}
		l.Flush(rec)
		if r, w := counts(gs); !reflect.DeepEqual(r, wantR) || !reflect.DeepEqual(w, wantW) {
			t.Fatalf("20 regions: reads %v, writes %v, want %v and %v", r, w, wantR, wantW)
		}
		snap := rec.Snapshot()
		if snap.Reads+snap.Writes != 5000 {
			t.Fatalf("snapshot counts %d accesses, want 5000", snap.Reads+snap.Writes)
		}
	})

	t.Run("registered after a flush", func(t *testing.T) {
		rec := stats.New()
		gs := newRegions(rec, 3)
		l := Local{}
		l.CountAccess(gs[2], true)
		l.Flush(rec)
		gs = append(gs, newRegions(rec, 30)...) // past what the block's slice covers
		late := gs[len(gs)-1]
		l.CountAccess(late, false)
		l.CountAccess(gs[2], false)
		l.CountAccess(late, true)
		l.Flush(rec)
		if r, w := late.Counts(); r != 1 || w != 1 {
			t.Fatalf("the late region counts %d/%d, want 1/1", r, w)
		}
		if r, w := gs[2].Counts(); r != 1 || w != 1 {
			t.Fatalf("region 2 counts %d/%d over two flushes, want 1/1", r, w)
		}
		if snap := rec.Snapshot(); snap.Reads+snap.Writes != 4 {
			t.Fatalf("snapshot counts %d accesses, want 4", snap.Reads+snap.Writes)
		}
	})

	t.Run("no stats", func(t *testing.T) {
		var rec *stats.Recorder
		l := Local{}
		g := rec.Region("off", 1) // nil: what a container of a NoStats engine holds
		for i := 0; i < 100; i++ {
			l.CountAccess(g, i%2 == 0)
		}
		l.Flush(rec)
		if !reflect.DeepEqual(l, Local{}) {
			t.Fatalf("counting against a nil region left %+v in the block", l)
		}
	})
}

// TestFlushesSumExactly: the recorder is the one place counts meet. Blocks
// owned by different goroutines count against shared regions and regions
// their owner registers mid-run, flush several times each while the others
// count, register and snapshot, and every total is exact. Run under -race.
func TestFlushesSumExactly(t *testing.T) {
	const owners, rounds, perRound, own = 8, 5, 1200, 4
	rec := stats.New()
	shared := newRegions(rec, 3)
	mine := make([][]*stats.Region, owners)
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var l Local
			for r := 0; r < rounds; r++ {
				if r < own {
					mine[o] = append(mine[o], rec.Region(fmt.Sprint("own", o, ".", r), 1))
				}
				for i := 0; i < perRound; i++ {
					l.CountAccess(shared[i%len(shared)], i%4 == 0)
					l.CountAccess(mine[o][i%len(mine[o])], true)
					l.Tally[stats.CASClean]++
				}
				l.Tally[stats.TaskSpawn] += 3
				l.Flush(rec)
				rec.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := rec.Snapshot()
	const accesses = owners * rounds * perRound
	if snap.Reads != accesses*3/4 || snap.Writes != accesses/4+accesses {
		t.Errorf("%d reads, %d writes; want %d and %d", snap.Reads, snap.Writes, accesses*3/4, accesses/4+accesses)
	}
	if got := snap.Get(stats.CASClean); got != accesses {
		t.Errorf("cas.clean = %d, want %d", got, accesses)
	}
	if got := snap.Get(stats.TaskSpawn); got != owners*rounds*3 {
		t.Errorf("task.spawn = %d, want %d", got, owners*rounds*3)
	}
	for _, g := range shared { // i%3 picks the region, i%4 the kind: each gets a twelfth of the writes
		if r, w := g.Counts(); r != accesses/4 || w != accesses/12 {
			t.Errorf("%s: %d reads, %d writes; want %d and %d", g.Name, r, w, accesses/4, accesses/12)
		}
	}
	for o, gs := range mine {
		var sum int64
		for _, g := range gs {
			r, w := g.Counts()
			if r != 0 {
				t.Errorf("%s: %d reads, want 0", g.Name, r)
			}
			sum += w
		}
		if sum != rounds*perRound {
			t.Errorf("owner %d's regions count %d writes, want %d", o, sum, rounds*perRound)
		}
	}
	if got := len(rec.Regions()); got != len(shared)+owners*own {
		t.Errorf("%d regions registered, want %d", got, len(shared)+owners*own)
	}
}

// TestCountAccessAllocs: once the block's slice covers the regions in use,
// counting allocates nothing — the slice grows on a region's first touch
// only.
func TestCountAccessAllocs(t *testing.T) {
	rec := stats.New()
	gs := newRegions(rec, 12)
	var l Local
	touch := func() {
		for i, g := range gs {
			l.CountAccess(g, i%2 == 0)
		}
	}
	touch()
	if n := testing.AllocsPerRun(100, touch); n != 0 {
		t.Fatalf("CountAccess allocates %v times a round over regions it has seen", n)
	}
	l.Flush(rec)
	if n := testing.AllocsPerRun(100, touch); n != 0 {
		t.Fatalf("CountAccess allocates %v times a round after a Flush", n)
	}
}

// TestLocalSize: every worker embeds a block and every replay holds one.
// The next cache that wants room here is a decision, not an accident. The
// bound is the block's size with its region counts a slice header (1 664
// bytes; 1 840 with the eight-entry batch inline), the 8-entry relation
// memo (128 bytes) and the three id blocks of 24 bytes each (72 bytes)
// that keep insertion off the shared counters.
func TestLocalSize(t *testing.T) {
	if size := unsafe.Sizeof(Local{}); size > 1864 {
		t.Fatalf("detect.Local is %d bytes, more than 1864", size)
	}
}
