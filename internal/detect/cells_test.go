package detect

import (
	"sync"
	"testing"

	"spd3/internal/stats"
)

// TestRegionsConcurrent: goroutines allocate regions and touch their cells
// while another reads Bytes and Range, as parallel tasks and a footprint
// snapshot do; the totals come out exact. Run it under -race.
func TestRegionsConcurrent(t *testing.T) {
	type cell struct{ a, b, c uint64 }
	const workers, perWorker, cells = 4, 8, 5000 // 5000 cells: two pages, 4096 + 904
	rec := stats.New()
	r := NewRegions[cell](NewSink(false, 0), rec)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Bytes()
			r.Range(func(*cell) {}) // a cell's contents are its detector's to synchronize
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var l Local
			for n := 0; n < perWorker; n++ {
				c := r.New(Spec("x", cells, 8))
				c.At(&l, 0).a++
				c.At(&l, cells-1).a++
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	const regions = workers * perWorker
	if got, want := r.Bytes(), int64(regions*cells*24); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	var touched, seen uint64
	r.Range(func(c *cell) {
		seen++
		touched += c.a
	})
	if seen != regions*cells || touched != 2*regions {
		t.Errorf("Range visited %d cells holding %d touches, want %d and %d", seen, touched, regions*cells, 2*regions)
	}
	if got := rec.Snapshot().Get(stats.ShadowPagesAllocated); got != 2*regions {
		t.Errorf("%d pages allocated, want %d", got, 2*regions)
	}
}

// TestCellsHaltAndReport: a region reports under its own name, and once a
// halt-mode sink has stopped its accessor returns nil.
func TestCellsHaltAndReport(t *testing.T) {
	sink := NewSink(true, 0)
	c := NewRegions[uint64](sink, nil).New(Spec("buf", 10, 8))
	var l Local
	if c.At(&l, 3) == nil {
		t.Fatal("At returned nil before any race")
	}
	c.Report(WriteRead, 3, "a", "b")
	if got := sink.Races(); len(got) != 1 || got[0] != (Race{Kind: WriteRead, Region: "buf", Index: 3, PrevStep: "a", CurStep: "b"}) {
		t.Fatalf("races = %v", got)
	}
	if c.At(&l, 3) != nil {
		t.Fatal("At returned a cell after the halt-mode sink stopped")
	}
}
