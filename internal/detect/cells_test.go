package detect

import (
	"sync"
	"testing"

	"spd3/internal/sample"
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
			t := &Task{L: new(Local)}
			for n := 0; n < perWorker; n++ {
				c := r.New(Spec("x", cells, 8))
				c.At(t, 0).a++
				c.At(t, cells-1).a++
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
	tk := &Task{L: new(Local)}
	if c.At(tk, 3) == nil {
		t.Fatal("At returned nil before any race")
	}
	c.Report(WriteRead, 3, "a", "b")
	if got := sink.Races(); len(got) != 1 || got[0] != (Race{Kind: WriteRead, Region: "buf", Index: 3, PrevStep: "a", CurStep: "b"}) {
		t.Fatalf("races = %v", got)
	}
	if c.At(tk, 3) != nil {
		t.Fatal("At returned a cell after the halt-mode sink stopped")
	}
}

// TestCellsSampled: a sampler on the sink makes At run or skip each check
// as the sampler decides for the region's number and the task's burst
// epoch, tallying the outcome into the task's scratch block; after a halt
// it neither checks nor counts. An Off sampler leaves the gate word zero.
func TestCellsSampled(t *testing.T) {
	sink := NewSink(true, 0)
	if sink.SetSampler(sample.New(sample.Config{Mode: sample.Off})); sink.gate.Load() != 0 {
		t.Fatalf("an Off sampler set the gate word to %#x", sink.gate.Load())
	}
	sink.SetSampler(sample.New(sample.Config{Mode: sample.Burst, Rate: 0.5}))
	r := NewRegions[uint64](sink, nil)
	a, b := r.New(Spec("a", 10, 8)), r.New(Spec("b", 10, 8))
	if a.id != 1 || b.id != 2 {
		t.Fatalf("regions numbered %d, %d; want 1, 2", a.id, b.id)
	}
	tk := &Task{L: new(Local)}
	tk.Sample.Step() // epoch 0: inside the window
	if a.At(tk, 3) == nil {
		t.Fatal("epoch 0 skipped")
	}
	tk.Sample.Step() // epoch 1: outside
	if b.At(tk, 3) != nil {
		t.Fatal("epoch 1 checked at rate 0.5")
	}
	a.Report(WriteRead, 3, "x", "y")
	tk.Sample.Step() // epoch 2: inside, but the sink has stopped
	if a.At(tk, 3) != nil {
		t.Fatal("At returned a cell after the halt-mode sink stopped")
	}
	if c, s := tk.L.Tally[stats.SampleChecked], tk.L.Tally[stats.SampleSkipped]; c != 1 || s != 1 {
		t.Errorf("sample.checked %d, sample.skipped %d; want 1 and 1", c, s)
	}
}
