package detectors_test

import (
	"reflect"
	"testing"

	"spd3/internal/detect"
	"spd3/internal/stats"
	"spd3/internal/task"
)

// TestShadowBytesAreCellsTimesCellSize: a detector's ShadowBytes is the
// cells its regions allocated times the size of its cell type, read here
// off the cell accessor of the shadow it builds, and the cell is the size
// the table pins (64-bit). A 5000-element region touched at both ends
// allocates both of its pages, 4096 + 904 cells; one write leaves
// FastTrack no read clock, so nothing else counts.
func TestShadowBytesAreCellsTimesCellSize(t *testing.T) {
	cellBytes := map[string]uintptr{"spd3": 16, "espbags": 16, "eraser": 56, "fasttrack": 32}
	const cells = 5000
	for _, name := range detect.Names() {
		if name == "none" {
			continue
		}
		ses, err := detect.Open(name, detect.SessionOpts{})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := task.New(task.Config{Executor: task.Sequential, Workers: 1, Detector: ses.Det, Stats: ses.Rec})
		if err != nil {
			t.Fatal(err)
		}
		var sh detect.Shadow
		if err := rt.Run(func(c *task.Ctx) {
			sh = ses.Det.NewShadow(detect.Spec("a", cells, 8))
			sh.Write(c.Task(), 0)
			sh.Write(c.Task(), cells-1)
		}); err != nil {
			t.Fatal(err)
		}
		at := reflect.ValueOf(sh).MethodByName("At")
		if !at.IsValid() {
			t.Fatalf("%s: shadow %T has no cell accessor", name, sh)
		}
		size := at.Type().Out(0).Elem().Size()
		if want, ok := cellBytes[name]; !ok || size != want {
			t.Errorf("%s: cell is %d bytes, the table says %d", name, size, want)
		}
		snap := ses.Snapshot(0)
		if got, want := snap.Footprint.ShadowBytes, int64(cells*size); got != want {
			t.Errorf("%s: ShadowBytes = %d, want %d cells x %d bytes = %d", name, got, cells, size, want)
		}
		if got := snap.Get(stats.ShadowPagesAllocated); got != 2 {
			t.Errorf("%s: %d pages allocated, want 2", name, got)
		}
	}
}
