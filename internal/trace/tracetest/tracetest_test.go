package tracetest

import (
	"strings"
	"testing"

	"spd3/internal/detect"
)

// TestCheck drives a wrapper by hand: main spawns a child into a finish,
// and the child updates an element. Check passes the run whole and
// refuses it with the child never ending, with the finish arriving with
// detector state and, through replay, with main writing while the child
// runs.
func TestCheck(t *testing.T) {
	for _, c := range []struct {
		ends, stale, interrupt bool
		want                   string // "" for a pass
	}{
		{true, false, false, ""},
		{false, false, false, "1 spawns, 0 TaskEnds"},
		{true, true, false, "detector state"},
		{true, false, true, "acts while task 1 runs"},
	} {
		d := Wrap(detect.Nop{}, true)
		main, implicit, f := &detect.Task{ID: 0}, &detect.Finish{ID: 0}, &detect.Finish{ID: 1}
		main.IEF = implicit
		child := &detect.Task{ID: 1, IEF: f}
		if c.stale {
			f.State = main
		}
		d.MainTask(main, implicit)
		sh := d.NewShadow(detect.Spec("x", 1, 8))
		d.FinishStart(main, f)
		d.BeforeSpawn(main, child)
		if c.interrupt {
			sh.Write(main, 0)
		}
		detect.Update(sh, child, 0)
		if c.ends {
			d.TaskEnd(child)
			d.FinishEnd(main, f)
			d.FinishEnd(main, implicit)
		}
		n, err := d.Check()
		if c.want == "" && (err != nil || n != Counts{Runs: 1, Spawns: 1, TaskEnds: 1, FinishStarts: 1, FinishEnds: 2}) ||
			c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%+v: %+v, %v", c, n, err)
		}
	}
}
