package detectors_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"spd3/internal/bench"
	"spd3/internal/detect"
	_ "spd3/internal/detectors"
	"spd3/internal/progen"
	"spd3/internal/stats"
	"spd3/internal/task"
)

var update = flag.Bool("update", false, "rewrite testdata/detectors.golden from this run")

const goldenPath = "testdata/detectors.golden"

// program is one pinned input: a benchmark kernel, a sequential racy
// variant or a generated program.
type program struct {
	name string
	run  func(rt *task.Runtime) error
}

// programs returns the pinned corpus: the 15 kernels at a small scale,
// the racy variants the sequential executor can run, and 20 progen seeds
// with a lock (so lockset and lock-clock state are exercised).
func programs() []program {
	var ps []program
	in := bench.Input{Scale: 0.05}
	for _, b := range bench.All() {
		ps = append(ps, program{"bench/" + b.Name, func(rt *task.Runtime) error {
			_, err := b.Run(rt, in)
			return err
		}})
	}
	for _, r := range bench.Racy() {
		if r.NeedsParallel {
			continue
		}
		ps = append(ps, program{"racy/" + r.Name, func(rt *task.Runtime) error {
			_, err := r.Run(rt, in)
			return err
		}})
	}
	for seed := int64(0); seed < 20; seed++ {
		p := progen.Generate(seed, progen.Config{Locks: 1})
		ps = append(ps, program{fmt.Sprintf("progen/%d", seed), func(rt *task.Runtime) error {
			return progen.Run(rt, p, nil)
		}})
	}
	return ps
}

// runOne runs p under the named registry detector on the sequential
// executor and renders what the detector produced: its sorted race set,
// its analytic footprint, the pages it allocated and the number of shadow
// cell lookups (page-cache hits plus misses).
func runOne(t *testing.T, name string, halt bool, p program) string {
	t.Helper()
	ses, err := detect.Open(name, detect.SessionOpts{Halt: halt})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := task.New(task.Config{Executor: task.Sequential, Workers: 1, Detector: ses.Det, Stats: ses.Rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.run(rt); err != nil {
		t.Fatalf("%s under %s: %v", p.name, name, err)
	}
	snap := ses.Snapshot(0)
	mode := "log"
	if halt {
		mode = "halt"
	}
	var b strings.Builder
	fp := snap.Footprint
	fmt.Fprintf(&b, "== %s %s %s\n", name, mode, p.name)
	fmt.Fprintf(&b, "ShadowBytes %d\nTreeBytes %d\nClockBytes %d\nSetBytes %d\n",
		fp.ShadowBytes, fp.TreeBytes, fp.ClockBytes, fp.SetBytes)
	fmt.Fprintf(&b, "pages %d lookups %d\n", snap.Get(stats.ShadowPagesAllocated),
		snap.Get(stats.PageCacheHit)+snap.Get(stats.PageCacheMiss))
	var races []string
	for _, r := range ses.Sink.Races() {
		races = append(races, fmt.Sprintf("race %v %s[%d] %s %s", r.Kind, r.Region, r.Index, r.PrevStep, r.CurStep))
	}
	sort.Strings(races)
	fmt.Fprintf(&b, "races %d\n", len(races))
	for _, r := range races {
		b.WriteString(r + "\n")
	}
	return b.String()
}

// TestDetectorsGolden pins every registry detector's observable output —
// races, footprint, page and lookup counts — over a fixed corpus in log
// and halt mode. The detectors are built by name, each run with a fresh
// session, so the file depends neither on registration order nor on what
// ran earlier in the process. -update rewrites it.
func TestDetectorsGolden(t *testing.T) {
	var out bytes.Buffer
	ps := programs()
	for _, name := range detect.Names() {
		for _, halt := range []bool{false, true} {
			for _, p := range ps {
				out.WriteString(runOne(t, name, halt, p))
			}
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		header := ""
		for i := 0; i < len(got) || i < len(exp); i++ {
			var g, e string
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				e = exp[i]
			}
			if strings.HasPrefix(e, "== ") {
				header = e
			}
			if g != e {
				t.Fatalf("%s differs from this run at line %d (in %q):\n got: %s\nwant: %s", goldenPath, i+1, header, g, e)
			}
		}
	}
}
