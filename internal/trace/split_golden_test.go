package trace

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spd3/internal/bench"
	"spd3/internal/detect"
	"spd3/internal/progen"
	"spd3/internal/task"
)

var updateGolden = flag.Bool("update", false, "rewrite the goldens under testdata (and testdata/split/*.trc) from this run")

// splitPins are the (trace, configuration) pairs whose segments are
// pinned byte for byte. The daemon stores a segment under the hash of
// its bytes, so one moved header byte would re-address every stored
// trace: the hashes in testdata/split.golden were recorded at 4dd9be7,
// the last commit whose splitter copied the event buffer behind a
// separately built header.
var splitPins = []struct {
	trace string
	cfg   SplitConfig
	// unsplitAfter calls Unsplit once this many segments have been cut
	// (negative: only when Next answers ErrSegmentOversize).
	unsplitAfter int
}{
	{"progen.trc", SplitConfig{MinSegmentBytes: 1}, -1},                             // a cut at every boundary: region re-declarations grow
	{"progen.trc", SplitConfig{MinSegmentBytes: 4 << 10}, -1},                       // coalesced scopes
	{"progen.trc", SplitConfig{}, -1},                                               // the 64 KiB default: one segment
	{"moldyn.trc", SplitConfig{MinSegmentBytes: 1}, -1},                             // executor byte 0, three regions re-declared
	{"moldyn.trc", SplitConfig{MinSegmentBytes: 1 << 10}, -1},                       // two scopes to a segment
	{"multirun.trc", SplitConfig{MinSegmentBytes: 1 << 20}, -1},                     // only the second main task cuts
	{"multirun.trc", SplitConfig{MinSegmentBytes: 1 << 20}, 1},                      // Unsplit with that main task still pending
	{"multirun.trc", SplitConfig{MinSegmentBytes: 1 << 20}, 0},                      // Unsplit before any event was read
	{"oversize.trc", SplitConfig{MinSegmentBytes: 1, MaxSegmentBytes: 1 << 10}, -1}, // a cut, then a scope past the cap
}

// writeSplitTraces regenerates the committed traces (-update).
func writeSplitTraces(t *testing.T, dir string) {
	t.Helper()
	base := record(t, progen.Generate(7, progen.Config{MaxStmts: 200, Locks: 1}), task.Sequential, 1)
	amplified, err := AmplifyBytes(base, 4)
	if err != nil {
		t.Fatal(err)
	}

	// A JGF kernel on a one-worker pool: the executor byte reads
	// "parallel" and three regions are declared before the first cut.
	var moldyn bytes.Buffer
	rec := NewRecorder(&moldyn, false)
	rt, err := task.New(task.Config{Executor: task.Pool, Workers: 1, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := bench.ByName("MolDyn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.Run(rt, bench.Input{Scale: 0.02}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// Two back-to-back Runs of one sequential runtime, recorded by one
	// recorder; the second touches the first's region and declares its
	// own, one of them growable.
	var multi bytes.Buffer
	rec = NewRecorder(&multi, true)
	rt, err = task.New(task.Config{Executor: task.Sequential, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	var shA detect.Shadow
	if err := rt.Run(func(c *task.Ctx) {
		shA = rec.NewShadow(detect.Spec("a", 8, 8))
		for i := 0; i < 50; i++ {
			shA.Write(c.Task(), i%8)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(c *task.Ctx) {
		shB := rec.NewShadow(detect.GrowableSpec("b", 8))
		for i := 0; i < 50; i++ {
			shA.Read(c.Task(), i%8)
			shB.Write(c.Task(), i%8)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	// One closed top-level finish, then 2000 accesses with no boundary.
	var over bytes.Buffer
	rec = NewRecorder(&over, true)
	mt, fin := &detect.Task{ID: 0}, &detect.Finish{ID: 0}
	mt.IEF = fin
	rec.MainTask(mt, fin)
	sh := rec.NewShadow(detect.Spec("r", 8, 8))
	inner := &detect.Finish{ID: 1}
	rec.FinishStart(mt, inner)
	sh.Write(mt, 0)
	rec.FinishEnd(mt, inner)
	for i := 0; i < 2000; i++ {
		sh.Read(mt, i%8)
	}
	rec.FinishEnd(mt, fin)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"progen.trc": amplified, "moldyn.trc": moldyn.Bytes(), "multirun.trc": multi.Bytes(), "oversize.trc": over.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSplitterSegmentsPinned: every segment (and every Unsplit stream)
// the splitter produces for the committed traces hashes to what the
// parent commit's splitter produced.
func TestSplitterSegmentsPinned(t *testing.T) {
	dir := filepath.Join("testdata", "split")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeSplitTraces(t, dir)
	}
	var out strings.Builder
	for _, pin := range splitPins {
		data, err := os.ReadFile(filepath.Join(dir, pin.trace))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "-- %s min=%d max=%d unsplit-after=%d --\n", pin.trace, pin.cfg.MinSegmentBytes, pin.cfg.MaxSegmentBytes, pin.unsplitAfter)
		out.WriteString(splitDigest(t, bytes.NewReader(data), pin.cfg, pin.unsplitAfter))
	}
	golden := filepath.Join("testdata", "split.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("segments differ from testdata/split.golden\ngot:\n%s\nwant:\n%s", out.String(), want)
	}
}

// splitDigest splits rd under cfg, calling Unsplit once unsplitAfter
// segments have been cut (negative: only on ErrSegmentOversize), and
// returns one line per segment and per Unsplit stream: its length and
// SHA-256.
func splitDigest(t *testing.T, rd io.Reader, cfg SplitConfig, unsplitAfter int) string {
	t.Helper()
	var out strings.Builder
	sp, err := NewSplitter(rd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unsplit := func() {
		rest, err := io.ReadAll(sp.Unsplit())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "unsplit %d %x\n", len(rest), sha256.Sum256(rest))
	}
	for n := 0; ; n++ {
		if n == unsplitAfter {
			unsplit()
			break
		}
		seg, err := sp.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, ErrSegmentOversize) {
			unsplit()
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "segment %d %x\n", len(seg), sha256.Sum256(seg))
	}
	return out.String()
}
