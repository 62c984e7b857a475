package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spd3/internal/bench"
	"spd3/internal/mem"
	"spd3/internal/progen"
	"spd3/internal/task"
)

// writerKernels are the JGF and BOTS kernels whose sequential recordings
// TestWritersPinned hashes: every region shape the suite declares (arrays,
// matrices, per-task arrays) and deep as well as wide task trees.
var writerKernels = []string{"SOR", "Crypt", "LUFact", "Series", "MolDyn", "Sparse", "Health", "NQueens"}

// recordRun records run on the sequential executor.
func recordRun(t *testing.T, run func(*task.Runtime) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(rt); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWritersPinned: the bytes the Recorder and the Amplifier write hash
// to what testdata/writers.golden holds — progen recordings with locks and
// their ×3 amplifications, kernel recordings, a run over growable regions
// and its ×2 amplification, and the ×3 amplification of every committed
// splitter trace. A trace is a content address in spd3d's store, so a
// moved byte is a format change, not a refactor.
func TestWritersPinned(t *testing.T) {
	var out strings.Builder
	pin := func(name string, data []byte) {
		fmt.Fprintf(&out, "%s %d %x\n", name, len(data), sha256.Sum256(data))
	}
	amplify := func(name string, base []byte, copies int) {
		amp, err := AmplifyBytes(base, copies)
		if err != nil {
			fmt.Fprintf(&out, "%s x%d: %v\n", name, copies, err)
			return
		}
		pin(fmt.Sprintf("%s x%d", name, copies), amp)
	}

	for seed := int64(0); seed < 60; seed++ {
		name := fmt.Sprintf("progen-%d", seed)
		data := record(t, progen.Generate(seed, progen.Config{Locks: 2}), task.Sequential, 1)
		pin(name, data)
		amplify(name, data, 3)
	}
	for _, k := range writerKernels {
		kernel, err := bench.ByName(k)
		if err != nil {
			t.Fatal(err)
		}
		pin(k, recordRun(t, func(rt *task.Runtime) error {
			_, err := kernel.Run(rt, bench.Input{Scale: 0.05})
			return err
		}))
	}
	growable := recordRun(t, func(rt *task.Runtime) error {
		l := mem.NewList[int](rt, "list")
		m := mem.NewMap[int, int](rt, "map")
		return rt.Run(func(c *task.Ctx) {
			c.Finish(func(c *task.Ctx) {
				for i := 0; i < 4; i++ {
					c.Async(func(c *task.Ctx) {
						m.Update(c, i, func(v int) int { return v + i })
					})
				}
			})
			for i := 0; i < 40; i++ {
				l.Append(c, i)
				m.Set(c, i%7, l.Get(c, i/2))
			}
			m.Delete(c, 3)
			_ = m.Len(c) + l.Len(c)
		})
	})
	pin("list-map", growable)
	amplify("list-map", growable, 2)
	traces, err := filepath.Glob(filepath.Join("testdata", "split", "*.trc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range traces {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		amplify(filepath.Base(path), data, 3)
	}

	golden := filepath.Join("testdata", "writers.golden")
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
		t.Errorf("written traces differ from testdata/writers.golden\ngot:\n%s\nwant:\n%s", out.String(), want)
	}
}
