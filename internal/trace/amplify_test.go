package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"spd3/internal/detect"
	"spd3/internal/progen"
	"spd3/internal/task"
)

// TestAmplifyPreservesVerdict: an N×-amplified trace must reach the same
// racy/race-free verdict as its base under every detector class —
// including the sequential-only one, since amplification keeps the
// depth-first layout.
func TestAmplifyPreservesVerdict(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := progen.Generate(seed, progen.Config{Locks: 1})
		data := record(t, p, task.Sequential, 1)
		amp, err := AmplifyBytes(data, 5)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for name, mk := range map[string]func(*detect.Sink) detect.Detector{
			"spd3":      mkSPD3,
			"fasttrack": mkFastTrack,
			"espbags":   mkESPBags,
		} {
			base := replayVerdict(t, data, mk)
			got := replayVerdict(t, amp, mk)
			if base != got {
				t.Fatalf("seed %d %s: base racy=%v, amplified racy=%v\n%s", seed, name, base, got, p)
			}
		}
	}
}

// TestAmplifySplits: every copy's wrap finish closes at top level, so an
// ×8 amplification must shard into at least 8 segments whose union
// reproduces the base verdict — the property that lets the daemon chew
// amplified load back down to base-sized units.
func TestAmplifySplits(t *testing.T) {
	const copies = 8
	sharded := 0
	for seed := int64(0); seed < 10; seed++ {
		p := progen.Generate(seed, progen.Config{Locks: 1})
		data := record(t, p, task.Sequential, 1)
		base := analyzeReader(bytes.NewReader(data))
		if base.err != nil {
			t.Fatal(base.err)
		}
		amp, err := AmplifyBytes(data, copies)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := NewSplitter(bytes.NewReader(amp), SplitConfig{MinSegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		racy, segs := false, 0
		for {
			seg, err := sp.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: segment %d: %v", seed, segs, err)
			}
			segs++
			a := analyzeReader(bytes.NewReader(seg))
			if a.err != nil {
				t.Fatalf("seed %d: segment %d replay: %v", seed, segs, a.err)
			}
			racy = racy || a.racy
		}
		if segs >= copies {
			sharded++
		}
		if racy != base.racy {
			t.Fatalf("seed %d: sharded amplified racy=%v, base racy=%v (%d segments)", seed, racy, base.racy, segs)
		}
	}
	if sharded == 0 {
		t.Fatalf("no amplified trace split into >= %d segments", copies)
	}
}

// TestAmplifyStreams: the Amplifier's Read output matches AmplifyBytes,
// and SizeHint is within 2× of the truth either way.
func TestAmplifyStreams(t *testing.T) {
	data := record(t, progen.Generate(3, progen.Config{}), task.Sequential, 1)
	want, err := AmplifyBytes(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAmplifier(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(&chunkReader{r: a, n: 13})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed amplification (%d bytes) differs from materialized (%d bytes)", len(got), len(want))
	}
	hint, actual := NewAmplifierMust(t, data, 6).SizeHint(), int64(len(want))
	if actual > 2*hint || hint > 2*actual {
		t.Fatalf("SizeHint %d vs actual %d: off by more than 2x", hint, actual)
	}
}

func NewAmplifierMust(t *testing.T, base []byte, copies int) *Amplifier {
	t.Helper()
	a, err := NewAmplifier(base, copies)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAmplifyLeadingRegionDecls: real recordings declare shadow regions
// created before the runtime starts ahead of the main-task event; the
// amplifier must accept that shape.
func TestAmplifyLeadingRegionDecls(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	sh := rec.NewShadow(detect.Spec("early", 8, 8)) // declared before MainTask
	mt := &detect.Task{ID: 0}
	f0 := &detect.Finish{ID: 0}
	mt.IEF = f0
	rec.MainTask(mt, f0)
	const accesses = 100
	for i := 0; i < accesses; i++ {
		sh.Read(mt, i%8)
	}
	rec.FinishEnd(mt, f0)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	amp, err := AmplifyBytes(buf.Bytes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	det := &countingDetector{trigger: -1}
	if err := Replay(bytes.NewReader(amp), det); err != nil {
		t.Fatal(err)
	}
	if det.events != 3*accesses {
		t.Fatalf("amplified replay saw %d accesses, want %d", det.events, 3*accesses)
	}
}

func TestAmplifyErrors(t *testing.T) {
	data := record(t, progen.Generate(1, progen.Config{}), task.Sequential, 1)

	if _, err := NewAmplifier(data, 0); err == nil {
		t.Error("copies=0 accepted")
	}
	if _, err := NewAmplifier([]byte("NOTATRACE"), 2); !errors.Is(err, ErrBadMagic) {
		t.Errorf("garbage base: err = %v, want ErrBadMagic", err)
	}
	if _, err := NewAmplifier(append([]byte(magic), 1), 2); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty base: err = %v, want ErrMalformed", err)
	}
	tworuns := append(append([]byte{}, data...), data[len(magic)+1:]...)
	if _, err := NewAmplifier(tworuns, 2); !errors.Is(err, ErrMalformed) {
		t.Errorf("two-run base: err = %v, want ErrMalformed", err)
	}
	// A recording ends with the main task's FinishEnd of its implicit
	// finish: without it the base is incomplete, and a base that names the
	// main task after it has no last event for M_k to follow.
	end := appendEvent(nil, evFinishEnd, 0, 0)
	if !bytes.HasSuffix(data, end) {
		t.Fatalf("recording does not end with %x", end)
	}
	if _, err := NewAmplifier(data[:len(data)-len(end)], 2); !errors.Is(err, ErrMalformed) {
		t.Errorf("base without the end of its implicit finish: err = %v, want ErrMalformed", err)
	}
	if _, err := NewAmplifier(appendEvent(bytes.Clone(data), evTaskEnd, 0), 2); !errors.Is(err, ErrMalformed) {
		t.Errorf("base naming its main task after its last event: err = %v, want ErrMalformed", err)
	}
}
