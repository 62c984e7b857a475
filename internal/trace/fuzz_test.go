package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
	_ "spd3/internal/detectors"
	"spd3/internal/progen"
	"spd3/internal/task"
)

// fuzzSeeds populates f with real traces and near-misses.
func fuzzSeeds(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		p := progen.Generate(seed, progen.Config{Locks: 1})
		var buf bytes.Buffer
		rec := NewRecorder(&buf, true)
		rt, err := task.New(task.Config{Executor: task.Sequential, Detector: rec})
		if err != nil {
			f.Fatal(err)
		}
		if err := progen.Run(rt, p, nil); err != nil {
			f.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte(magic))
	f.Add([]byte("SPD3TRC1\x01\x01"))
	f.Add([]byte{})
}

// isDecodeSentinel reports whether err belongs to the typed error
// contract the daemon's status mapping relies on: a replay of untrusted
// bytes may fail only with these classes.
func isDecodeSentinel(err error) bool {
	return errors.Is(err, ErrBadMagic) ||
		errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrMalformed) ||
		errors.Is(err, ErrLimit)
}

// FuzzReplay feeds arbitrary bytes to the trace parser through a
// chunked reader (exercising the incremental refill paths) and on into
// every registry detector: none may panic — replay is what stands
// between hostile bytes and detectors that trust the driver contract —
// and any failure must carry exactly one of the typed sentinels; an
// untyped error would reach clients as a 500. Each detector gets the
// input under the executor byte that lets the most through to it:
// "sequential" for a depth-first-only detector, which replay refuses a
// parallel trace, and "parallel" for the rest, so interleaved tasks,
// which the depth-first rule refuses, reach them too.
func FuzzReplay(f *testing.F) {
	fuzzSeeds(f)
	names := detect.Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		// Tight limits keep hostile region declarations from turning
		// into large allocations.
		lim := Limits{MaxRegionElems: 1 << 16, MaxTotalElems: 1 << 18}
		for _, name := range names {
			det, err := detect.New(name, detect.FactoryOpts{Sink: detect.NewSink(false, 0)})
			if err != nil {
				t.Fatal(err)
			}
			if len(data) > len(magic) {
				data[len(magic)] = 0
				if detect.DepthFirst(det) {
					data[len(magic)] = 1
				}
			}
			rd := &chunkReader{r: bytes.NewReader(data), n: 5}
			if err := ReplayWithLimits(rd, det, nil, lim); err != nil && !isDecodeSentinel(err) {
				t.Fatalf("%s: untyped error escaped the replay: %v", name, err)
			}
		}
	})
}

// FuzzAmplify: a base that replays cleanly into SPD3 amplifies ×2 into a
// trace that replays cleanly to the same verdict; a base the amplifier
// refuses is refused with a typed sentinel.
func FuzzAmplify(f *testing.F) {
	fuzzSeeds(f)
	verdict := func(data []byte, maxTotal int64) (bool, error) {
		sink := detect.NewSink(false, 0)
		err := ReplayWithLimits(bytes.NewReader(data), core.New(sink, nil), nil, Limits{MaxRegionElems: 1 << 16, MaxTotalElems: maxTotal})
		return !sink.Empty(), err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		racy, err := verdict(data, 1<<17)
		if err != nil {
			return
		}
		amp, err := AmplifyBytes(data, 2)
		if err != nil {
			if !isDecodeSentinel(err) {
				t.Fatalf("untyped amplifier error: %v", err)
			}
			return
		}
		got, err := verdict(amp, 1<<18)
		if err != nil {
			t.Fatalf("the base replays cleanly, its ×2 amplification does not: %v", err)
		}
		if got != racy {
			t.Fatalf("base racy=%v, ×2 amplification racy=%v", racy, got)
		}
	})
}

// FuzzSplitter drives the segment splitter over arbitrary bytes: no
// panics, only sentinel errors (plus ErrSegmentOversize, which Unsplit
// must then absorb), and every produced segment must itself replay
// without tripping an untyped error. When the whole input replays cleanly
// into SPD3, splitting is sound besides: the splitter returns no error,
// every segment (and an Unsplit remainder) replays cleanly, and their
// race sets union to the whole trace's. Conversely, when the splitter
// returns no error and every segment replays cleanly, so does the whole
// trace: no segment header lets through what replay refuses.
func FuzzSplitter(f *testing.F) {
	fuzzSeeds(f)
	lim := Limits{MaxRegionElems: 1 << 16, MaxTotalElems: 1 << 18}
	replay := func(rd io.Reader) (map[segKey]struct{}, error) {
		sink := detect.NewSink(false, 0)
		err := ReplayWithLimits(rd, core.New(sink, nil), nil, lim)
		return keySet(sink.Races()), err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, wholeErr := replay(bytes.NewReader(data))
		// check fails on an untyped error, and on any error at all when
		// the whole trace replays cleanly; clean says no error came.
		clean := true
		check := func(what string, err error) {
			t.Helper()
			clean = clean && err == nil
			if err != nil && !isDecodeSentinel(err) {
				t.Fatalf("untyped error from %s: %v", what, err)
			}
			if err != nil && wholeErr == nil {
				t.Fatalf("the whole trace replays cleanly, %s fails: %v", what, err)
			}
		}
		sp, err := NewSplitter(&chunkReader{r: bytes.NewReader(data), n: 5}, SplitConfig{
			MinSegmentBytes: 1,
			MaxSegmentBytes: 1 << 16,
		})
		if err != nil {
			check("the splitter's header", err)
			return
		}
		union := map[segKey]struct{}{}
		for {
			seg, err := sp.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if errors.Is(err, ErrSegmentOversize) {
				races, err := replay(sp.Unsplit())
				check("the unsplit replay", err)
				maps.Copy(union, races)
				break
			}
			if err != nil {
				check("the splitter", err)
				return
			}
			races, err := replay(bytes.NewReader(seg))
			check(fmt.Sprintf("segment %d's replay", sp.Segments()), err)
			maps.Copy(union, races)
		}
		if wholeErr == nil && !maps.Equal(union, whole) {
			t.Fatalf("race sets diverge\nunion: %v\nwhole: %v", union, whole)
		}
		if clean && wholeErr != nil {
			t.Fatalf("every segment replays cleanly, the whole trace fails: %v", wholeErr)
		}
	})
}
