package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"spd3/internal/detect"
	"spd3/internal/progen"
	"spd3/internal/task"
)

// TestOwnedReplaysConcurrently is spd3d's shape: an amplified trace is
// split and its segments replay at once, each on a goroutine of its own
// into an owned SPD3 of its own, whose publishes are plain stores. Under
// -race that shows no two of them share a word; and the union of their
// races is the whole trace's.
func TestOwnedReplaysConcurrently(t *testing.T) {
	var racy []byte
	for seed := int64(0); racy == nil; seed++ {
		base := record(t, progen.Generate(seed, progen.Config{Locks: 1}), task.Sequential, 1)
		if analyzeReader(bytes.NewReader(base)).racy {
			var err error
			if racy, err = AmplifyBytes(base, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
		racy bool
	}{{"gather", gatherTrace(t, 8), false}, {"racy progen", racy, true}} {
		whole := analyzeReader(bytes.NewReader(tc.data))
		if whole.err != nil {
			t.Fatal(whole.err)
		}
		if whole.racy != tc.racy {
			t.Fatalf("%s: whole-trace racy = %v", tc.name, whole.racy)
		}
		sp, err := NewSplitter(bytes.NewReader(tc.data), SplitConfig{MinSegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		var segs [][]byte
		for {
			seg, err := sp.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
		}
		if len(segs) < 4 {
			t.Fatalf("%s: %d segments; the test needs several to run at once", tc.name, len(segs))
		}
		races := make([][]detect.Race, len(segs))
		errs := make([]error, len(segs))
		var wg sync.WaitGroup
		for i, seg := range segs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ses, err := detect.Open("spd3", detect.SessionOpts{Owned: true})
				if err != nil {
					errs[i] = err
					return
				}
				if errs[i] = ReplayWithLimits(bytes.NewReader(seg), ses.Det, ses.Rec, DefaultLimits()); !detect.Owned(ses.Det) {
					errs[i] = fmt.Errorf("opened owned, the detector says shared")
				}
				races[i] = ses.Sink.Races()
			}()
		}
		wg.Wait()
		union := map[segKey]struct{}{}
		for i := range segs {
			if errs[i] != nil {
				t.Fatalf("%s: segment %d: %v", tc.name, i, errs[i])
			}
			for k := range keySet(races[i]) {
				union[k] = struct{}{}
			}
		}
		if !reflect.DeepEqual(union, keySet(whole.races)) {
			t.Fatalf("%s: the segments' races are not the whole trace's\nunion: %v\nwhole: %v", tc.name, union, keySet(whole.races))
		}
	}
}
