package trace

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/espbags"
	"spd3/internal/progen"
	"spd3/internal/task"
)

// synthTrace hand-drives the Recorder (it is just a detect.Detector) to
// produce a sequential trace with exactly accesses read events, without
// needing a runtime. Deterministic event counts let the cancellation
// tests reason about the poll interval.
func synthTrace(t *testing.T, accesses int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	mt := &detect.Task{ID: 0}
	fin := &detect.Finish{ID: 0}
	mt.IEF = fin
	rec.MainTask(mt, fin)
	sh := rec.NewShadow(detect.Spec("synth", 8, 8))
	for i := 0; i < accesses; i++ {
		sh.Read(mt, i%8)
	}
	rec.TaskEnd(mt)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTypedErrors pins the sentinel classification of every decode
// failure mode: the spd3d daemon maps these to HTTP status codes with
// errors.Is, so each class must be reachable and distinguishable.
func TestTypedErrors(t *testing.T) {
	mk := func() detect.Detector { return core.New(detect.NewSink(false, 0), nil) }
	seq := record(t, progen.Generate(1, progen.Config{}), task.Sequential, 1)
	par := record(t, progen.Generate(1, progen.Config{}), task.Pool, 4)
	// nest replays a hand-assembled sequential trace that opens with
	// main task 0 under implicit finish 0; an event is {kind, args...}.
	type e = []int64
	nest := func(evs ...e) error {
		b := appendEvent(append([]byte(magic), 1), evMainTask, 0, 0)
		for _, e := range evs {
			b = appendEvent(b, byte(e[0]), e[1:]...)
		}
		return Replay(bytes.NewReader(b), mk())
	}
	const (
		spawn  = int64(evSpawn)
		tend   = int64(evTaskEnd)
		fstart = int64(evFinishStart)
		fend   = int64(evFinishEnd)
	)
	// readIndex replays main task 0, an 8-element region and one evRead
	// whose index varint is the raw bytes idx.
	readIndex := func(idx ...byte) error {
		b := appendEvent(append([]byte(magic), 1), evMainTask, 0, 0)
		b = appendDecl(b, 0, regionDecl{elems: 8, elemBytes: 8, name: "r"})
		b = append(appendEvent(b, evRead, 0, 0), idx...)
		return Replay(bytes.NewReader(b), mk())
	}

	cases := []struct {
		name string
		err  error
		want error // nil: the replay must succeed
	}{
		{"empty input", Replay(bytes.NewReader(nil), mk()), ErrBadMagic},
		{"wrong magic", Replay(bytes.NewReader([]byte("NOTATRACE")), mk()), ErrBadMagic},
		{"short header", Replay(bytes.NewReader([]byte("SPD3")), mk()), ErrBadMagic},
		{"missing executor byte", Replay(bytes.NewReader([]byte(magic)), mk()), ErrTruncated},
		{"truncated mid-event", Replay(bytes.NewReader(seq[:len(seq)-1]), mk()), ErrTruncated},
		{"garbage event kind", Replay(bytes.NewReader(append([]byte(magic), 1, 0xEE)), mk()), ErrMalformed},
		{"minimal index varint", readIndex(0x02), nil},
		{"truncated index varint", readIndex(0x80), ErrTruncated},
		{"non-minimal index varint", readIndex(0x80, 0x00), ErrMalformed},
		{"index varint overflowing 64 bits", readIndex(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01), ErrMalformed},
		{"sequential-only on parallel trace", Replay(bytes.NewReader(par), espbags.New(detect.NewSink(false, 0), nil)), ErrSequentialOnly},
		// The nesting rules of the driver contract (package detect).
		{"FinishEnd out of LIFO order", nest(e{fstart, 0, 1}, e{fstart, 0, 2}, e{fend, 0, 1}), ErrMalformed},
		{"FinishEnd of another task's finish", nest(e{spawn, 0, 1, 0}, e{fstart, 1, 1}, e{fend, 0, 1}), ErrMalformed},
		{"child ends its own IEF", nest(e{fstart, 0, 1}, e{spawn, 0, 1, 1}, e{fend, 1, 1}), ErrMalformed},
		{"spawn into a non-innermost finish", nest(e{fstart, 0, 1}, e{spawn, 0, 1, 0}), ErrMalformed},
		{"FinishEnd twice", nest(e{fend, 0, 0}, e{fend, 0, 0}), ErrMalformed},
		{"main acts after ending its implicit finish", nest(e{fend, 0, 0}, e{fstart, 0, 1}), ErrMalformed},
		{"spawn of a live task id", nest(e{spawn, 0, 0, 0}), ErrMalformed},
		{"TaskEnd with a finish open (a body that panicked inside it)", nest(e{spawn, 0, 1, 0}, e{fstart, 1, 1},
			e{spawn, 1, 2, 1}, e{tend, 2}, e{tend, 1}, e{fend, 0, 0}), nil},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: err = %v, want errors.Is(err, %v)", c.name, c.err, c.want)
		}
	}

	// A trace whose declared region exceeds the limits is ErrLimit, not a
	// generic decode failure.
	lim := Limits{MaxRegionElems: 2, MaxTotalElems: 2}
	if err := ReplayWithLimits(bytes.NewReader(seq), mk(), nil, lim); !errors.Is(err, ErrLimit) {
		t.Errorf("tiny limits: err = %v, want ErrLimit", err)
	}
}

// TestPeekHeader pins the non-consuming header probe the job store uses
// before spilling an unsplittable trace to disk: classification must
// match newDecoder exactly, and the reader must be left untouched so the
// subsequent full replay still sees the magic.
func TestPeekHeader(t *testing.T) {
	seq := record(t, progen.Generate(1, progen.Config{}), task.Sequential, 1)
	par := record(t, progen.Generate(1, progen.Config{}), task.Pool, 4)

	cases := []struct {
		name    string
		data    []byte
		wantSeq bool
		wantErr error
	}{
		{"sequential trace", seq, true, nil},
		{"parallel trace", par, false, nil},
		{"empty input", nil, false, ErrBadMagic},
		{"wrong magic", []byte("NOTATRACE"), false, ErrBadMagic},
		{"short header", []byte("SPD3"), false, ErrBadMagic},
		{"missing executor byte", []byte(magic), false, ErrTruncated},
	}
	for _, c := range cases {
		br := bufio.NewReader(bytes.NewReader(c.data))
		gotSeq, err := PeekHeader(br)
		if c.wantErr != nil {
			if !errors.Is(err, c.wantErr) {
				t.Errorf("%s: err = %v, want errors.Is(err, %v)", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: err = %v", c.name, err)
			continue
		}
		if gotSeq != c.wantSeq {
			t.Errorf("%s: sequential = %v, want %v", c.name, gotSeq, c.wantSeq)
		}
		// The peek must not consume: a full replay still works.
		mk := core.New(detect.NewSink(false, 0), nil)
		if rerr := Replay(br, mk); rerr != nil {
			t.Errorf("%s: replay after peek: %v", c.name, rerr)
		}
	}
}

// countingDetector forwards nothing and counts delivered access events,
// closing cancel after the trigger count.
type countingDetector struct {
	detect.Nop
	events  int
	trigger int
	cancel  chan struct{}
}

func (d *countingDetector) NewShadow(detect.ShadowSpec) detect.Shadow { return (*countingShadow)(d) }

type countingShadow countingDetector

func (s *countingShadow) bump() {
	s.events++
	if s.events == s.trigger {
		close(s.cancel)
	}
}
func (s *countingShadow) Read(*detect.Task, int)  { s.bump() }
func (s *countingShadow) Write(*detect.Task, int) { s.bump() }

// TestReplayCancelMidStream proves cancellation actually stops a running
// replay: the detector closes Limits.Cancel after 10 events, and replay
// must return ErrCanceled within one poll interval instead of consuming
// the remaining tens of thousands of events.
func TestReplayCancelMidStream(t *testing.T) {
	total := 10 * cancelCheckEvery
	data := synthTrace(t, total)
	det := &countingDetector{trigger: 10, cancel: make(chan struct{})}
	lim := DefaultLimits()
	lim.Cancel = det.cancel
	err := ReplayWithLimits(bytes.NewReader(data), det, nil, lim)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if det.events >= total {
		t.Fatalf("replay consumed all %d events despite cancellation", total)
	}
	if det.events > det.trigger+cancelCheckEvery {
		t.Fatalf("replay ran %d events past the cancellation trigger (poll interval %d)",
			det.events-det.trigger, cancelCheckEvery)
	}
}

// TestReplayCancelBeforeStart: an already-closed Cancel aborts before the
// first event reaches the detector.
func TestReplayCancelBeforeStart(t *testing.T) {
	data := synthTrace(t, 100)
	det := &countingDetector{trigger: -1, cancel: make(chan struct{})}
	close(det.cancel)
	lim := DefaultLimits()
	lim.Cancel = det.cancel
	if err := ReplayWithLimits(bytes.NewReader(data), det, nil, lim); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if det.events != 0 {
		t.Fatalf("detector saw %d events before the pre-canceled replay aborted", det.events)
	}
}

// TestReplayNilCancel: the zero Limits (and DefaultLimits) replay to
// completion with no cancellation channel allocated.
func TestReplayNilCancel(t *testing.T) {
	data := synthTrace(t, 2*cancelCheckEvery)
	det := &countingDetector{trigger: -1, cancel: nil}
	if err := Replay(bytes.NewReader(data), det); err != nil {
		t.Fatal(err)
	}
	if det.events != 2*cancelCheckEvery {
		t.Fatalf("events = %d, want %d", det.events, 2*cancelCheckEvery)
	}
}
