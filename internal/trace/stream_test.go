package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"spd3/internal/core"
	"spd3/internal/detect"
)

func TestLimitedReaderExactBudget(t *testing.T) {
	l := NewLimitedReader(strings.NewReader("0123456789"), 10)
	data, err := io.ReadAll(l)
	if err != nil {
		t.Fatalf("stream ending exactly at the cap must read cleanly, got %v", err)
	}
	if string(data) != "0123456789" || l.Count() != 10 {
		t.Fatalf("data = %q, count = %d", data, l.Count())
	}
}

func TestLimitedReaderOverflow(t *testing.T) {
	l := NewLimitedReader(strings.NewReader("0123456789X"), 10)
	data, err := io.ReadAll(l)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if len(data) > 10 {
		t.Fatalf("read %d bytes past a 10-byte budget", len(data))
	}
	// The error is sticky: later reads keep failing the same way.
	if _, err := l.Read(make([]byte, 1)); !errors.Is(err, ErrLimit) {
		t.Fatalf("second read err = %v, want ErrLimit", err)
	}
}

func TestLimitedReaderUnlimited(t *testing.T) {
	l := NewLimitedReader(strings.NewReader("hello"), -1)
	if _, err := io.ReadAll(l); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 5 {
		t.Fatalf("count = %d, want 5", l.Count())
	}
}

// TestReplayThroughLimiter pins the satellite requirement: an oversized
// body read through the limiter fails the replay with ErrLimit — the
// 413 class — not ErrTruncated, even though from the decoder's view the
// stream just stopped.
func TestReplayThroughLimiter(t *testing.T) {
	data := synthTrace(t, 2000)
	mk := func() detect.Detector { return core.New(detect.NewSink(false, 0), nil) }

	err := Replay(NewLimitedReader(bytes.NewReader(data), int64(len(data)/2)), mk())
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("half budget: err = %v, want ErrLimit", err)
	}
	if errors.Is(err, ErrTruncated) {
		t.Fatalf("overflow misclassified as truncation: %v", err)
	}

	l := NewLimitedReader(bytes.NewReader(data), int64(len(data)))
	if err := Replay(l, mk()); err != nil {
		t.Fatalf("exact budget: %v", err)
	}
	if l.Count() != int64(len(data)) {
		t.Fatalf("count = %d, want %d", l.Count(), len(data))
	}
}

// TestCancelReaderPassThrough: with no cancellation in sight the reader
// is transparent.
func TestCancelReaderPassThrough(t *testing.T) {
	data := synthTrace(t, 500)
	cr := NewCancelReader(bytes.NewReader(data), make(chan struct{}))
	if err := Replay(cr, core.New(detect.NewSink(false, 0), nil)); err != nil {
		t.Fatal(err)
	}
}

// TestCancelReaderPreCanceled: a closed channel fails the very first
// read, before any bytes flow.
func TestCancelReaderPreCanceled(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	cr := NewCancelReader(strings.NewReader("data"), cancel)
	if _, err := cr.Read(make([]byte, 4)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// cancelAt closes cancel the moment n bytes have been read through it.
type cancelAt struct {
	r      io.Reader
	n      int
	cancel chan struct{}
}

func (c *cancelAt) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	m, err := c.r.Read(p)
	if c.n -= m; c.n == 0 && m > 0 {
		close(c.cancel)
	}
	return m, err
}

// TestStopMidEventKeepsItsCause: a limit or a cancellation that stops
// the input one byte into an access event's index varint reaches the
// caller as ErrLimit or ErrCanceled, from Replay and from the splitter
// alike — never as ErrTruncated, although the decoder's window ends
// inside an event.
func TestStopMidEventKeepsItsCause(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	mt, fin := &detect.Task{ID: 0}, &detect.Finish{ID: 0}
	mt.IEF = fin
	rec.MainTask(mt, fin)
	sh := rec.NewShadow(detect.Spec("r", 4096, 8))
	for i := 0; i < 100; i++ {
		sh.Read(mt, 3000) // a two-byte index varint
	}
	rec.FinishEnd(mt, fin)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The trace ends with the last read's index varint, then FinishEnd's
	// three bytes: cut after the varint's first byte.
	cut := len(data) - 4
	if data[cut-1] < 0x80 || data[cut-4] != evRead {
		t.Fatalf("byte %d does not continue the last read's index varint", cut-1)
	}

	split := func(rd io.Reader) error {
		sp, err := NewSplitter(rd, SplitConfig{MinSegmentBytes: 1})
		if err != nil {
			return err
		}
		for {
			if _, err := sp.Next(); err != nil {
				return err
			}
		}
	}
	for _, inner := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
	} {
		for _, path := range []struct {
			name string
			run  func(io.Reader) error
		}{
			{"replay", func(rd io.Reader) error { return Replay(rd, core.New(detect.NewSink(false, 0), nil)) }},
			{"split", split},
		} {
			err := path.run(NewLimitedReader(inner.wrap(bytes.NewReader(data)), int64(cut)))
			if !errors.Is(err, ErrLimit) || errors.Is(err, ErrTruncated) {
				t.Errorf("%s, %s, limited: err = %v, want ErrLimit only", inner.name, path.name, err)
			}
			cancel := make(chan struct{})
			err = path.run(NewCancelReader(&cancelAt{r: inner.wrap(bytes.NewReader(data)), n: cut, cancel: cancel}, cancel))
			if !errors.Is(err, ErrCanceled) || errors.Is(err, ErrTruncated) {
				t.Errorf("%s, %s, canceled: err = %v, want ErrCanceled only", inner.name, path.name, err)
			}
		}
	}
}
