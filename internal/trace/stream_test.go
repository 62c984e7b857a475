package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

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
