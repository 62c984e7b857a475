package trace

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

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

// TestCancelReaderBlockedRead proves the 100ms-slice mechanism: a read
// blocked on a stream that never produces bytes observes cancellation
// instead of hanging until the peer gives up.
func TestCancelReaderBlockedRead(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	cancel := make(chan struct{})
	cr := NewCancelReader(server, cancel, server.SetReadDeadline)

	time.AfterFunc(50*time.Millisecond, func() { close(cancel) })
	done := make(chan error, 1)
	go func() {
		_, err := cr.Read(make([]byte, 16))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked read did not observe cancellation")
	}
}

// TestCancelReaderMidReplay wires the full chain the server uses: a
// trace arrives partially over a pipe, the upload stalls, the request is
// canceled, and the replay returns ErrCanceled (not ErrTruncated).
func TestCancelReaderMidReplay(t *testing.T) {
	data := synthTrace(t, 8*cancelCheckEvery)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	go func() {
		client.Write(data[:len(data)/2]) //nolint:errcheck
		// ...and then the upload stalls forever.
	}()

	cancel := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(cancel) })
	lim := DefaultLimits()
	lim.Cancel = cancel
	cr := NewCancelReader(server, cancel, server.SetReadDeadline)
	err := ReplayWithLimits(cr, core.New(detect.NewSink(false, 0), nil), nil, lim)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestCancelReaderPassThrough: with no cancellation in sight the reader
// is transparent.
func TestCancelReaderPassThrough(t *testing.T) {
	data := synthTrace(t, 500)
	cr := NewCancelReader(bytes.NewReader(data), make(chan struct{}), nil)
	if err := Replay(cr, core.New(detect.NewSink(false, 0), nil)); err != nil {
		t.Fatal(err)
	}
}

// TestCancelReaderPreCanceled: a closed channel fails the very first
// read, before any bytes flow.
func TestCancelReaderPreCanceled(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	cr := NewCancelReader(strings.NewReader("data"), cancel, nil)
	if _, err := cr.Read(make([]byte, 4)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
