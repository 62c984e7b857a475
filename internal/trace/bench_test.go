package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"spd3/internal/core"
	"spd3/internal/detect"
	"spd3/internal/progen"
	"spd3/internal/task"
)

// benchTrace records one generated program and amplifies it to a size
// where per-event costs dominate setup.
func benchTrace(b *testing.B, copies int) []byte {
	b.Helper()
	p := progen.Generate(7, progen.Config{MaxStmts: 200, Locks: 1})
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	rt, err := task.New(task.Config{Executor: task.Sequential, Detector: rec})
	if err != nil {
		b.Fatal(err)
	}
	if err := progen.Run(rt, p, nil); err != nil {
		b.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
	data, err := AmplifyBytes(buf.Bytes(), copies)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkReplayStreaming is the new analyze path: events decode
// straight off the reader into the detector with no intermediate copy
// of the trace.
func BenchmarkReplayStreaming(b *testing.B) {
	data := benchTrace(b, 16)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := detect.NewSink(false, 0)
		if err := Replay(bytes.NewReader(data), core.New(sink, nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayBuffered is the pre-streaming server shape: materialize
// the whole body first (the io.ReadAll the old handler paid), then
// replay from the copy.
func BenchmarkReplayBuffered(b *testing.B) {
	data := benchTrace(b, 16)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, err := io.ReadAll(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		sink := detect.NewSink(false, 0)
		if err := Replay(bytes.NewReader(all), core.New(sink, nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitter measures the cost of cutting a trace into segments
// — pure decode + re-encode, no detector work.
func BenchmarkSplitter(b *testing.B) {
	data := benchTrace(b, 16)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := NewSplitter(bytes.NewReader(data), SplitConfig{MinSegmentBytes: 1})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := sp.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				b.Fatal(err)
			}
		}
	}
}
