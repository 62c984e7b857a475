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

// scopedTrace hand-drives the recorder through a kernel-shaped run: one
// region, and scopes top-level finishes of a few thousand accesses each
// (their lengths differ, so neighbouring segments do too).
func scopedTrace(tb testing.TB, scopes int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	mt, fin := &detect.Task{ID: 0}, &detect.Finish{ID: 0}
	mt.IEF = fin
	rec.MainTask(mt, fin)
	sh := rec.NewShadow(detect.Spec("grid", 4096, 8))
	for f := 1; f <= scopes; f++ {
		scope := &detect.Finish{ID: int64(f)}
		rec.FinishStart(mt, scope)
		for i := 0; i < 2000+f%7*300; i++ {
			sh.Read(mt, i%4096)
			sh.Write(mt, (i+f)%4096)
		}
		rec.FinishEnd(mt, scope)
	}
	rec.TaskEnd(mt)
	if err := rec.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// drainSplitter cuts data into segments and returns how many it got.
func drainSplitter(tb testing.TB, data []byte, cfg SplitConfig) int {
	sp, err := NewSplitter(bytes.NewReader(data), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for {
		if _, err := sp.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return sp.Segments()
			}
			tb.Fatal(err)
		}
	}
}

// daemonSplit is spd3d's default segment sizing.
var daemonSplit = SplitConfig{MinSegmentBytes: 256 << 10, MaxSegmentBytes: 32 << 20}

// BenchmarkSplitter measures the cost of cutting a trace into segments
// — scan and verbatim copy, no detector work — at a cut per finish
// scope and at the daemon's 256 KiB segments.
func BenchmarkSplitter(b *testing.B) {
	for _, bc := range []struct {
		name string
		data []byte
		cfg  SplitConfig
	}{
		{"min1", benchTrace(b, 16), SplitConfig{MinSegmentBytes: 1}},
		{"256KiB", scopedTrace(b, 200), daemonSplit},
	} {
		b.Run(bc.name, func(b *testing.B) {
			data := bc.data
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainSplitter(b, data, bc.cfg)
			}
		})
	}
}

// BenchmarkDecode times the decoder alone over the daemon-shaped trace
// BenchmarkSplitter/256KiB cuts: the "decode" stage, no detector work.
func BenchmarkDecode(b *testing.B) {
	data := scopedTrace(b, 200)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := newDecoder(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		var ev event
		for {
			err := dec.next(&ev)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
