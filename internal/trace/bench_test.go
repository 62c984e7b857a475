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
// of the trace. "progen" is a generated program amplified ×16;
// "amplified" is the event shape spd3d receives (gatherTrace).
func BenchmarkReplayStreaming(b *testing.B) {
	for _, bc := range []struct {
		name string
		data []byte
	}{
		{"progen", benchTrace(b, 16)},
		{"amplified", gatherTrace(b, 16)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			data := bc.data
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink := detect.NewSink(false, 0)
				if err := Replay(bytes.NewReader(data), core.New(sink, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gatherTrace hand-drives the recorder through a gather-shaped run and
// amplifies it copies times: per top-level finish, one task per row
// reads eight scattered elements of x and writes its row of y. Task ids
// start past 1<<13, where a runtime with thousands of spawns behind it
// is, and the amplifier shifts them further per copy, so nearly every
// event is an access of a 1-byte region, a 3-byte task and a 2-byte
// index: the shape of spd3d's uploads.
func gatherTrace(tb testing.TB, copies int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	mt, fin := &detect.Task{ID: 0}, &detect.Finish{ID: 0}
	mt.IEF = fin
	rec.MainTask(mt, fin)
	x := rec.NewShadow(detect.Spec("x", 4096, 8))
	y := rec.NewShadow(detect.Spec("y", 256, 8))
	id := detect.TaskID(1 << 13)
	for f := int64(1); f <= 4; f++ {
		scope := &detect.Finish{ID: f}
		rec.FinishStart(mt, scope)
		for row := 0; row < 256; row++ {
			child := &detect.Task{ID: id, IEF: scope}
			id++
			rec.BeforeSpawn(mt, child)
			for k := 0; k < 8; k++ {
				x.Read(child, (row*577+k*1031+int(f)*97)%4096)
			}
			y.Write(child, row)
			rec.TaskEnd(child)
		}
		rec.FinishEnd(mt, scope)
	}
	rec.FinishEnd(mt, fin)
	if err := rec.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := AmplifyBytes(buf.Bytes(), copies)
	if err != nil {
		tb.Fatal(err)
	}
	return data
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
	rec.FinishEnd(mt, fin)
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

// BenchmarkDecode times the decoder alone: the "decode" stage, no
// detector work. "scoped" is the daemon-shaped trace
// BenchmarkSplitter/256KiB cuts, read event by event through dec.next;
// "amplified" replays gatherTrace into a detector that ignores every
// event, the window loop replay and the benchmark's decode stage run.
func BenchmarkDecode(b *testing.B) {
	b.Run("scoped", func(b *testing.B) {
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
	})
	b.Run("amplified", func(b *testing.B) {
		data := gatherTrace(b, 16)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := Replay(bytes.NewReader(data), &countingDetector{trigger: -1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
