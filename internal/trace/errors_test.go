package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
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
	rec.FinishEnd(mt, fin)
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
		main   = int64(evMainTask)
		acq    = int64(evAcquire)
		rel    = int64(evRelease)
	)
	// readIndex replays main task 0, an 8-element region and one evRead
	// whose index varint is the raw bytes idx.
	readIndex := func(idx ...byte) error {
		b := appendEvent(append([]byte(magic), 1), evMainTask, 0, 0)
		b = appendDecl(b, 0, regionDecl{elems: 8, elemBytes: 8, name: "r"})
		b = append(appendEvent(b, evRead, 0, 0), idx...)
		return Replay(bytes.NewReader(b), mk())
	}

	// update replays main task 0, an 8-element region and one evUpdate
	// with args region, task and the raw bytes idx.
	update := func(region, task int64, idx ...byte) error {
		b := appendEvent(append([]byte(magic), 1), evMainTask, 0, 0)
		b = appendDecl(b, 0, regionDecl{elems: 8, elemBytes: 8, name: "r"})
		b = append(appendEvent(b, evUpdate, region, task), idx...)
		return Replay(bytes.NewReader(b), mk())
	}

	// hand assembles, under executor byte exec, nest's opening, an
	// 8-element region 0 and evs, where {rd, task} is a read of element 0
	// by task; accesses replays it, depth-first, into det.
	const rd = int64(evRead)
	hand := func(exec byte, evs ...e) []byte {
		b := appendEvent(append([]byte(magic), exec), evMainTask, 0, 0)
		b = appendDecl(b, 0, regionDecl{elems: 8, elemBytes: 8, name: "r"})
		for _, ev := range evs {
			if ev[0] == rd {
				ev = e{rd, 0, ev[1], 0}
			}
			b = appendEvent(b, byte(ev[0]), ev[1:]...)
		}
		return b
	}
	accesses := func(det detect.Detector, evs ...e) error {
		return ReplayWithLimits(bytes.NewReader(hand(1, evs...)), det, nil, DefaultLimits())
	}
	// unjoined ends finish 1 while task 1, registered in it, is live;
	// main and task 1 then write element 0. Detectors that trusted the
	// join rule would disagree on it: SPD3 and ESP-bags see no race,
	// FastTrack and Eraser one.
	wr := int64(evWrite)
	unjoined := []e{{fstart, 0, 1}, {spawn, 0, 1, 1}, {fend, 0, 1},
		{wr, 0, 0, 0}, {wr, 0, 1, 0}, {tend, 1}, {fend, 0, 0}}
	// interleaved leaves depth-first order: main writes element 0 while
	// its child runs, and the child then writes it. ESP-bags, sound on
	// depth-first order only, would see no race there and the rest one.
	interleaved := []e{{spawn, 0, 1, 0}, {wr, 0, 0, 0}, {wr, 0, 1, 0}, {tend, 1}, {fend, 0, 0}}
	// twoHolders has task 1 and its child, parallel to it, hold lock 1 at
	// once.
	twoHolders := []e{{spawn, 0, 1, 0}, {acq, 1, 1}, {spawn, 1, 2, 0}, {acq, 2, 1},
		{rel, 2, 1}, {tend, 2}, {rel, 1, 1}, {tend, 1}, {fend, 0, 0}}
	// Replay remembers the task of the last access; these are the ways a
	// remembered task can leave the table.
	endedTask := accesses(mk(), e{spawn, 0, 1, 0}, e{rd, 1}, e{tend, 1}, e{rd, 1})
	endedMain := accesses(mk(), e{rd, 0}, e{fend, 0, 0}, e{rd, 0})
	// reused replays evs, each read by the task started last, and fails
	// unless every read reaches the detector with that task.
	reused := func(evs ...e) error {
		log := &taskLog{}
		if err := accesses(log, evs...); err != nil {
			return err
		}
		if log.stale > 0 {
			return fmt.Errorf("%d reads arrived with a task that had left the table", log.stale)
		}
		return nil
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
		{"update", update(0, 0, 0x0e), nil},
		{"update of an unknown region", update(1, 0, 0x00), ErrMalformed},
		{"update by an unknown task", update(0, 1, 0x00), ErrMalformed},
		{"update past the region's bound", update(0, 0, 0x10), ErrMalformed},
		{"truncated update index varint", update(0, 0, 0x80), ErrTruncated},
		{"sequential-only on parallel trace", Replay(bytes.NewReader(par), espbags.New(detect.NewSink(false, 0), nil)), ErrSequentialOnly},
		// The nesting rules of the driver contract (package detect).
		{"FinishEnd out of LIFO order", nest(e{fstart, 0, 1}, e{fstart, 0, 2}, e{fend, 0, 1}), ErrMalformed},
		{"FinishEnd of another task's finish", nest(e{spawn, 0, 1, 0}, e{fstart, 1, 1}, e{fend, 0, 1}), ErrMalformed},
		{"child ends its own IEF", nest(e{fstart, 0, 1}, e{spawn, 0, 1, 1}, e{fend, 1, 1}), ErrMalformed},
		{"spawn into a non-innermost finish", nest(e{fstart, 0, 1}, e{spawn, 0, 1, 0}), ErrMalformed},
		{"FinishEnd twice", nest(e{fend, 0, 0}, e{fend, 0, 0}), ErrMalformed},
		{"main acts after ending its implicit finish", nest(e{fend, 0, 0}, e{fstart, 0, 1}), ErrMalformed},
		{"spawn of a live task id", nest(e{spawn, 0, 0, 0}), ErrMalformed},
		{"TaskEnd with a finish open", nest(e{spawn, 0, 1, 0}, e{fstart, 1, 1},
			e{spawn, 1, 2, 1}, e{tend, 2}, e{tend, 1}, e{fend, 0, 0}), ErrMalformed},
		{"main's TaskEnd over its implicit finish", nest(e{tend, 0}), ErrMalformed},
		// The join rule: a finish ends after every task registered in it.
		{"FinishEnd before its task's TaskEnd", accesses(mk(), unjoined...), ErrMalformed},
		{"main ends its implicit finish before its task's TaskEnd", nest(e{spawn, 0, 1, 0}, e{fend, 0, 0}, e{tend, 1}), ErrMalformed},
		// A run follows the run before it: only that run's main task may
		// be live, and it leaves the table.
		{"run starts while a task of the run before is live", nest(e{spawn, 0, 1, 0}, e{main, 2, 2}), ErrMalformed},
		{"main of the run before acts in the next", nest(e{main, 2, 2}, e{fstart, 0, 1}), ErrMalformed},
		{"access by a task that has ended", endedTask, ErrMalformed},
		{"access by main after it ends its implicit finish", endedMain, ErrMalformed},
		{"access after a spawn reuses an ended task's id", reused(e{spawn, 0, 1, 0}, e{rd, 1}, e{tend, 1}, e{spawn, 0, 1, 0}, e{rd, 1}), nil},
		{"access after a second main task takes a live main's id", reused(e{rd, 0}, e{main, 0, 1}, e{rd, 0}), nil},
		// A depth-first trace: only the task spawned last and not ended
		// acts, whatever the event.
		{"main reads again while its child runs", accesses(mk(), e{rd, 0}, e{spawn, 0, 1, 0}, e{rd, 0}), ErrMalformed},
		{"main spawns while its child runs", nest(e{spawn, 0, 1, 0}, e{spawn, 0, 2, 0}), ErrMalformed},
		{"main starts a finish while its child runs", nest(e{spawn, 0, 1, 0}, e{fstart, 0, 1}), ErrMalformed},
		{"a task ends while its child runs", nest(e{spawn, 0, 1, 0}, e{spawn, 1, 2, 0}, e{tend, 1}), ErrMalformed},
		{"main locks while its child runs", nest(e{spawn, 0, 1, 0}, e{acq, 0, 1}), ErrMalformed},
		{"a parallel trace interleaves", Replay(bytes.NewReader(hand(0, interleaved...)), mk()), nil},
		// Locks: one holder at a time, released by it, before it ends.
		{"release of a free lock", nest(e{rel, 0, 1}), ErrMalformed},
		{"release of main's lock by its child", nest(e{acq, 0, 1}, e{spawn, 0, 1, 0}, e{rel, 1, 1}), ErrMalformed},
		{"acquire of a lock main holds", nest(e{acq, 0, 1}, e{acq, 0, 1}), ErrMalformed},
		{"TaskEnd holding a lock", nest(e{spawn, 0, 1, 0}, e{acq, 1, 1}, e{tend, 1}), ErrMalformed},
		{"main ends its implicit finish holding a lock", nest(e{acq, 0, 1}, e{fend, 0, 0}), ErrMalformed},
		{"a lock passed from task to task", nest(e{acq, 0, 1}, e{rel, 0, 1}, e{spawn, 0, 1, 0}, e{acq, 1, 1},
			e{rel, 1, 1}, e{tend, 1}, e{acq, 0, 1}, e{rel, 0, 1}, e{fend, 0, 0}), nil},
		{"a run takes a lock the main of the run before held", nest(e{acq, 0, 1}, e{main, 1, 1}, e{acq, 1, 1}), nil},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: err = %v, want errors.Is(err, %v)", c.name, c.err, c.want)
		}
	}
	for _, name := range detect.Names() {
		det, err := detect.New(name, detect.FactoryOpts{Sink: detect.NewSink(false, 0)})
		if err != nil {
			t.Fatal(err)
		}
		for _, probe := range []struct {
			evs  []e
			rule string
		}{{unjoined, "of its tasks live"}, {interleaved, "acts while task 1 runs"}, {twoHolders, "which task 1 holds"}} {
			if err := accesses(det, probe.evs...); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), probe.rule) {
				t.Errorf("%s: err = %v, want ErrMalformed %q", name, err, probe.rule)
			}
		}
	}
	for _, err := range []error{endedTask, endedMain} {
		if err == nil || !strings.Contains(err.Error(), "access by unknown task") {
			t.Errorf("err = %v, want an access by unknown task", err)
		}
	}

	// A trace whose declared region exceeds the limits is ErrLimit, not a
	// generic decode failure.
	lim := Limits{MaxRegionElems: 2, MaxTotalElems: 2}
	if err := ReplayWithLimits(bytes.NewReader(seq), mk(), nil, lim); !errors.Is(err, ErrLimit) {
		t.Errorf("tiny limits: err = %v, want ErrLimit", err)
	}
}

// TestScanMatchesVarint holds scan's varint decoding to binary.Varint at
// every 7-bit width boundary, from 1 to 10 bytes, in each argument
// position, and pins what it refuses: a 2- or 3-byte encoding padded
// with a 0x00 group is malformed, and a 3-byte varint cut after two
// bytes reads on, which at the end of a trace is a truncation.
func TestScanMatchesVarint(t *testing.T) {
	var vals []int64
	for w := 1; w <= 10; w++ {
		// The first and last zigzag values that encode in w bytes.
		lo, hi := uint64(1)<<(7*(w-1)), uint64(1)<<(7*w)-1
		if w == 1 {
			lo = 0
		}
		if w == 10 {
			hi = ^uint64(0)
		}
		for _, u := range []uint64{lo, hi} {
			v := int64(u>>1) ^ -int64(u&1)
			if got := len(binary.AppendVarint(nil, v)); got != w {
				t.Fatalf("%d encodes in %d bytes, want %d", v, got, w)
			}
			vals = append(vals, v)
		}
	}
	for _, v := range vals {
		for pos := range 3 {
			args := []int64{5, -7, 300}
			args[pos] = v
			p := appendEvent(nil, evRead, args...)
			var ev event
			n, err := scan(p, &ev)
			if err != nil || n != len(p) {
				t.Fatalf("%d in position %d: n = %d, err = %v; want %d, nil", v, pos, n, err, len(p))
			}
			enc := binary.AppendVarint(nil, v)
			if want, _ := binary.Varint(enc); ev.args[pos] != want {
				t.Errorf("%d in position %d: scan gives %d, binary.Varint %d", v, pos, ev.args[pos], want)
			}
		}
	}
	for _, pad := range [][]byte{{0x80, 0x00}, {0x80, 0x80, 0x00}} {
		for pos := range 3 {
			p := []byte{evRead}
			for i := range 3 {
				if i == pos {
					p = append(p, pad...)
				} else {
					p = append(p, 0x02)
				}
			}
			var ev event
			if _, err := scan(p, &ev); !errors.Is(err, ErrMalformed) {
				t.Errorf("padded %x in position %d: err = %v, want ErrMalformed", pad, pos, err)
			}
		}
	}
	cut := []byte{evRead, 0x00, 0x00, 0x80, 0x80}
	var ev event
	if _, err := scan(cut, &ev); err != errShort {
		t.Errorf("3-byte index cut after two bytes: err = %v, want errShort", err)
	}
	b := appendEvent(append([]byte(magic), 1), evMainTask, 0, 0)
	b = appendDecl(b, 0, regionDecl{elems: 8, elemBytes: 8, name: "r"})
	if err := Replay(bytes.NewReader(append(b, cut...)), core.New(detect.NewSink(false, 0), nil)); !errors.Is(err, ErrTruncated) {
		t.Errorf("trace ending in a 3-byte index cut after two bytes: err = %v, want ErrTruncated", err)
	}
}

// TestReplayAllocsPerAccess: an access allocates nothing in replay, so a
// trace with twice the accesses allocates no more.
func TestReplayAllocsPerAccess(t *testing.T) {
	allocs := func(accesses int) float64 {
		data := synthTrace(t, accesses)
		return testing.AllocsPerRun(5, func() {
			if err := Replay(bytes.NewReader(data), core.New(detect.NewSink(false, 0), nil)); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 4 * cancelCheckEvery
	if a1, a2 := allocs(n), allocs(2*n); a2 > a1 {
		t.Errorf("replaying %d accesses allocates %.0f times, %d accesses %.0f", n, a1, 2*n, a2)
	}
}

// spawnTrace records a main task that spawns n tasks in turn, each reading
// one element and ending before the next is spawned: a race-free trace
// whose only per-task work is the spawn and the end.
func spawnTrace(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf, true)
	mt, fin := &detect.Task{ID: 0}, &detect.Finish{ID: 0}
	mt.IEF = fin
	rec.MainTask(mt, fin)
	sh := rec.NewShadow(detect.Spec("spawned", 8, 8))
	for i := 1; i <= n; i++ {
		child := &detect.Task{ID: detect.TaskID(i), IEF: fin}
		rec.BeforeSpawn(mt, child)
		sh.Read(child, i%8)
		rec.TaskEnd(child)
	}
	rec.FinishEnd(mt, fin)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayAllocsPerTask: replay reuses the records of ended tasks, so a
// trace with twice the spawn/end pairs allocates no more, into a shared
// and into an owned SPD3. The DPST nodes of both traces fit in its first
// chunk.
func TestReplayAllocsPerTask(t *testing.T) {
	for _, owned := range []bool{false, true} {
		allocs := func(tasks int) float64 {
			data := spawnTrace(t, tasks)
			return testing.AllocsPerRun(5, func() {
				ses, err := detect.Open("spd3", detect.SessionOpts{Owned: owned})
				if err != nil {
					t.Fatal(err)
				}
				if err := ReplayWithLimits(bytes.NewReader(data), ses.Det, ses.Rec, DefaultLimits()); err != nil {
					t.Fatal(err)
				}
			})
		}
		const n = 512
		if a1, a2 := allocs(n), allocs(2*n); a2 > a1 {
			t.Errorf("owned=%v: replaying %d spawn/end pairs allocates %.0f times, %d pairs %.0f", owned, n, a1, 2*n, a2)
		}
	}
}

// taskLog counts the reads that do not arrive with the task a replay
// started last.
type taskLog struct {
	detect.Nop
	last  *detect.Task
	stale int
}

func (l *taskLog) MainTask(t *detect.Task, _ *detect.Finish) { l.last = t }
func (l *taskLog) BeforeSpawn(_, child *detect.Task)         { l.last = child }
func (l *taskLog) NewShadow(detect.ShadowSpec) detect.Shadow { return (*taskLogShadow)(l) }

type taskLogShadow taskLog

func (s *taskLogShadow) Read(t *detect.Task, _ int) {
	if t != s.last {
		s.stale++
	}
}
func (s *taskLogShadow) Write(*detect.Task, int) {}

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

// TestReplayNilCancel: DefaultLimits carry no cancellation channel, and a
// replay under them runs to completion. (The zero Limits would refuse the
// trace's region, so they are not a stand-in.)
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
