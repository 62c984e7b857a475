package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"spd3/internal/detect"
	"spd3/internal/stats"
)

// Limits bounds the resources a replayed trace may make the target
// detector allocate. A trace declares its shadow regions up front, so a
// hostile 30-byte file could otherwise demand gigabytes of shadow words.
type Limits struct {
	// MaxRegionElems caps one region's element count.
	MaxRegionElems int64
	// MaxTotalElems caps the sum over all regions.
	MaxTotalElems int64
	// Cancel, when non-nil, aborts the replay with ErrCanceled once the
	// channel is closed. The check runs every cancelCheckEvery events,
	// so a long replay stops within microseconds of cancellation while
	// the common case pays one counter decrement per event. Wire a
	// request context in with ctx.Done().
	Cancel <-chan struct{}
}

// DefaultLimits allows regions up to 64M elements and 128M elements in
// total — comfortably above the full-scale benchmark suite.
func DefaultLimits() Limits {
	return Limits{MaxRegionElems: 1 << 26, MaxTotalElems: 1 << 27}
}

// Replay feeds a recorded trace into det with DefaultLimits and no stats
// recorder (the check path's tallies are discarded) and returns an error
// on a malformed trace or an illegal pairing (sequential-only detector on
// a parallel trace).
func Replay(rd io.Reader, det detect.Detector) error {
	return ReplayWithLimits(rd, det, nil, DefaultLimits())
}

// cancelCheckEvery is how many events replay processes between polls of
// Limits.Cancel. The first event always polls, so an already-expired
// deadline aborts before any detector work happens. Reads that block
// between polls are the CancelReader's problem: wrap the input in one
// and slow uploads cancel mid-read too.
const cancelCheckEvery = 4096

// ReplayWithLimits is Replay with explicit resource bounds and the
// recorder of the session det belongs to (nil for none). Replay is the
// second driver of the detect event contract: its one goroutine executes
// every task, so like a sequential run it owns one detect.Local, points
// every task at it and flushes it into rec when the replay ends, cleanly
// or not.
//
// The input is consumed strictly forward through a fixed-size bufio
// buffer and the replay table drops tasks, and each task the finishes it
// opened, as they end, so memory stays proportional to the live task set
// and declared regions — not to trace length. A multi-gigabyte trace
// streams straight off a network body.
func ReplayWithLimits(rd io.Reader, det detect.Detector, rec *stats.Recorder, lim Limits) error {
	dec, err := newDecoder(rd)
	if err != nil {
		return err
	}
	if det.RequiresSequential() && !dec.sequential {
		return fmt.Errorf("trace: %w: detector %q needs a depth-first trace; this one was recorded in parallel", ErrSequentialOnly, det.Name())
	}
	st := &replayState{det: det, lim: lim, tasks: map[int64]*replayTask{}, locks: map[int64]*detect.Lock{}}
	err = st.run(dec)
	st.local.Flush(rec)
	return err
}

// run applies dec's events until a clean end of stream or the first
// error.
func (st *replayState) run(dec *decoder) error {
	countdown := 1 // poll Cancel on the very first event
	var ev event
	for {
		if st.lim.Cancel != nil {
			if countdown--; countdown <= 0 {
				countdown = cancelCheckEvery
				select {
				case <-st.lim.Cancel:
					return fmt.Errorf("trace: %w", ErrCanceled)
				default:
				}
			}
		}
		err := dec.next(&ev)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := st.apply(&ev); err != nil {
			return err
		}
	}
}

// eventArgs maps an event kind to its varint argument count; zero marks
// an unknown kind. evNewShadow and evNewShadowGrow additionally carry a
// length-prefixed name after their arguments.
var eventArgs = [256]int8{
	evMainTask:      2,
	evSpawn:         3,
	evTaskEnd:       1,
	evFinishStart:   2,
	evFinishEnd:     2,
	evAcquire:       2,
	evRelease:       2,
	evNewShadow:     3,
	evRead:          3,
	evWrite:         3,
	evNewShadowGrow: 2,
}

// event is one decoded trace event. The decoder reuses one of these per
// loop, so replay allocates nothing per event.
type event struct {
	kind byte
	args [3]int64
	name string // only evNewShadow / evNewShadowGrow
}

// decoder pulls events off a trace stream one at a time. It validates
// framing (known kinds, complete varints, bounded names) but not
// semantics — apply does the task/region bookkeeping.
type decoder struct {
	br         *bufio.Reader
	sequential bool
}

// newDecoder consumes the magic and executor byte and returns a decoder
// positioned at the first event. Errors are the same sentinel classes
// Replay has always returned for bad headers.
func newDecoder(rd io.Reader) (*decoder, error) {
	br, ok := rd.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(rd, 64<<10)
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("trace: %w: %d-byte input", ErrBadMagic, len(head))
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: %w: header %q", ErrBadMagic, head)
	}
	seqByte, err := br.ReadByte()
	if err != nil {
		return nil, readErr("missing executor byte", err)
	}
	return &decoder{br: br, sequential: seqByte == 1}, nil
}

// HeaderLen is the byte length of a trace header: the magic followed by
// the executor byte.
const HeaderLen = len(magic) + 1

// PeekHeader validates the trace header at the front of br without
// consuming it and reports the executor byte: true means the trace was
// recorded depth-first, so sequential-only detectors may consume it.
// Errors are the same sentinel classes newDecoder returns, so callers
// (the spd3d job store spilling an unsplit trace to disk) classify bad
// uploads identically whether or not the splitter is in the path.
func PeekHeader(br *bufio.Reader) (sequential bool, err error) {
	head, err := br.Peek(HeaderLen)
	if err != nil {
		if len(head) < len(magic) {
			return false, fmt.Errorf("trace: %w: %d-byte input", ErrBadMagic, len(head))
		}
		if string(head[:len(magic)]) != magic {
			return false, fmt.Errorf("trace: %w: header %q", ErrBadMagic, head[:len(magic)])
		}
		return false, readErr("missing executor byte", err)
	}
	if string(head[:len(magic)]) != magic {
		return false, fmt.Errorf("trace: %w: header %q", ErrBadMagic, head[:len(magic)])
	}
	return head[len(magic)] == 1, nil
}

// readErr classifies a mid-stream read failure. Errors that already
// carry a trace sentinel — ErrLimit from a LimitedReader, ErrCanceled
// from a CancelReader wrapped around the input — pass through so the
// caller's errors.Is mapping sees the real cause; anything else (EOF,
// connection reset) means the trace stopped mid-event: ErrTruncated.
func readErr(context string, err error) error {
	if errors.Is(err, ErrLimit) || errors.Is(err, ErrCanceled) {
		return fmt.Errorf("trace: %s: %w", context, err)
	}
	return fmt.Errorf("trace: %w: %s: %v", ErrTruncated, context, err)
}

// next decodes one event into ev. It returns io.EOF at a clean end of
// stream (between events) and a sentinel-wrapped error otherwise.
func (d *decoder) next(ev *event) error {
	kind, err := d.br.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return readErr("event kind", err)
	}
	n := eventArgs[kind]
	if n == 0 {
		return fmt.Errorf("trace: %w: unknown event kind %d", ErrMalformed, kind)
	}
	ev.kind = kind
	ev.name = ""
	for i := int8(0); i < n; i++ {
		v, err := binary.ReadVarint(d.br)
		if err != nil {
			return readErr(fmt.Sprintf("event %d", kind), err)
		}
		ev.args[i] = v
	}
	if kind == evNewShadow || kind == evNewShadowGrow {
		name, err := d.readName()
		if err != nil {
			return err
		}
		ev.name = name
	}
	return nil
}

// readName reads a length-prefixed region name off the stream.
func (d *decoder) readName() (string, error) {
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		return "", readErr("region name length", err)
	}
	if n > maxNameLen {
		return "", fmt.Errorf("trace: %w: region name of %d bytes", ErrMalformed, n)
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(d.br, name); err != nil {
		return "", readErr("region name", err)
	}
	return string(name), nil
}

type replayState struct {
	det     detect.Detector
	lim     Limits
	local   detect.Local // the replaying goroutine's block: every task's L
	tasks   map[int64]*replayTask
	locks   map[int64]*detect.Lock
	shadows []detect.Shadow
	sizes   []int64
	total   int64
}

// replayTask is replay's record of one live task: the detect.Task the
// detector sees and, innermost last, the finishes the task has started
// and not yet ended. The stack is how apply holds a trace to the nesting
// rules of the driver contract (package detect): detectors may derive a
// finish from the task's position — SPD3 takes the scope a FinishEnd
// closes from the task's current step — so a trace that ends or spawns
// into any other finish must not reach them.
type replayTask struct {
	detect.Task
	open []*detect.Finish
}

// innermost returns the finish t's next spawn registers in: the innermost
// finish t has open or, for a task with none, the task's own IEF (the
// runtime's IEF rule, task.Ctx.Async).
func (t *replayTask) innermost() *detect.Finish {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return t.IEF
}

// Fixed sanity limits independent of Limits.
const (
	maxElemBytes = 1 << 20
	maxNameLen   = 1 << 16
)

func (st *replayState) apply(ev *event) error {
	a := &ev.args
	switch ev.kind {
	case evMainTask:
		// The implicit finish is the main task's to end, so it opens the
		// stack.
		f := &detect.Finish{ID: a[1]}
		t := &replayTask{Task: detect.Task{ID: detect.TaskID(a[0]), IEF: f, L: &st.local}, open: []*detect.Finish{f}}
		st.tasks[a[0]] = t
		st.det.MainTask(&t.Task, f)
	case evSpawn:
		parent, ok := st.tasks[a[0]]
		if !ok {
			return fmt.Errorf("trace: %w: spawn from unknown task %d", ErrMalformed, a[0])
		}
		ief := parent.innermost()
		if ief.ID != a[2] {
			return fmt.Errorf("trace: %w: task %d spawns into finish %d, not its innermost finish %d", ErrMalformed, a[0], a[2], ief.ID)
		}
		child := &replayTask{Task: detect.Task{ID: detect.TaskID(a[1]), IEF: ief, L: &st.local}}
		st.tasks[a[1]] = child
		st.det.BeforeSpawn(&parent.Task, &child.Task)
	case evTaskEnd:
		t, ok := st.tasks[a[0]]
		if !ok {
			return fmt.Errorf("trace: %w: end of unknown task %d", ErrMalformed, a[0])
		}
		// Finishes still open are legal here: it is what a task whose
		// body panicked inside a finish records.
		st.det.TaskEnd(&t.Task)
		// The event contract makes TaskEnd a task's final event, so the
		// table entry is dead weight from here on. Dropping it is what
		// bounds replay memory by the live task set instead of the total
		// task count — the property the streaming server relies on.
		delete(st.tasks, a[0])
	case evFinishStart:
		t, ok := st.tasks[a[0]]
		if !ok {
			return fmt.Errorf("trace: %w: finish in unknown task %d", ErrMalformed, a[0])
		}
		f := &detect.Finish{ID: a[1]}
		t.open = append(t.open, f)
		st.det.FinishStart(&t.Task, f)
	case evFinishEnd:
		t, ok := st.tasks[a[0]]
		if !ok {
			return fmt.Errorf("trace: %w: finish-end in unknown task %d", ErrMalformed, a[0])
		}
		n := len(t.open)
		if n == 0 || t.open[n-1].ID != a[1] {
			return fmt.Errorf("trace: %w: task %d ends finish %d, not the innermost finish it has open", ErrMalformed, a[0], a[1])
		}
		f := t.open[n-1]
		t.open = t.open[:n-1]
		st.det.FinishEnd(&t.Task, f)
	case evAcquire, evRelease:
		t := st.tasks[a[0]]
		if t == nil {
			return fmt.Errorf("trace: %w: lock op in unknown task %d", ErrMalformed, a[0])
		}
		l := st.locks[a[1]]
		if l == nil {
			l = &detect.Lock{ID: a[1]}
			st.locks[a[1]] = l
		}
		if ev.kind == evAcquire {
			st.det.Acquire(&t.Task, l)
		} else {
			st.det.Release(&t.Task, l)
		}
	case evNewShadow:
		if a[1] < 0 || a[1] > st.lim.MaxRegionElems {
			return fmt.Errorf("trace: %w: region size %d out of range", ErrLimit, a[1])
		}
		if st.total += a[1]; st.total > st.lim.MaxTotalElems {
			return fmt.Errorf("trace: %w: total region size exceeds limit of %d elements", ErrLimit, st.lim.MaxTotalElems)
		}
		if a[2] < 0 || a[2] > maxElemBytes {
			return fmt.Errorf("trace: %w: element size %d out of range", ErrMalformed, a[2])
		}
		if int(a[0]) != len(st.shadows) {
			return fmt.Errorf("trace: %w: region %d out of order", ErrMalformed, a[0])
		}
		st.shadows = append(st.shadows, st.det.NewShadow(detect.Spec(ev.name, int(a[1]), int(a[2]))))
		st.sizes = append(st.sizes, a[1])
	case evNewShadowGrow:
		if a[1] < 0 || a[1] > maxElemBytes {
			return fmt.Errorf("trace: %w: element size %d out of range", ErrMalformed, a[1])
		}
		if int(a[0]) != len(st.shadows) {
			return fmt.Errorf("trace: %w: region %d out of order", ErrMalformed, a[0])
		}
		st.shadows = append(st.shadows, st.det.NewShadow(detect.GrowableSpec(ev.name, int(a[1]))))
		// Growable: no declared size. Indices are still bounded by
		// MaxRegionElems so a hostile trace cannot force huge pages.
		st.sizes = append(st.sizes, -1)
	case evRead, evWrite:
		if a[0] < 0 || int(a[0]) >= len(st.shadows) {
			return fmt.Errorf("trace: %w: access to unknown region %d", ErrMalformed, a[0])
		}
		bound := st.sizes[a[0]]
		if bound < 0 {
			bound = st.lim.MaxRegionElems
		}
		if a[2] < 0 || a[2] >= bound {
			return fmt.Errorf("trace: %w: access index %d outside region of %d elements", ErrMalformed, a[2], bound)
		}
		t := st.tasks[a[1]]
		if t == nil {
			return fmt.Errorf("trace: %w: access by unknown task %d", ErrMalformed, a[1])
		}
		if ev.kind == evRead {
			st.shadows[a[0]].Read(&t.Task, int(a[2]))
		} else {
			st.shadows[a[0]].Write(&t.Task, int(a[2]))
		}
	default:
		return fmt.Errorf("trace: %w: unknown event kind %d", ErrMalformed, ev.kind)
	}
	return nil
}

// appendEvent encodes one event (kind + varint args) onto dst — the
// write-side twin of decoder.next, used by the splitter and amplifier
// to re-emit events they have decoded.
func appendEvent(dst []byte, kind byte, args ...int64) []byte {
	dst = append(dst, kind)
	for _, a := range args {
		dst = binary.AppendVarint(dst, a)
	}
	return dst
}

// appendName encodes a length-prefixed region name onto dst.
func appendName(dst []byte, name string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}
