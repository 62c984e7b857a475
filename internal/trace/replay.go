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
// deadline aborts before any detector work happens. A CancelReader around
// the input checks between reads too; a read that blocks is bounded by
// the stream's own deadline.
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
// error. It works a buffered window at a time: every whole unnamed event
// in the window is scanned and applied in place, and the bytes consumed
// are discarded at once when the window runs out. An event that runs past
// the window's end, carries a name or does not parse goes to dec.next,
// which reads on, reads the name or reports the error.
func (st *replayState) run(dec *decoder) error {
	countdown := 1 // poll Cancel on the very first event
	var ev event
	for {
		win, _ := dec.br.Peek(dec.br.Buffered())
		used := 0
		for {
			if st.lim.Cancel != nil {
				if countdown--; countdown <= 0 {
					countdown = cancelCheckEvery
					select {
					case <-st.lim.Cancel:
						dec.br.Discard(used) //nolint:errcheck // used bytes are buffered
						return fmt.Errorf("trace: %w", ErrCanceled)
					default:
					}
				}
			}
			n, err := scan(win[used:], &ev)
			if err != nil || formats[ev.kind].named {
				break
			}
			used += n
			if err := st.apply(&ev); err != nil {
				dec.br.Discard(used) //nolint:errcheck // used bytes are buffered
				return err
			}
		}
		dec.br.Discard(used) //nolint:errcheck // used bytes are buffered
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

const magic = "SPD3TRC1"

// HeaderLen is the byte length of a trace header: the magic followed by
// the executor byte.
const HeaderLen = len(magic) + 1

// Event kinds.
const (
	evMainTask byte = iota + 1
	evSpawn
	evTaskEnd
	evFinishStart
	evFinishEnd
	evAcquire
	evRelease
	evNewShadow
	evRead
	evWrite
	evNewShadowGrow
	evUpdate
)

// space names what an event argument's value identifies. The amplifier
// shifts each copy's ids by a per-space stride; a plain argument (a size,
// an index) is never shifted.
type space uint8

const (
	plain space = iota
	taskID
	finishID
	lockID
	regionID
	numSpaces
)

// format is one event kind's encoding: n varint arguments in the ID
// spaces args[:n], then, when named, a length-prefixed name.
type format struct {
	n     uint8 // 0 marks an unknown kind
	named bool
	args  [3]space
}

// formats is the trace format, one row per kind (DESIGN.md §7, "Trace
// format"). A new kind is one row appended after evNewShadowGrow plus its
// case in apply, so traces without it stay byte-identical.
var formats = [256]format{
	evMainTask:      {2, false, [3]space{taskID, finishID}},         // main task, its implicit finish
	evSpawn:         {3, false, [3]space{taskID, taskID, finishID}}, // parent, child, the child's IEF
	evTaskEnd:       {1, false, [3]space{taskID}},
	evFinishStart:   {2, false, [3]space{taskID, finishID}},
	evFinishEnd:     {2, false, [3]space{taskID, finishID}},
	evAcquire:       {2, false, [3]space{taskID, lockID}},
	evRelease:       {2, false, [3]space{taskID, lockID}},
	evNewShadow:     {3, true, [3]space{regionID, plain, plain}},   // region, elems, elemBytes; name
	evRead:          {3, false, [3]space{regionID, taskID, plain}}, // region, task, index
	evWrite:         {3, false, [3]space{regionID, taskID, plain}}, // region, task, index
	evNewShadowGrow: {2, true, [3]space{regionID, plain}},          // region, elemBytes; name
	evUpdate:        {3, false, [3]space{regionID, taskID, plain}}, // region, task, index
}

// event is one decoded trace event. The decoder reuses one of these per
// loop, so replay allocates nothing per event.
type event struct {
	kind    byte
	args    [3]int64
	nameLen int    // only for a named kind: the name's length, parsed by scan
	name    string // only for a named kind: read after the event's span
}

// appendHeader encodes a trace header onto dst: the magic, then the
// executor byte (1: recorded depth-first).
func appendHeader(dst []byte, sequential bool) []byte {
	dst = append(dst, magic...)
	if sequential {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendEvent encodes an event of an unnamed kind onto dst: the kind,
// then its varint arguments.
func appendEvent(dst []byte, kind byte, args ...int64) []byte {
	dst = append(dst, kind)
	for _, a := range args {
		dst = binary.AppendVarint(dst, a)
	}
	return dst
}

// appendEv encodes ev onto dst, with its name when the kind is named: the
// write-side twin of scan and readName.
func appendEv(dst []byte, ev *event) []byte {
	f := &formats[ev.kind]
	dst = appendEvent(dst, ev.kind, ev.args[:f.n]...)
	if f.named {
		dst = binary.AppendUvarint(dst, uint64(len(ev.name)))
		dst = append(dst, ev.name...)
	}
	return dst
}

// regionDecl is a shadow-region declaration without its id. The splitter
// keeps one per region so a later segment can declare it again: accesses
// to a region may appear arbitrarily far from its declaration, and every
// segment must be a self-contained trace.
type regionDecl struct {
	growable  bool
	elems     int64 // unused when growable
	elemBytes int64
	name      string
}

// declOf returns the declaration ev, an evNewShadow or evNewShadowGrow,
// makes.
func declOf(ev *event) regionDecl {
	if ev.kind == evNewShadowGrow {
		return regionDecl{growable: true, elemBytes: ev.args[1], name: ev.name}
	}
	return regionDecl{elems: ev.args[1], elemBytes: ev.args[2], name: ev.name}
}

// appendDecl encodes the declaration of region id onto dst. A growable
// region has its own kind, so traces without one stay byte-identical to
// those recorded before growable regions existed.
func appendDecl(dst []byte, id int64, d regionDecl) []byte {
	ev := event{kind: evNewShadow, args: [3]int64{id, d.elems, d.elemBytes}, name: d.name}
	if d.growable {
		ev = event{kind: evNewShadowGrow, args: [3]int64{id, d.elemBytes}, name: d.name}
	}
	return appendEv(dst, &ev)
}

// decoder pulls events off a trace stream one at a time. It validates
// framing (known kinds, complete minimal varints, bounded names) but not
// semantics — apply does the task/region bookkeeping.
type decoder struct {
	br         *bufio.Reader
	sequential bool
}

// maxSpan bounds an event's span: the kind byte and at most four varints
// (three arguments and a name's length prefix). scan decides every event
// within this many bytes, so a window this large never ends undecided.
const maxSpan = 1 + 4*binary.MaxVarintLen64

// newDecoder consumes the header and returns a decoder positioned at the
// first event. A caller's bufio.Reader is used as it stands when its
// buffer holds a maximal span, and wrapped otherwise.
func newDecoder(rd io.Reader) (*decoder, error) {
	br, ok := rd.(*bufio.Reader)
	if !ok || br.Size() < maxSpan {
		br = bufio.NewReaderSize(rd, 64<<10)
	}
	sequential, err := PeekHeader(br)
	if err != nil {
		return nil, err
	}
	br.Discard(HeaderLen) //nolint:errcheck // PeekHeader buffered the header
	return &decoder{br: br, sequential: sequential}, nil
}

// PeekHeader validates the trace header at the front of br without
// consuming it and reports the executor byte: true means the trace was
// recorded depth-first, so sequential-only detectors may consume it.
// Every decoder reads the header through it, so callers (the spd3d job
// store spilling an unsplit trace to disk) classify bad uploads
// identically whether or not the splitter is in the path.
func PeekHeader(br *bufio.Reader) (sequential bool, err error) {
	head, err := br.Peek(HeaderLen)
	if len(head) < len(magic) {
		return false, fmt.Errorf("trace: %w: %d-byte input", ErrBadMagic, len(head))
	}
	if string(head[:len(magic)]) != magic {
		return false, fmt.Errorf("trace: %w: header %q", ErrBadMagic, head[:len(magic)])
	}
	if err != nil {
		return false, readErr("missing executor byte", err)
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

// errShort is scan's answer when p ends inside the event: read on.
var errShort = errors.New("trace: event continues past the buffered bytes")

// scan parses the event at the front of p into ev and returns the length
// of its span: the kind byte, the varint arguments and, for a named kind,
// the name's length prefix (the name itself follows the span). It is the
// one parser of event arguments. A varint must be minimal — the encoding
// appendEvent writes — so an event's bytes are exactly its re-encoding
// and the splitter may copy them verbatim; a padded or overflowing varint
// is ErrMalformed.
//
// Varints of one to three bytes — nearly every argument of a daemon's
// trace, whose amplified task ids take three — decode inline; a longer,
// cut or refused one goes to uvarint. A 2- or 3-byte encoding whose last
// group is 0x00 is padded and also goes to uvarint, which refuses it.
func scan(p []byte, ev *event) (n int, err error) {
	if len(p) == 0 {
		return 0, errShort
	}
	kind := p[0]
	f := &formats[kind]
	if f.n == 0 {
		return 0, fmt.Errorf("trace: %w: unknown event kind %d", ErrMalformed, kind)
	}
	ev.kind, n = kind, 1
	nv := f.n
	if f.named {
		nv++ // the name's length prefix
	}
	for i := range nv {
		var u uint64
		var m int
		switch q := p[n:]; {
		case len(q) > 0 && q[0] < 0x80:
			u, m = uint64(q[0]), 1
		case len(q) > 1 && q[1]-1 < 0x7f: // q[1] in [1, 0x80)
			u, m = uint64(q[0]&0x7f)|uint64(q[1])<<7, 2
		case len(q) > 2 && q[1] >= 0x80 && q[2]-1 < 0x7f:
			u, m = uint64(q[0]&0x7f)|uint64(q[1]&0x7f)<<7|uint64(q[2])<<14, 3
		default:
			if u, m = uvarint(q); m <= 0 {
				return 0, varintErr(kind, m)
			}
		}
		n += m
		if i < f.n {
			ev.args[i] = int64(u>>1) ^ -int64(u&1) // zigzag, as binary.Varint
			continue
		}
		if u > maxNameLen {
			return 0, fmt.Errorf("trace: %w: region name of %d bytes", ErrMalformed, u)
		}
		ev.nameLen = int(u)
	}
	return n, nil
}

// uvarint is binary.Uvarint that also refuses a non-minimal encoding:
// m > 0 is the varint's length, m == 0 means p ends inside it, m < 0 that
// it overflows or is padded.
func uvarint(p []byte) (u uint64, m int) {
	u, m = binary.Uvarint(p)
	if m > 1 && p[m-1] == 0 {
		return 0, -m
	}
	return u, m
}

// varintErr is scan's error for a varint uvarint did not accept.
func varintErr(kind byte, m int) error {
	if m == 0 {
		return errShort
	}
	return fmt.Errorf("trace: %w: event %d: overflowing or non-minimal varint", ErrMalformed, kind)
}

// peek parses the next event into ev without consuming it and returns
// the buffered window it opens and the length of its span, reading on
// while the window ends inside the span. It returns io.EOF at a clean end
// of stream (between events) and a sentinel-wrapped error otherwise.
func (d *decoder) peek(ev *event) (win []byte, n int, err error) {
	win, _ = d.br.Peek(d.br.Buffered())
	for {
		n, err = scan(win, ev)
		if err != errShort {
			return win, n, err
		}
		if more, rerr := d.br.Peek(len(win) + 1); len(more) == len(win) {
			switch {
			case len(win) > 0:
				return nil, 0, readErr(fmt.Sprintf("event %d", win[0]), rerr)
			case errors.Is(rerr, io.EOF):
				return nil, 0, io.EOF
			default:
				return nil, 0, readErr("event kind", rerr)
			}
		}
		win, _ = d.br.Peek(d.br.Buffered())
	}
}

// next decodes one event into ev and consumes it, name included.
func (d *decoder) next(ev *event) error {
	_, n, err := d.peek(ev)
	if err != nil {
		return err
	}
	d.br.Discard(n) //nolint:errcheck // peek buffered the span
	ev.name = ""
	if formats[ev.kind].named {
		return d.readName(ev)
	}
	return nil
}

// readName consumes the name that follows a named event's span into
// ev.name.
func (d *decoder) readName(ev *event) error {
	name := make([]byte, ev.nameLen)
	if _, err := io.ReadFull(d.br, name); err != nil {
		return readErr("region name", err)
	}
	ev.name = string(name)
	return nil
}

type replayState struct {
	det     detect.Detector
	lim     Limits
	local   detect.Local // the replaying goroutine's block: every task's L
	tasks   map[int64]*replayTask
	last    *replayTask   // the task of the last access while it is in tasks, else nil
	free    []*replayTask // records of ended tasks, for newTask to reuse
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

// newTask returns the record of a task entering the table with IEF ief:
// an ended task's, reset, when there is one, else a new one. Ended records
// are reused because no detector keeps a *detect.Task past its TaskEnd
// (the event contract makes it the task's final event) and every detector
// sets the child's State in BeforeSpawn. The free list holds at most the
// peak number of live tasks, so replay memory stays proportional to the
// live set, and a trace of many short tasks stops allocating one record
// per task.
func (st *replayState) newTask(id int64, ief *detect.Finish) *replayTask {
	dt := detect.Task{ID: detect.TaskID(id), IEF: ief, L: &st.local}
	n := len(st.free)
	if n == 0 {
		return &replayTask{Task: dt}
	}
	t := st.free[n-1]
	st.free = st.free[:n-1]
	*t = replayTask{Task: dt, open: t.open[:0]}
	return t
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
		t := st.newTask(a[0], f)
		t.open = append(t.open, f)
		st.tasks[a[0]], st.last = t, nil
		detect.Main(st.det, &t.Task, f)
	case evSpawn:
		parent, ok := st.tasks[a[0]]
		if !ok {
			return fmt.Errorf("trace: %w: spawn from unknown task %d", ErrMalformed, a[0])
		}
		ief := parent.innermost()
		if ief.ID != a[2] {
			return fmt.Errorf("trace: %w: task %d spawns into finish %d, not its innermost finish %d", ErrMalformed, a[0], a[2], ief.ID)
		}
		// Detectors key per-task state by id (FastTrack's clock slots), so
		// a child may not take the id of a task still live.
		if _, live := st.tasks[a[1]]; live {
			return fmt.Errorf("trace: %w: task %d spawns task %d, which is still live", ErrMalformed, a[0], a[1])
		}
		child := st.newTask(a[1], ief)
		st.tasks[a[1]] = child
		detect.Spawn(st.det, &parent.Task, &child.Task)
	case evTaskEnd:
		t, ok := st.tasks[a[0]]
		if !ok {
			return fmt.Errorf("trace: %w: end of unknown task %d", ErrMalformed, a[0])
		}
		// A task has ended every finish it opened by its TaskEnd. The
		// main task's stack holds the implicit finish until the main
		// task's last event ends it, so a main task's TaskEnd is refused
		// here too.
		if n := len(t.open); n > 0 {
			return fmt.Errorf("trace: %w: task %d ends with finish %d open", ErrMalformed, a[0], t.open[n-1].ID)
		}
		st.det.TaskEnd(&t.Task)
		// The event contract makes TaskEnd a task's final event, so the
		// table entry is dead weight from here on. Dropping it is what
		// bounds replay memory by the live task set instead of the total
		// task count — the property the streaming server relies on. The
		// record itself goes to the free list for the next spawn.
		delete(st.tasks, a[0])
		st.last = nil
		st.free = append(st.free, t)
	case evFinishStart:
		t, ok := st.tasks[a[0]]
		if !ok {
			return fmt.Errorf("trace: %w: finish in unknown task %d", ErrMalformed, a[0])
		}
		f := &detect.Finish{ID: a[1]}
		t.open = append(t.open, f)
		detect.StartFinish(st.det, &t.Task, f)
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
		detect.EndFinish(st.det, &t.Task, f)
		if f == t.IEF {
			// Only the main task has its own IEF open, and the contract
			// makes ending it the main task's last event: as at a TaskEnd,
			// the task leaves the table.
			delete(st.tasks, a[0])
			st.last = nil
		}
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
	case evNewShadow, evNewShadowGrow:
		d := declOf(ev)
		if !d.growable {
			if d.elems < 0 || d.elems > st.lim.MaxRegionElems {
				return fmt.Errorf("trace: %w: region size %d out of range", ErrLimit, d.elems)
			}
			if st.total += d.elems; st.total > st.lim.MaxTotalElems {
				return fmt.Errorf("trace: %w: total region size exceeds limit of %d elements", ErrLimit, st.lim.MaxTotalElems)
			}
		}
		if d.elemBytes < 0 || d.elemBytes > maxElemBytes {
			return fmt.Errorf("trace: %w: element size %d out of range", ErrMalformed, d.elemBytes)
		}
		if int(a[0]) != len(st.shadows) {
			return fmt.Errorf("trace: %w: region %d out of order", ErrMalformed, a[0])
		}
		spec, size := detect.Spec(d.name, int(d.elems), int(d.elemBytes)), d.elems
		if d.growable {
			// No declared size. Indices are still bounded by
			// MaxRegionElems so a hostile trace cannot force huge pages.
			spec, size = detect.GrowableSpec(d.name, int(d.elemBytes)), -1
		}
		st.shadows = append(st.shadows, st.det.NewShadow(spec))
		st.sizes = append(st.sizes, size)
	case evRead, evWrite, evUpdate:
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
		// Nearly every access is by the task of the one before it. Live
		// ids are unique and last is cleared whenever a task leaves the
		// table, so a hit is the task the table would return.
		t := st.last
		if t == nil || t.ID != detect.TaskID(a[1]) {
			if t = st.tasks[a[1]]; t == nil {
				return fmt.Errorf("trace: %w: access by unknown task %d", ErrMalformed, a[1])
			}
			st.last = t
		}
		switch sh := st.shadows[a[0]]; ev.kind {
		case evRead:
			sh.Read(&t.Task, int(a[2]))
		case evWrite:
			sh.Write(&t.Task, int(a[2]))
		default:
			detect.Update(sh, &t.Task, int(a[2]))
		}
	default:
		return fmt.Errorf("trace: %w: unknown event kind %d", ErrMalformed, ev.kind)
	}
	return nil
}
