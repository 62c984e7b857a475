// Package trace records the event stream of a monitored execution to a
// compact binary format and replays it offline into any detector.
//
// Recording decouples the expensive part (running the parallel program)
// from analysis: record once with the near-zero-overhead Recorder, then
// replay the trace under SPD3, FastTrack, Eraser, or the oracle — each in
// milliseconds, no re-execution.
//
// The recorded order is a legal serialization of the execution: the
// Recorder timestamps every event under one mutex at the moment it
// happens, so per-task program order and the runtime's cross-task
// ordering guarantees (spawn before child events, task ends before their
// finish's end) are preserved. Replay feeds that order single-threaded
// into the target detector, which therefore reaches the same verdict it
// would have reached live. ESP-bags additionally needs the recorded
// execution itself to have been depth-first (record under the sequential
// executor); Replay refuses sequential-only detectors unless the trace is
// marked sequential, and holds a trace so marked to depth-first order.
//
// Replay is a driver of the detect event contract and a trace is outside
// bytes, so replay checks every rule of the contract (package detect
// lists them) and refuses a trace that breaks one with ErrMalformed. The
// Recorder's output, the Splitter's segments and the Amplifier's copies
// keep the rules by construction.
//
// Format: a header ("SPD3TRC1", then an executor byte), then events: a
// kind byte, varint arguments and, for a region declaration, a
// length-prefixed name. The per-kind table formats in replay.go is the
// one definition every reader and writer uses.
package trace

import (
	"bufio"
	"errors"
	"io"
	"sync"

	"spd3/internal/detect"
)

// Typed decode errors. Replay and ReplayWithLimits wrap one of these
// sentinels into every error they return, so callers (notably the spd3d
// daemon, which maps decode failures to HTTP status codes) can classify
// failures with errors.Is instead of string matching.
var (
	// ErrBadMagic marks input that is not an SPD3 trace at all.
	ErrBadMagic = errors.New("not an SPD3 trace (bad magic)")
	// ErrTruncated marks a trace that starts well but ends mid-event —
	// typically an interrupted recording or a partial upload.
	ErrTruncated = errors.New("truncated trace")
	// ErrMalformed marks a structurally invalid event stream (unknown
	// event kinds, references to undeclared tasks or regions,
	// out-of-bounds indices): the bytes decode but the trace lies.
	ErrMalformed = errors.New("malformed trace")
	// ErrLimit marks a trace whose declared resources exceed the
	// configured Limits.
	ErrLimit = errors.New("trace exceeds resource limits")
	// ErrSequentialOnly marks an illegal pairing: a detector that is
	// only correct under depth-first execution asked to consume a trace
	// recorded in parallel.
	ErrSequentialOnly = errors.New("sequential-only detector on a parallel trace")
	// ErrCanceled reports that replay stopped because Limits.Cancel was
	// closed before the trace was fully consumed.
	ErrCanceled = errors.New("replay canceled")
)

// Recorder is a detect.Detector that writes the event stream to w. It
// performs no detection itself.
type Recorder struct {
	sequential bool

	mu      sync.Mutex
	w       *bufio.Writer
	enc     []byte // the event being written, reused under mu
	regions int64
	err     error
}

// NewRecorder returns a recorder writing to w. Set sequential to record
// depth-first: the recorder is then owned, so the runtime runs it
// sequentially, and its trace replays into ESP-bags too.
func NewRecorder(w io.Writer, sequential bool) *Recorder {
	r := &Recorder{sequential: sequential, w: bufio.NewWriter(w)}
	_, r.err = r.w.Write(appendHeader(nil, sequential))
	return r
}

// Close flushes the trace. Call after Run returns.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// emit writes one event atomically with respect to other tasks' events.
func (r *Recorder) emit(kind byte, args ...int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.write(appendEvent(r.enc[:0], kind, args...))
}

// write hands one encoded event to the stream and keeps its buffer for
// the next; the caller holds r.mu.
func (r *Recorder) write(enc []byte) {
	r.enc = enc
	if r.err == nil {
		_, r.err = r.w.Write(enc)
	}
}

// Name implements detect.Detector.
func (r *Recorder) Name() string { return "trace-recorder" }

// Owned is the sequential flag, so the runtime keeps the header's promise.
func (r *Recorder) Owned() bool { return r.sequential }

// MainTask implements detect.Detector.
func (r *Recorder) MainTask(t *detect.Task, implicit *detect.Finish) {
	r.emit(evMainTask, int64(t.ID), implicit.ID)
}

// BeforeSpawn implements detect.Detector.
func (r *Recorder) BeforeSpawn(parent, child *detect.Task) {
	r.emit(evSpawn, int64(parent.ID), int64(child.ID), child.IEF.ID)
}

// TaskEnd implements detect.Detector.
func (r *Recorder) TaskEnd(t *detect.Task) { r.emit(evTaskEnd, int64(t.ID)) }

// FinishStart implements detect.Detector.
func (r *Recorder) FinishStart(t *detect.Task, f *detect.Finish) {
	r.emit(evFinishStart, int64(t.ID), f.ID)
}

// FinishEnd implements detect.Detector.
func (r *Recorder) FinishEnd(t *detect.Task, f *detect.Finish) {
	r.emit(evFinishEnd, int64(t.ID), f.ID)
}

// Acquire implements detect.Detector.
func (r *Recorder) Acquire(t *detect.Task, l *detect.Lock) {
	r.emit(evAcquire, int64(t.ID), l.ID)
}

// Release implements detect.Detector.
func (r *Recorder) Release(t *detect.Task, l *detect.Lock) {
	r.emit(evRelease, int64(t.ID), l.ID)
}

// NewShadow implements detect.Detector. Tasks may declare regions
// concurrently (containers allocated in tasks under the pool), and
// replay requires ids in stream order, so the id is drawn and the
// declaration written under one lock hold.
func (r *Recorder) NewShadow(spec detect.ShadowSpec) detect.Shadow {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.regions
	r.regions++
	d := regionDecl{growable: spec.Growable, elems: int64(spec.Len), elemBytes: int64(spec.ElemBytes), name: spec.Name}
	r.write(appendDecl(r.enc[:0], id, d))
	return &recShadow{r: r, id: id}
}

// Footprint implements detect.Detector.
func (r *Recorder) Footprint() detect.Footprint { return detect.Footprint{} }

type recShadow struct {
	r  *Recorder
	id int64
}

func (s *recShadow) Read(t *detect.Task, i int) {
	s.r.emit(evRead, s.id, int64(t.ID), int64(i))
}

func (s *recShadow) Write(t *detect.Task, i int) {
	s.r.emit(evWrite, s.id, int64(t.ID), int64(i))
}

// Update records a read-modify-write as one event, so replay checks it
// as the live run did: through detect.Update.
func (s *recShadow) Update(t *detect.Task, i int) {
	s.r.emit(evUpdate, s.id, int64(t.ID), int64(i))
}

var _ detect.Detector = (*Recorder)(nil)

// The format and its writers, Replay and the decoder live in replay.go,
// the finish-scope splitter and the trace amplifier in split.go and
// amplify.go; the streaming reader adapters (LimitedReader,
// CancelReader) live in stream.go.
