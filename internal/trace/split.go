package trace

import (
	"bytes"
	"errors"
	"io"
)

// ErrSegmentOversize reports that the current finish scope outgrew
// SplitConfig.MaxSegmentBytes before reaching a shard boundary. The
// Splitter's state is intact: call Unsplit to fall back to analyzing
// the rest of the trace as one streamed unit.
var ErrSegmentOversize = errors.New("trace segment exceeds size cap before a finish boundary")

// SplitConfig tunes the segment splitter.
type SplitConfig struct {
	// MinSegmentBytes coalesces tiny finish scopes: the splitter keeps
	// buffering past a boundary until at least this many event bytes
	// have accumulated. Zero means the 64 KiB default.
	MinSegmentBytes int
	// MaxSegmentBytes bounds how much one segment may buffer. When a
	// single finish scope exceeds it, Next returns ErrSegmentOversize
	// instead of buffering without bound. Zero means no cap.
	MaxSegmentBytes int
}

const defaultMinSegmentBytes = 64 << 10

// Splitter cuts a trace into independently replayable segments at
// top-level finish boundaries.
//
// Soundness: the splitter cuts only after a FinishEnd that leaves no
// explicit finish open, in a run whose main task has never spawned into
// its implicit finish and holds no lock (joined) — the condition under
// which SPD3 moves its watermark. Replay refuses a FinishEnd while a task
// registered in its finish is live (the join rule of package detect), so
// at a cut no task but main is live: a live task is registered in an open
// finish, main's only one is the implicit finish, which has none, and any
// other belongs to another live task, a regress with no start. Every task
// that ran was joined by an ended finish, so everything before the cut
// happens before everything after it (a finish's end orders its whole
// subtree before the continuation), no race pairs accesses across it, and
// per-segment race reports merge by union. A trace that breaks the rule
// is refused by the replay of the segment holding its FinishEnd.
//
// Each segment is a complete trace: magic, executor byte, a synthetic
// main-task event carrying the original IDs, and re-declarations of
// every shadow region seen so far, followed by the buffered events —
// built once, in place: begin writes the header before a buffer's first event.
type Splitter struct {
	dec *decoder
	cfg SplitConfig

	regions  []regionDecl
	declared int // regions declared before the current buffer's events

	haveMain  bool
	mainTask  int64
	mainFin   int64
	open      int  // explicit finish scopes open (implicit main finish excluded)
	mainLocks int  // locks the main task holds (acquires minus releases)
	escaped   bool // a task was spawned into the implicit main finish

	// buf is the segment under construction (nil between segments), hdr
	// its header's length: Min/MaxSegmentBytes bound the event bytes
	// behind it. prevLen plus an eighth sizes the next buffer: the headroom
	// keeps a run of slowly lengthening segments (ids widen as a trace
	// goes on) from each outgrowing its buffer and being copied after all.
	buf      []byte
	hdr      int
	prevLen  int
	segments int
	done     bool
}

// NewSplitter consumes the trace header off rd and returns a splitter
// positioned at the first event. Header errors are the same sentinel
// classes Replay returns.
func NewSplitter(rd io.Reader, cfg SplitConfig) (*Splitter, error) {
	dec, err := newDecoder(rd)
	if err != nil {
		return nil, err
	}
	if cfg.MinSegmentBytes <= 0 {
		cfg.MinSegmentBytes = defaultMinSegmentBytes
	}
	return &Splitter{dec: dec, cfg: cfg}, nil
}

// Sequential reports the trace's executor byte: segments inherit it, so
// sequential-only detectors stay legal on segments of a depth-first
// trace.
func (s *Splitter) Sequential() bool { return s.dec.sequential }

// Segments reports how many segments have been produced so far.
func (s *Splitter) Segments() int { return s.segments }

// Next returns the next self-contained segment, io.EOF after the last
// one, ErrSegmentOversize when the current scope outgrew the cap (state
// remains valid; see Unsplit), or a sentinel-wrapped decode error.
func (s *Splitter) Next() ([]byte, error) {
	if s.done {
		return nil, io.EOF
	}
	var ev event
	for {
		if s.cfg.MaxSegmentBytes > 0 && len(s.buf)-s.hdr > s.cfg.MaxSegmentBytes {
			return nil, ErrSegmentOversize
		}
		win, n, err := s.dec.peek(&ev)
		if errors.Is(err, io.EOF) {
			s.done = true
			if len(s.buf) == 0 {
				return nil, io.EOF
			}
			return s.cut(), nil
		}
		if err != nil {
			s.done = true
			return nil, err
		}
		if ev.kind == evMainTask && s.haveMain && len(s.buf) > 0 && s.joined() {
			// A second main task means a trace of several back-to-back
			// runs; the gap between runs is itself a top-level boundary
			// when the run before it is joined (else the main task stays
			// with that run, whose replay refuses it if one of the run's
			// tasks is live). The event stays unread: it opens the next,
			// empty buffer.
			return s.cut(), nil
		}
		if len(s.buf) == 0 {
			s.begin(ev.kind == evMainTask)
		}
		if isAccess(ev.kind) {
			n = s.accessRun(win, n)
		}
		// Verbatim: scan's minimal varints make this a re-encode's bytes.
		s.buf = append(s.buf, win[:n]...)
		s.dec.br.Discard(n) //nolint:errcheck // peek buffered the span
		if formats[ev.kind].named {
			if err := s.dec.readName(&ev); err != nil {
				s.done = true
				return nil, err
			}
			s.buf = append(s.buf, ev.name...)
		}
		s.track(&ev)
		if ev.kind == evFinishEnd && s.joined() && len(s.buf)-s.hdr >= s.cfg.MinSegmentBytes {
			return s.cut(), nil
		}
	}
}

// accessRun extends the span n of the access event opening win over the
// access events that follow it in the window, which track ignores and no
// boundary follows, so they are copied with one append. The run stops at
// the event that takes the segment past MaxSegmentBytes — Next's check
// then fires at the event boundary it would after one event at a time —
// and before an event the window does not hold whole or that does not
// parse (the next peek reads on or reports it).
func (s *Splitter) accessRun(win []byte, n int) int {
	room := s.cfg.MaxSegmentBytes - (len(s.buf) - s.hdr)
	var ev event
	for n < len(win) && isAccess(win[n]) &&
		(s.cfg.MaxSegmentBytes <= 0 || n <= room) {
		m, err := scan(win[n:], &ev)
		if err != nil {
			break
		}
		n += m
	}
	return n
}

// isAccess reports whether kind is a memory access: a read, a write or an
// update.
func isAccess(kind byte) bool {
	return kind == evRead || kind == evWrite || kind == evUpdate
}

// joined reports whether the current run may be cut at its top level
// (see Splitter): no explicit finish open, no task spawned into the
// implicit main finish, which stays concurrent with the rest of the run,
// and no lock held by main, whose Release would lie past the boundary —
// a segment opening with a Release it never Acquired is no self-contained
// trace.
func (s *Splitter) joined() bool {
	return s.open == 0 && !s.escaped && s.mainLocks == 0
}

// track maintains what joined reads and the region catalogue.
func (s *Splitter) track(ev *event) {
	switch ev.kind {
	case evMainTask:
		// A new run: replay refuses it while a task of the run before is
		// live, so everything before it happens before it and all
		// tracking resets.
		s.haveMain, s.mainTask, s.mainFin = true, ev.args[0], ev.args[1]
		s.open, s.mainLocks, s.escaped = 0, 0, false
	case evSpawn:
		s.escaped = s.escaped || ev.args[2] == s.mainFin
	case evFinishStart:
		s.open++
	case evFinishEnd:
		// The main task's implicit finish wraps the whole run and is
		// never counted as an open scope, mirroring how it is opened by
		// evMainTask rather than evFinishStart.
		if !(s.haveMain && ev.args[1] == s.mainFin) && s.open > 0 {
			s.open--
		}
	case evAcquire:
		if s.haveMain && ev.args[0] == s.mainTask {
			s.mainLocks++
		}
	case evRelease:
		if s.haveMain && ev.args[0] == s.mainTask && s.mainLocks > 0 {
			s.mainLocks--
		}
	case evNewShadow, evNewShadowGrow:
		s.regions = append(s.regions, declOf(ev))
	}
}

// begin starts a segment buffer with the header that makes what follows a
// complete trace: magic + executor byte, a synthetic main-task event
// (unless the buffer opens with the real one), and re-declarations of
// every region announced in earlier segments.
func (s *Splitter) begin(realMain bool) {
	s.buf = appendHeader(make([]byte, 0, s.prevLen+s.prevLen/8), s.dec.sequential)
	if s.haveMain && !realMain {
		s.buf = appendEvent(s.buf, evMainTask, s.mainTask, s.mainFin)
	}
	for i, d := range s.regions[:s.declared] {
		s.buf = appendDecl(s.buf, int64(i), d)
	}
	s.hdr = len(s.buf)
}

// cut hands the buffer over as a segment; the next event opens a fresh one.
func (s *Splitter) cut() []byte {
	seg := s.buf
	s.buf, s.hdr, s.prevLen = nil, 0, len(seg)
	s.segments++
	s.declared = len(s.regions)
	return seg
}

// Unsplit abandons sharding and returns a reader for the whole
// remaining trace: the buffered prefix (a self-contained trace already),
// followed by the still-undecoded tail of the stream. Call it after
// ErrSegmentOversize to fall back to single-stream analysis without
// losing the bytes already consumed.
func (s *Splitter) Unsplit() io.Reader {
	if s.done {
		return bytes.NewReader(nil)
	}
	if len(s.buf) == 0 {
		s.begin(false)
	}
	seg := s.buf
	s.buf = nil
	s.done = true
	return io.MultiReader(bytes.NewReader(seg), s.dec.br)
}
