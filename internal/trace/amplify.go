package trace

import (
	"bytes"
	"fmt"
	"io"
)

// Amplifier synthesizes an N×-larger trace from a single-run base
// trace, streaming it out through io.Reader so a multi-gigabyte load
// body never exists in memory at once.
//
// Naive concatenation of trace bodies is unsound: repeating the
// main-task event makes vector-clock detectors treat each copy's tasks
// as concurrent with every other copy's, conjuring races that the base
// program cannot exhibit. The amplifier instead keeps one main task M
// and wraps each copy k in its own finish scope:
//
//	FinishStart(M, W_k)          // wrap finish for copy k
//	Spawn(M, M_k, W_k)           // copy's stand-in main task
//	FinishStart(M_k, F0_k)       // stand-in for the base's implicit finish
//	...base body, IDs remapped...
//	FinishEnd(M, W_k)
//
// Every id shifts by a per-copy stride of its ID space (formats): task,
// finish and lock ids past the base's maxima, region ids by the base's
// region count, keeping the sequential-declaration invariant. Because W_k
// closes before W_{k+1} opens, the DPST orders the copies totally: the
// amplified trace is race-free iff the base is, every race in a copy is
// the base's race relocated, and the layout stays depth-first, so
// sequential-only detectors remain legal. Each FinishEnd(M, W_k) is also
// a top-level finish boundary, which is what lets the Splitter shard
// amplified load back into base-sized segments.
type Amplifier struct {
	base   []byte
	copies int
	seq    bool

	mainTask, mainFin int64
	// stride is max id + 1 of each ID space in the base (for regions the
	// declaration count: replay takes region ids in declaration order);
	// plain arguments have stride 0.
	stride     [numSpaces]int64
	hasMainEnd bool // the base ends its main task
	hasFinEnd  bool // the base ends its implicit finish
	// closeF0: a copy ends F0_k itself — the base never ends its implicit
	// finish, and its main neither ended nor left a finish of its own
	// open (only an older recording of a main body that panicked inside
	// a finish, or a hand-written trace).
	closeF0 bool

	stage int // 0 prologue, 1 copies, 2 epilogue, 3 done
	k     int
	out   bytes.Buffer
	err   error
}

// NewAmplifier validates and pre-scans base (a complete recorded trace
// of a single run) and returns a reader producing the amplified trace
// with copies repetitions of the base body.
func NewAmplifier(base []byte, copies int) (*Amplifier, error) {
	if copies < 1 {
		return nil, fmt.Errorf("trace: amplify: copies must be >= 1, got %d", copies)
	}
	dec, err := newDecoder(bytes.NewReader(base))
	if err != nil {
		return nil, err
	}
	a := &Amplifier{base: base, copies: copies, seq: dec.sequential}
	first := true
	mainOpen := 0 // explicit finishes the main task has open
	var ev event
	for {
		err := dec.next(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		f := &formats[ev.kind]
		for i, sp := range f.args[:f.n] {
			if sp == plain {
				continue
			}
			if ev.args[i] < 0 {
				return nil, fmt.Errorf("trace: %w: amplify base has a negative id %d", ErrMalformed, ev.args[i])
			}
			a.stride[sp] = max(a.stride[sp], ev.args[i]+1)
		}
		switch {
		case ev.kind == evMainTask:
			if !first {
				return nil, fmt.Errorf("trace: %w: amplify base contains more than one run", ErrMalformed)
			}
			a.mainTask, a.mainFin = ev.args[0], ev.args[1]
			first = false
		case first:
			// Real recordings declare shadow regions created before the
			// runtime starts ahead of the main-task event.
			if ev.kind != evNewShadow && ev.kind != evNewShadowGrow {
				return nil, fmt.Errorf("trace: %w: amplify base must open with its main task", ErrMalformed)
			}
		case ev.kind == evTaskEnd && ev.args[0] == a.mainTask:
			a.hasMainEnd = true
		case ev.kind == evFinishEnd && ev.args[1] == a.mainFin:
			a.hasFinEnd = true
		case ev.kind == evFinishStart && ev.args[0] == a.mainTask:
			mainOpen++
		case ev.kind == evFinishEnd && ev.args[0] == a.mainTask:
			mainOpen--
		}
	}
	if first {
		return nil, fmt.Errorf("trace: %w: amplify base has no events", ErrMalformed)
	}
	a.closeF0 = !a.hasFinEnd && !a.hasMainEnd && mainOpen == 0
	return a, nil
}

// SizeHint estimates the amplified trace's byte length. Copy overhead
// (wrap events, widened varints) makes the true size slightly larger.
func (a *Amplifier) SizeHint() int64 {
	body := int64(len(a.base)) - int64(len(magic)) - 1
	if body < 0 {
		body = 0
	}
	return int64(len(magic)) + 1 + int64(a.copies)*(body+32) + 16
}

func (a *Amplifier) Read(p []byte) (int, error) {
	for a.out.Len() == 0 {
		if a.err != nil {
			return 0, a.err
		}
		switch a.stage {
		case 0:
			a.out.Write(appendEvent(appendHeader(a.out.AvailableBuffer(), a.seq), evMainTask, a.mainTask, a.mainFin))
			a.stage = 1
		case 1:
			if a.k == a.copies {
				a.stage = 2
				continue
			}
			a.emitCopy(a.k)
			a.k++
		case 2:
			var tail []byte
			if a.hasFinEnd {
				tail = appendEvent(tail, evFinishEnd, a.mainTask, a.mainFin)
			}
			if a.hasMainEnd {
				tail = appendEvent(tail, evTaskEnd, a.mainTask)
			}
			a.out.Write(tail)
			a.stage = 3
		case 3:
			return 0, io.EOF
		}
	}
	return a.out.Read(p)
}

// emitCopy writes copy k (wrap finish + remapped base body) into the
// output buffer.
func (a *Amplifier) emitCopy(k int) {
	dec, err := newDecoder(bytes.NewReader(a.base))
	if err != nil {
		a.err = err // unreachable: the prescan decoded the same bytes
		return
	}
	var shift [numSpaces]int64
	for sp, stride := range a.stride {
		shift[sp] = stride * int64(k+1)
	}
	shift[regionID] = a.stride[regionID] * int64(k)
	// Wrap-finish IDs live past every per-copy shifted range.
	wrapF := a.stride[finishID]*int64(a.copies+1) + int64(k)
	mt := a.mainTask
	cm, cf := mt+shift[taskID], a.mainFin+shift[finishID]

	buf := a.out.AvailableBuffer()
	buf = appendEvent(buf, evFinishStart, mt, wrapF)
	buf = appendEvent(buf, evSpawn, mt, cm, wrapF)
	buf = appendEvent(buf, evFinishStart, cm, cf)
	var ev event
	for {
		err := dec.next(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			a.err = err // unreachable, as above
			return
		}
		if ev.kind == evMainTask {
			continue // replaced by the wrap prologue above
		}
		f := &formats[ev.kind]
		for i, sp := range f.args[:f.n] {
			ev.args[i] += shift[sp]
		}
		buf = appendEv(buf, &ev)
	}
	// Close what the base left open, in contract order: a copy whose
	// stand-in main cannot legally close F0_k leaves it dangling exactly
	// like the base's implicit finish.
	if a.closeF0 {
		buf = appendEvent(buf, evFinishEnd, cm, cf)
	}
	if !a.hasMainEnd {
		buf = appendEvent(buf, evTaskEnd, cm)
	}
	buf = appendEvent(buf, evFinishEnd, mt, wrapF)
	a.out.Write(buf)
}

// AmplifyBytes materializes an amplified trace in memory — test and
// small-scale convenience; production paths stream the Amplifier.
func AmplifyBytes(base []byte, copies int) ([]byte, error) {
	a, err := NewAmplifier(base, copies)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(a)
}
