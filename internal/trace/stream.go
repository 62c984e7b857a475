package trace

import (
	"fmt"
	"io"
	"sync/atomic"
)

// LimitedReader caps how many bytes may be read from an underlying
// stream, failing with an ErrLimit-wrapped error — not a silent EOF —
// when the cap is crossed. It replaces the http.MaxBytesReader +
// io.ReadAll pair in spd3d: the decoder pulls bytes through it
// incrementally, so an oversized body fails with the same typed
// sentinel the resource limits use (HTTP 413) without ever being
// buffered in full.
//
// Count is safe to call concurrently with Read; Read itself is not
// concurrency-safe, matching every other io.Reader.
type LimitedReader struct {
	r     io.Reader
	max   int64
	count atomic.Int64
	over  bool
}

// NewLimitedReader wraps r with an n-byte budget. A negative n means no
// limit (the reader only counts).
func NewLimitedReader(r io.Reader, n int64) *LimitedReader {
	return &LimitedReader{r: r, max: n}
}

// Count reports how many bytes have been read so far.
func (l *LimitedReader) Count() int64 { return l.count.Load() }

// errOverLimit builds the ErrLimit-wrapped overflow error.
func (l *LimitedReader) errOverLimit() error {
	return fmt.Errorf("%w: input exceeds %d bytes", ErrLimit, l.max)
}

func (l *LimitedReader) Read(p []byte) (int, error) {
	if l.over {
		return 0, l.errOverLimit()
	}
	if l.max >= 0 {
		if left := l.max - l.count.Load(); int64(len(p)) > left {
			// Allow one probe byte past the budget: a stream that ends
			// exactly at the cap must read its clean io.EOF, while one
			// more real byte proves overflow.
			p = p[:left+1]
		}
	}
	n, err := l.r.Read(p)
	total := l.count.Add(int64(n))
	if l.max >= 0 && total > l.max {
		l.over = true
		return int(l.max - (total - int64(n))), l.errOverLimit()
	}
	return n, err
}

// CancelReader makes a reader cancelable: every Read first polls the
// cancel channel and fails with an ErrCanceled-wrapped error once it is
// closed, which readErr passes through to replay's callers. A Read
// already blocked is bounded by the stream's own deadline — on spd3d the
// HTTP server's ReadTimeout — so whenever bytes are flowing,
// cancellation is seen at the next Read.
type CancelReader struct {
	r      io.Reader
	cancel <-chan struct{}
}

// NewCancelReader wraps r. cancel is typically ctx.Done().
func NewCancelReader(r io.Reader, cancel <-chan struct{}) *CancelReader {
	return &CancelReader{r: r, cancel: cancel}
}

func (c *CancelReader) Read(p []byte) (int, error) {
	select {
	case <-c.cancel:
		return 0, fmt.Errorf("%w: request canceled while reading", ErrCanceled)
	default:
		return c.r.Read(p)
	}
}
