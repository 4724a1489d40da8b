// Package retry wraps sink/source I/O in a retry-with-backoff policy for
// transient errors — the staging transports and parallel filesystems PRIMACY
// writes through drop connections and return EAGAIN-class failures under
// load, and an in-situ compressor that aborts a checkpoint on the first
// transient fault wastes the compute it was meant to save.
//
// The zero Policy performs no retries, so callers thread an optional policy
// without branching.
package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"primacy/internal/obs"
	"primacy/internal/trace"
)

// Policy describes how transient failures are retried: up to Attempts total
// tries, sleeping Backoff, 2*Backoff, 4*Backoff, ... between them, retrying
// only errors Classify accepts.
type Policy struct {
	// Attempts is the total number of tries (1 or less means no retries).
	Attempts int
	// Backoff is the delay before the first retry; it doubles per retry.
	// Zero retries immediately.
	Backoff time.Duration
	// Classify reports whether an error is transient (retryable). Nil
	// retries every error except context cancellation.
	Classify func(error) bool
	// Jitter applies full jitter: each delay is drawn uniformly from
	// [0, exponential backoff) instead of being the exponential value
	// itself. Synchronized clients that fail together (a sink hiccup under
	// burst load) then retry decorrelated instead of stampeding the sink in
	// lockstep at the same doubling instants.
	Jitter bool
	// Rand supplies the uniform [0,1) variates Jitter draws from (tests
	// inject a deterministic source). Nil uses math/rand's global source.
	Rand func() float64
	// Sleep overrides the delay function (tests). Nil sleeps for real,
	// waking early if ctx is cancelled.
	Sleep func(time.Duration)
}

// Enabled reports whether the policy performs any retries.
func (p Policy) Enabled() bool { return p.Attempts > 1 }

func (p Policy) retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if p.Classify != nil {
		return p.Classify(err)
	}
	return true
}

// jittered draws a full-jitter delay uniformly from [0, d).
func (p Policy) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	u := rand.Float64
	if p.Rand != nil {
		u = p.Rand
	}
	return time.Duration(u() * float64(d))
}

func (p Policy) sleep(ctx context.Context, d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Do runs op under the policy: transient failures are retried with
// exponential backoff until an attempt succeeds, the error is classified
// permanent, attempts run out, or ctx is done (which returns ctx.Err()).
// Attempts are recorded on the observer ctx carries.
func (p Policy) Do(ctx context.Context, op func() error) error {
	m := bundle.Of(obs.From(ctx))
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	delay := p.Backoff
	// The span is opened lazily on the first failure: a first-try success —
	// the overwhelmingly common case — never touches the tracer.
	var ts trace.Span
	var err error
	for try := 0; try < attempts; try++ {
		if cerr := ctx.Err(); cerr != nil {
			ts.End(cerr)
			return cerr
		}
		m.attempts.Inc()
		if try > 0 {
			m.retries.Inc()
		}
		if err = op(); err == nil {
			ts.End(nil)
			return nil
		}
		if !ts.Active() {
			ts = obs.Start(ctx, "retry.op")
		}
		if ts.Active() {
			ts.Event(trace.KindRetry, fmt.Sprintf("attempt %d failed: %v", try+1, err))
		}
		if !p.retryable(err) {
			ts.End(err)
			return err
		}
		if try == attempts-1 {
			m.exhausted.Inc()
			ts.Anomaly(trace.KindRetryExhausted, err.Error())
			ts.End(err)
			return err
		}
		wait := delay
		if p.Jitter {
			wait = p.jittered(delay)
		}
		m.backoffSeconds.Observe(wait.Seconds())
		p.sleep(ctx, wait)
		delay *= 2
	}
	ts.End(err)
	return err
}

// Writer retries transient write failures of an underlying writer. Bytes the
// underlying writer reports consumed are never re-sent, so a sink that fails
// mid-write does not receive duplicates.
type Writer struct {
	ctx context.Context
	w   io.Writer
	p   Policy
}

// NewWriter wraps w with the policy. ctx bounds every retry wait; nil means
// no cancellation.
func NewWriter(ctx context.Context, w io.Writer, p Policy) *Writer {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Writer{ctx: ctx, w: w, p: p}
}

// Write implements io.Writer with retries on transient errors.
func (rw *Writer) Write(b []byte) (int, error) {
	wrote := 0
	err := rw.p.Do(rw.ctx, func() error {
		n, werr := rw.w.Write(b[wrote:])
		wrote += n
		if werr == nil && wrote < len(b) {
			return io.ErrShortWrite
		}
		return werr
	})
	return wrote, err
}

// Reader retries transient read failures of an underlying reader.
type Reader struct {
	ctx context.Context
	r   io.Reader
	p   Policy
}

// NewReader wraps r with the policy. ctx bounds every retry wait; nil means
// no cancellation.
func NewReader(ctx context.Context, r io.Reader, p Policy) *Reader {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Reader{ctx: ctx, r: r, p: p}
}

// Read implements io.Reader with retries on transient errors. A read that
// returns data alongside a transient error is surfaced as a successful short
// read (the error re-occurs, or not, on the next call); io.EOF is never
// retried.
func (rr *Reader) Read(b []byte) (int, error) {
	read := 0
	var eof error
	err := rr.p.Do(rr.ctx, func() error {
		n, rerr := rr.r.Read(b[read:])
		read += n
		if rerr == io.EOF {
			// EOF is a terminal condition, not a fault — smuggle it past
			// Do so a permissive Classify never retries it.
			eof = rerr
			return nil
		}
		if n > 0 && rerr != nil && rr.p.retryable(rerr) {
			// Partial read with a transient error: deliver the bytes now;
			// the error resurfaces (or clears) on the next Read call.
			return nil
		}
		return rerr
	})
	if err == nil {
		err = eof
	}
	if err == io.EOF && read > 0 {
		return read, nil
	}
	return read, err
}
