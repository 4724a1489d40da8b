// Package governor provides admission control for the concurrent PRIMACY
// paths. A Governor enforces two independent budgets over in-flight work —
// total bytes of input admitted and number of concurrent admissions — so a
// burst of large shards degrades to queuing at the admission gate instead of
// ballooning resident memory on a busy compute node. Waiters are served in
// FIFO order (no starvation of large requests behind a stream of small ones)
// and every wait is cancellable through a context.
//
// A nil *Governor is valid and admits everything immediately, so callers
// thread an optional governor without branching.
package governor

import (
	"context"
	"fmt"
	"sync"

	"primacy/internal/obs"
	"primacy/internal/trace"
)

// Governor admits units of work against a memory budget and a concurrency
// cap. The zero value admits everything (both limits unlimited); use New to
// set limits. All methods are safe for concurrent use.
type Governor struct {
	mu sync.Mutex
	// memBudget caps the sum of in-flight admission weights (0 = unlimited).
	memBudget int64
	// maxConc caps the number of in-flight admissions (0 = unlimited).
	maxConc int
	// memUsed and inFlight track current admissions.
	memUsed  int64
	inFlight int
	// waiters holds blocked Acquire calls in arrival order.
	waiters []*waiter

	// obs receives root governor.wait spans, m the governor's metrics.
	obs *obs.Observer
	m   *metrics
}

type waiter struct {
	bytes   int64
	ready   chan struct{}
	granted bool
}

// New returns a Governor with the given budgets. memBudget is the maximum
// total bytes admitted at once and maxConcurrent the maximum concurrent
// admissions; zero (or negative) disables the respective limit. The
// governor reports to o (nil records nothing).
func New(memBudget int64, maxConcurrent int, o *obs.Observer) *Governor {
	g := &Governor{obs: o, m: bundle.Of(o)}
	if memBudget > 0 {
		g.memBudget = memBudget
	}
	if maxConcurrent > 0 {
		g.maxConc = maxConcurrent
	}
	return g
}

// metrics returns the governor's bundle; a zero Governor, built without
// New, records nothing.
func (g *Governor) metrics() *metrics {
	if g.m == nil {
		return bundle.Of(nil)
	}
	return g.m
}

// clamp bounds a request weight to the budget so one oversized request is
// admitted alone (once the governor drains) instead of deadlocking. Acquire
// and Release apply the same clamp, keeping their accounting symmetric.
func (g *Governor) clamp(bytes int64) int64 {
	if bytes < 0 {
		bytes = 0
	}
	if g.memBudget > 0 && bytes > g.memBudget {
		bytes = g.memBudget
	}
	return bytes
}

// admits reports whether a request of the given weight fits right now.
// Callers hold g.mu.
func (g *Governor) admits(bytes int64) bool {
	if g.memBudget > 0 && g.memUsed+bytes > g.memBudget {
		return false
	}
	if g.maxConc > 0 && g.inFlight >= g.maxConc {
		return false
	}
	return true
}

// take records an admission. Callers hold g.mu.
func (g *Governor) take(bytes int64) {
	g.memUsed += bytes
	g.inFlight++
}

// Acquire blocks until the request is admitted or ctx is done, returning
// ctx.Err() in the latter case. Every successful Acquire must be paired with
// a Release of the same weight. A nil Governor admits immediately.
func (g *Governor) Acquire(ctx context.Context, bytes int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if g == nil {
		return nil
	}
	m := g.metrics()
	bytes = g.clamp(bytes)
	g.mu.Lock()
	// Fast path: admitted now, and no earlier waiter is owed the capacity.
	if len(g.waiters) == 0 && g.admits(bytes) {
		g.take(bytes)
		g.mu.Unlock()
		m.acquires.Inc()
		m.inFlight.Add(1)
		m.inFlightBytes.Add(bytes)
		return nil
	}
	w := &waiter{bytes: bytes, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	m.blocked.Inc()
	m.queueDepth.Add(1)
	sp := m.waitSeconds.Start()
	// The fast path stays span-free; only an actual wait is worth a trace
	// record.
	ts := g.obs.Start(ctx, "governor.wait").Attr("bytes", bytes)
	ts.Event(trace.KindGovernorWait, "admission blocked on budget")
	select {
	case <-w.ready:
		ts.End(nil)
		sp.End()
		m.acquires.Inc()
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// Release raced the cancellation and already granted us the
			// capacity; hand it back before reporting the cancellation.
			// The granting Release already settled the queue-depth and
			// in-flight gauges; this Release undoes the in-flight side.
			g.mu.Unlock()
			m.cancelled.Inc()
			g.Release(bytes)
			ts.Anomaly(trace.KindGovernorCancelled, "wait cancelled after grant raced cancellation")
			ts.End(ctx.Err())
			return ctx.Err()
		}
		for i, q := range g.waiters {
			if q == w {
				g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
				break
			}
		}
		g.mu.Unlock()
		m.cancelled.Inc()
		m.queueDepth.Add(-1)
		ts.Anomaly(trace.KindGovernorCancelled, "wait cancelled before admission")
		ts.End(ctx.Err())
		return ctx.Err()
	}
}

// Release returns capacity admitted by Acquire (same weight) and wakes
// queued waiters, in arrival order, for as long as they fit.
func (g *Governor) Release(bytes int64) {
	if g == nil {
		return
	}
	m := g.metrics()
	bytes = g.clamp(bytes)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.memUsed -= bytes
	g.inFlight--
	if g.memUsed < 0 || g.inFlight < 0 {
		panic(fmt.Sprintf("governor: release without acquire (mem=%d inflight=%d)",
			g.memUsed, g.inFlight))
	}
	m.inFlight.Add(-1)
	m.inFlightBytes.Add(-bytes)
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		if !g.admits(w.bytes) {
			return
		}
		g.take(w.bytes)
		w.granted = true
		close(w.ready)
		g.waiters = g.waiters[1:]
		m.queueDepth.Add(-1)
		m.inFlight.Add(1)
		m.inFlightBytes.Add(w.bytes)
	}
}

// InFlight reports the current admissions and admitted bytes (diagnostics
// and tests).
func (g *Governor) InFlight() (admissions int, bytes int64) {
	if g == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inFlight, g.memUsed
}

// Waiting reports how many Acquire calls are currently queued.
func (g *Governor) Waiting() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiters)
}
