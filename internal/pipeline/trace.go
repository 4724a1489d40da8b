package pipeline

import (
	"sync/atomic"

	"primacy/internal/trace"
)

// ttrc is the parallel runner's tracer, mirroring the tmet pattern: loaded
// once per call (and once per worker goroutine), nil when tracing is off.
var ttrc atomic.Pointer[trace.Tracer]

// EnableTracing routes the parallel runner's spans to t; a nil t disables
// tracing.
func EnableTracing(t *trace.Tracer) {
	ttrc.Store(t)
}

// startSpan opens the call's root span: nested under a caller span when the
// context carries one, a fresh root otherwise, inert when tracing is off.
func startSpan(parent trace.Span, name string) trace.Span {
	if parent.Active() {
		return parent.Child(name)
	}
	return ttrc.Load().Start(name)
}
