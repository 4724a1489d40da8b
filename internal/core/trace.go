package core

import (
	"sync/atomic"

	"primacy/internal/trace"
)

// ttrc is the codec's tracer, mirroring the tmet telemetry pattern: loaded
// once per Compress/Decompress call, nil when tracing is disabled so every
// span operation is a single nil check.
var ttrc atomic.Pointer[trace.Tracer]

// EnableTracing routes the codec's spans to t; a nil t disables tracing.
func EnableTracing(t *trace.Tracer) {
	ttrc.Store(t)
}

// startSpan opens a root-or-child span for one codec call: nested under the
// caller's span when the context carries one (pipelines, stream
// segments), a root span otherwise, and inert when tracing is off.
func startSpan(parent trace.Span, name string) trace.Span {
	if parent.Active() {
		return parent.Child(name)
	}
	return ttrc.Load().Start(name)
}

// traceAnomaly files a standalone anomaly span — used from paths that have
// no surrounding span, like salvage fault recording.
func traceAnomaly(name string, k trace.Kind, detail string) {
	t := ttrc.Load()
	if t == nil {
		return
	}
	s := t.Start(name)
	s.Anomaly(k, detail)
	s.End(nil)
}
