// Package obs carries where instrumentation goes — a metrics registry and a
// tracer — as one value, the Observer. Per-call code reads it from the
// call's context, next to the parent span (trace.SpanFromContext);
// long-lived objects (the durable store, the fair-share admitter, the
// governor) take it once when they are built. Two observers in one process
// never see each other's metrics or spans.
//
// Each instrumented package declares its metric bundle once with
// NewBundle; New builds every declared bundle on the observer's registry,
// so an observer exposes every metric family from the start and hot paths
// only index a slice. Without an observer, or without a registry, Of hands
// out a bundle of nil handles, each of which records nothing.
package obs

import (
	"context"

	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// Observer is the destination of one call's (or one object's)
// instrumentation. A nil *Observer records nothing.
type Observer struct {
	tracer  *trace.Tracer
	bundles []any
}

// builders holds the bundle constructors declared by NewBundle, in
// declaration order. It is filled during package initialization only.
var builders []func(*telemetry.Registry) any

// New returns an observer reporting metrics to reg and spans to tracer;
// either may be nil. Both nil returns nil, the observer that records
// nothing.
func New(reg *telemetry.Registry, tracer *trace.Tracer) *Observer {
	if reg == nil && tracer == nil {
		return nil
	}
	o := &Observer{tracer: tracer}
	if reg != nil {
		o.bundles = make([]any, len(builders))
		for i, build := range builders {
			o.bundles[i] = build(reg)
		}
	}
	return o
}

// Tracer returns the observer's tracer (nil when none).
func (o *Observer) Tracer() *trace.Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Start opens span name: a child of the span ctx carries if there is one,
// else a root on o's tracer, else an inert span.
func (o *Observer) Start(ctx context.Context, name string) trace.Span {
	if s := trace.SpanFromContext(ctx); s.Active() {
		return s.Child(name)
	}
	return o.Tracer().Start(name)
}

type ctxKey struct{}

// With returns ctx carrying o. A nil o returns ctx unchanged.
func With(ctx context.Context, o *Observer) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, o)
}

// From returns the observer ctx carries, or nil.
func From(ctx context.Context) *Observer {
	o, _ := ctx.Value(ctxKey{}).(*Observer)
	return o
}

// Start opens span name for a call made with ctx: a child of the span ctx
// carries if there is one, else a root on the tracer of the observer ctx
// carries, else an inert span.
func Start(ctx context.Context, name string) trace.Span {
	return From(ctx).Start(ctx, name)
}

// Bundle names one package's metric bundle of type T.
type Bundle[T any] struct {
	i    int
	none *T
}

// NewBundle declares a metric bundle built by build on every observer's
// registry. Call it from a package-level variable declaration.
func NewBundle[T any](build func(*telemetry.Registry) *T) Bundle[T] {
	builders = append(builders, func(r *telemetry.Registry) any { return build(r) })
	return Bundle[T]{i: len(builders) - 1, none: new(T)}
}

// Of returns o's instance of the bundle, or a bundle of nil handles when o
// has no registry. Callers never write to the returned bundle.
func (b Bundle[T]) Of(o *Observer) *T {
	if o == nil || b.i >= len(o.bundles) {
		return b.none
	}
	return o.bundles[b.i].(*T)
}
