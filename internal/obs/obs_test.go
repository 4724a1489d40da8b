package obs

import (
	"context"
	"testing"

	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

type testMetrics struct{ calls *telemetry.Counter }

var builds int

var testBundle = NewBundle(func(r *telemetry.Registry) *testMetrics {
	builds++
	return &testMetrics{calls: r.Counter("obs_test_calls_total", "Test calls.")}
})

// Without an observer, looking it up and opening a span cost no
// allocation: the disabled path of every instrumented call.
func TestDisabledPathAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		o := From(ctx)
		s := Start(ctx, "op").Attr("bytes", 1)
		s.Child("stage").End(nil)
		s.End(nil)
		testBundle.Of(o).calls.Inc()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v allocs/op, want 0", allocs)
	}
}

func TestNilObserver(t *testing.T) {
	if New(nil, nil) != nil {
		t.Fatal("New(nil, nil) is not the nil observer")
	}
	ctx := context.Background()
	if With(ctx, nil) != ctx {
		t.Fatal("With(ctx, nil) grew the context")
	}
	var o *Observer
	if o.Tracer() != nil || o.Start(ctx, "x").Active() {
		t.Fatal("nil observer records something")
	}
	if m := testBundle.Of(nil); m == nil || m.calls != nil {
		t.Fatal("nil observer's bundle is not the all-nil bundle")
	}
}

// Each observer builds each bundle once, on its own registry, and two
// observers never share metrics or spans.
func TestObserversAreSeparate(t *testing.T) {
	before := builds
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	trA, trB := trace.New(trace.Config{}), trace.New(trace.Config{})
	a := New(regA, trA)
	New(regB, trB)
	if builds != before+2 {
		t.Fatalf("bundle built %d times for two observers, want 2", builds-before)
	}
	ctxA := With(context.Background(), a)
	for i := 0; i < 3; i++ {
		testBundle.Of(From(ctxA)).calls.Inc()
		Start(ctxA, "op").End(nil)
	}
	if builds != before+2 {
		t.Fatal("bundle rebuilt on lookup")
	}
	if v, _ := regA.Snapshot().Counter("obs_test_calls_total"); v != 3 {
		t.Fatalf("A's counter = %d, want 3", v)
	}
	if v, ok := regB.Snapshot().Counter("obs_test_calls_total"); !ok || v != 0 {
		t.Fatalf("B's counter = %d (registered %v), want 0", v, ok)
	}
	if trA.SpanCount() != 3 || trB.SpanCount() != 0 {
		t.Fatalf("span counts A=%d B=%d, want 3 and 0", trA.SpanCount(), trB.SpanCount())
	}
	if testBundle.Of(New(nil, trA)).calls != nil {
		t.Fatal("a tracer-only observer records metrics")
	}
}

// A span opens under the span the context carries, else as a root on the
// context's observer.
func TestStartNests(t *testing.T) {
	tr := trace.New(trace.Config{})
	other := trace.New(trace.Config{})
	ctx := With(context.Background(), New(nil, tr))
	root := Start(ctx, "root")
	child := Start(trace.ContextWithSpan(With(ctx, New(nil, other)), root), "child")
	child.End(nil)
	root.End(nil)
	recs := tr.Spans()
	if len(recs) != 2 || recs[0].Name != "child" || recs[0].Parent != recs[1].ID || recs[1].Parent != 0 {
		t.Fatalf("spans = %+v, want child under root", recs)
	}
	if other.SpanCount() != 0 {
		t.Fatal("a child span went to the context's observer instead of its parent's tracer")
	}
}
