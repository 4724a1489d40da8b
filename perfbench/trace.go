package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// tracer records spans around the benchmark's calls into each layer and
// counts taken at the same boundaries. Spans stay in memory and are written
// out once, at the end of the run. Spans do not nest, so a span's self time
// is its duration. A nil *tracer is the untraced run: every method is a
// no-op, so workload code calls it unconditionally. A tracer is used from
// one goroutine.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]float64
}

// span is one timed call; Start and End are nanoseconds since the tracer
// started.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its handle for end; 0 on a nil tracer.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// record adds a span timed elsewhere, for example a request timed by the
// load generator.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// add accumulates a count under name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] += v
}

// seconds sums the durations of the spans of each name.
func (t *tracer) seconds() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// writeJSONL writes every span, one JSON object per line, to path.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
