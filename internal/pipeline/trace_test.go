package pipeline

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"primacy/internal/core"
	"primacy/internal/obs"
	"primacy/internal/trace"
)

// Spans nest correctly across goroutine boundaries: worker goroutines open
// pipeline.shard children under the call's root span, one per chunk, and
// each chunk's core span nests under the shard that ran it via the shard
// context. The core.compress span of the whole container hangs off the
// root. Run under -race in CI.
func TestShardSpansNestAcrossWorkers(t *testing.T) {
	tr := trace.New(trace.Config{Capacity: 8192})
	ctx := obs.With(context.Background(), obs.New(nil, tr))

	// 4096 elements = 32 KiB of input at 16 KiB chunks = 2 shards/direction.
	data := shardTestData(4096, 42)
	opts := Options{Workers: 4, Core: core.Options{ChunkBytes: 16 << 10}}
	enc, err := CompressCtx(ctx, data, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressCtx(ctx, enc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("round trip mismatch")
	}

	recs := tr.Spans()
	byID := map[uint64]trace.SpanRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	count := map[string]int{}
	for _, r := range recs {
		count[r.Name]++
		p, ok := byID[r.Parent]
		switch r.Name {
		case "pipeline.compress", "pipeline.decompress":
			if r.Parent != 0 {
				t.Fatalf("root span %s has parent %d", r.Name, r.Parent)
			}
		case "pipeline.shard":
			if !ok || (p.Name != "pipeline.compress" && p.Name != "pipeline.decompress") {
				t.Fatalf("shard span parent = %+v", p)
			}
		case "core.compress":
			if !ok || p.Name != "pipeline.compress" {
				t.Fatalf("core.compress parent = %+v, want pipeline.compress", p)
			}
		case "core.chunk", "core.chunk.decode":
			if !ok || p.Name != "pipeline.shard" {
				t.Fatalf("%s parent = %+v, want a pipeline.shard span", r.Name, p)
			}
		}
	}
	if count["pipeline.compress"] != 1 || count["pipeline.decompress"] != 1 {
		t.Fatalf("root span counts = %v", count)
	}
	if count["pipeline.shard"] != 4 {
		t.Fatalf("shard spans = %d, want 4 (%v)", count["pipeline.shard"], count)
	}
	if count["core.compress"] != 1 || count["core.chunk"] != 2 || count["core.chunk.decode"] != 2 {
		t.Fatalf("core span counts = %v", count)
	}
	if count["core.stage.solver"] == 0 || count["core.stage.dec_solver"] == 0 {
		t.Fatalf("missing stage spans: %v", count)
	}
}

// A compression that fails on the workers still ends the container's
// core.compress span, with the error, so the flight recorder keeps the
// failed call it is meant to explain.
func TestFailedCompressEndsCoreSpan(t *testing.T) {
	tr := trace.New(trace.Config{Capacity: 1024})
	ctx, cancel := context.WithCancel(obs.With(context.Background(), obs.New(nil, tr)))
	cancel()
	data := shardTestData(4096, 42)
	_, err := CompressCtx(ctx, data, Options{Workers: 2, Core: core.Options{ChunkBytes: 8 << 10}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, r := range tr.Spans() {
		if r.Name != "core.compress" {
			continue
		}
		for _, ev := range r.Events {
			if ev.Kind == trace.KindError {
				return
			}
		}
		t.Fatalf("core.compress span ended without the error: %+v", r)
	}
	t.Fatal("core.compress span of the failed call was never ended")
}

// Tracing off: the whole layer must vanish behind nil checks — no spans, no
// recorder state, identical output.
func TestTracingDisabledIsInvisible(t *testing.T) {
	data := shardTestData(1024, 7)
	opts := Options{Workers: 2, Core: core.Options{ChunkBytes: 4 << 10}}
	encOff, err := Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{})
	encOn, err := CompressCtx(obs.With(context.Background(), obs.New(nil, tr)), data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encOff, encOn) {
		t.Fatal("tracing changed the container bytes")
	}
	if tr.SpanCount() == 0 {
		t.Fatal("enabled tracer saw no spans")
	}
	encOff2, err := CompressCtx(context.Background(), data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encOff, encOff2) {
		t.Fatal("post-disable output differs")
	}
}
