package pipeline

import (
	"context"
	"testing"
	"time"

	"primacy/internal/core"
	"primacy/internal/faultinject"
	"primacy/internal/governor"
	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// observed returns a fresh registry, its observer, and a context whose
// calls report to it; nothing outside the context sees the registry.
func observed() (*telemetry.Registry, *obs.Observer, context.Context) {
	reg := telemetry.NewRegistry()
	o := obs.New(reg, nil)
	return reg, o, obs.With(context.Background(), o)
}

// A governed pipeline run must surface admission waits, shard counts, core
// chunk/byte accounting, and stage timings on the registry.
func TestPipelineTelemetryEndToEnd(t *testing.T) {
	reg, o, ctx := observed()

	const chunk = 8 << 10
	raw := testData(6 * chunk / 8) // 6 chunks
	g := governor.New(0, 1, o)
	opts := Options{
		Workers:  2,
		Core:     core.Options{ChunkBytes: chunk},
		Governor: g,
	}

	// Hold the governor's only slot so the first shard must queue: the wait
	// metrics are then guaranteed nonzero, not racing the workers.
	if err := g.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("pre-acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := CompressCtx(ctx, raw, opts)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for g.Waiting() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g.Waiting() == 0 {
		t.Fatal("no shard ever queued at the governor")
	}
	g.Release(1)
	if err := <-done; err != nil {
		t.Fatalf("Compress: %v", err)
	}

	snap := reg.Snapshot()
	if v, _ := snap.Counter("primacy_pipeline_shards_total"); v != 6 {
		t.Errorf("shards_total = %d, want 6, one per chunk", v)
	}
	if v, _ := snap.Counter("primacy_governor_blocked_total"); v < 1 {
		t.Errorf("governor blocked_total = %d, want >= 1", v)
	}
	if h, ok := snap.Histogram("primacy_governor_wait_seconds"); !ok || h.Count < 1 {
		t.Errorf("governor wait histogram count = %d, want >= 1", h.Count)
	}
	if v, _ := snap.Gauge("primacy_governor_queue_depth"); v != 0 {
		t.Errorf("queue depth after completion = %d, want 0", v)
	}
	if v, _ := snap.Gauge("primacy_governor_inflight"); v != 0 {
		t.Errorf("inflight after completion = %d, want 0", v)
	}
	if v, _ := snap.Counter("primacy_core_chunks_total"); v != 6 {
		t.Errorf("chunks_total = %d, want 6", v)
	}
	if v, _ := snap.Counter("primacy_core_raw_bytes_total"); v != int64(len(raw)) {
		t.Errorf("raw_bytes_total = %d, want %d", v, len(raw))
	}
	if v, _ := snap.Counter("primacy_core_compressed_bytes_total"); v <= 0 {
		t.Errorf("compressed_bytes_total = %d, want > 0", v)
	}
	for _, name := range []string{
		"primacy_core_bytesplit_seconds",
		"primacy_core_freqmap_seconds",
		"primacy_core_solver_seconds",
		"primacy_pipeline_shard_seconds",
	} {
		if h, ok := snap.Histogram(name); !ok || h.Count < 1 {
			t.Errorf("%s count = %d, want >= 1", name, h.Count)
		}
	}
}

// Solver faults degrade chunks to raw passthrough; the degraded-chunk
// counter must record every one.
func TestDegradedChunkMetric(t *testing.T) {
	reg, _, ctx := observed()

	fi, err := faultinject.New("tlm-degrade", "zlib")
	if err != nil {
		t.Fatalf("faultinject.New: %v", err)
	}
	fi.FailCompress = true
	defer func() { fi.FailCompress = false }()

	const chunk = 8 << 10
	raw := testData(4 * chunk / 8)
	_, err = CompressCtx(ctx, raw, Options{
		Workers: 2,
		Core:    core.Options{ChunkBytes: chunk, Solver: "tlm-degrade"},
	})
	if err != nil {
		t.Fatalf("Compress with faulting solver: %v", err)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("primacy_core_degraded_chunks_total"); v != 4 {
		t.Errorf("degraded_chunks_total = %d, want 4", v)
	}
}

// The pipeline records exactly the core telemetry a sequential
// core.Compress of the same input records, plus one shard per chunk.
func TestPipelineTelemetryMatchesCore(t *testing.T) {
	reg, _, ctx := observed()
	raw := testData(5000)
	opts := core.Options{ChunkBytes: 4 << 10}
	if _, err := core.CompressCtx(ctx, raw, opts); err != nil {
		t.Fatal(err)
	}
	want := reg.Snapshot()
	chunks, _ := want.Counter("primacy_core_chunks_total")
	if _, err := CompressCtx(ctx, raw, Options{Core: opts, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	got := reg.Snapshot()
	for _, name := range []string{
		"primacy_core_chunks_total",
		"primacy_core_degraded_chunks_total",
		"primacy_core_raw_bytes_total",
		"primacy_core_compressed_bytes_total",
		"primacy_core_solver_input_bytes_total",
		"primacy_core_hi_raw_bytes_total",
		"primacy_core_hi_compressed_bytes_total",
		"primacy_core_lo_compressible_bytes_total",
		"primacy_core_lo_compressed_bytes_total",
		"primacy_core_index_bytes_total",
	} {
		w, _ := want.Counter(name)
		g, _ := got.Counter(name)
		if g != 2*w {
			t.Errorf("%s: pipeline added %d, core.Compress %d", name, g-w, w)
		}
	}
	if v, _ := got.Counter("primacy_pipeline_shards_total"); v != chunks {
		t.Errorf("shards_total = %d, want the chunk count %d", v, chunks)
	}
}
