package server

import (
	"bufio"
	"bytes"
	"net/http"
	"strings"
	"testing"

	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// Two servers in one process report to their own registries and tracers:
// a compress on A moves A's codec counters and spans and leaves B's alone.
func TestTwoServersIsolated(t *testing.T) {
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	trA, trB := trace.New(trace.Config{}), trace.New(trace.Config{})
	_, tsA := newTestServer(t, Config{Metrics: regA, Tracer: trA})
	_, _ = newTestServer(t, Config{Metrics: regB, Tracer: trB})
	spansB := trB.SpanCount()

	resp, body := post(t, tsA.URL+"/v1/compress", testData(8_000, 3), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress on A: %d %s", resp.StatusCode, body)
	}
	if v, _ := regA.Snapshot().Counter("primacy_core_chunks_total"); v < 1 {
		t.Errorf("A's primacy_core_chunks_total = %d, want >= 1", v)
	}
	if v, ok := regB.Snapshot().Counter("primacy_core_chunks_total"); !ok || v != 0 {
		t.Errorf("B's primacy_core_chunks_total = %d (registered %v), want 0", v, ok)
	}
	stagesA := trA.StageTotals()
	for _, name := range []string{"server.compress", "pipeline.compress", "core.compress"} {
		if _, ok := stagesA[name]; !ok {
			t.Errorf("A's tracer has no %s span", name)
		}
	}
	if got := trB.SpanCount(); got != spansB {
		t.Errorf("B's tracer recorded %d spans during A's compress", got-spansB)
	}
}

// daemonFamilies are the metric families a durable daemon (Metrics, Tracer
// and DataDir set, as primacyd runs) exposes after a compress, a
// decompress, an archive put and an archive get. Labeled vectors with no
// child yet are not exposed and are not listed.
var daemonFamilies = []string{
	"primacy_archive_entries_read_total",
	"primacy_archive_entries_written_total",
	"primacy_archive_entry_bytes_total",
	"primacy_archive_read_bytes_total",
	"primacy_core_bytesplit_seconds",
	"primacy_core_chunks_total",
	"primacy_core_compressed_bytes_total",
	"primacy_core_decompress_prec_seconds",
	"primacy_core_decompress_solver_bytes_total",
	"primacy_core_decompress_solver_seconds",
	"primacy_core_decompressed_bytes_total",
	"primacy_core_degraded_chunks_total",
	"primacy_core_freqmap_seconds",
	"primacy_core_hi_compressed_bytes_total",
	"primacy_core_hi_raw_bytes_total",
	"primacy_core_index_bytes_total",
	"primacy_core_isobar_seconds",
	"primacy_core_lo_compressed_bytes_total",
	"primacy_core_lo_compressible_bytes_total",
	"primacy_core_precond_chain_chunks_total",
	"primacy_core_precond_predictxor_chunks_total",
	"primacy_core_raw_bytes_total",
	"primacy_core_salvage_faults_total",
	"primacy_core_solver_input_bytes_total",
	"primacy_core_solver_seconds",
	"primacy_durable_compact_failures_total",
	"primacy_durable_compact_seconds",
	"primacy_durable_compactions_total",
	"primacy_durable_dropped_sealed_total",
	"primacy_durable_fsync_seconds",
	"primacy_durable_journal_appends_total",
	"primacy_durable_journal_bytes_total",
	"primacy_durable_journal_repairs_total",
	"primacy_durable_recovered_entries_total",
	"primacy_durable_replay_duplicates_total",
	"primacy_durable_salvaged_segments_total",
	"primacy_durable_tenant_fsync_seconds",
	"primacy_durable_tenant_journal_appends_total",
	"primacy_durable_tenant_journal_bytes_total",
	"primacy_durable_torn_tail_bytes_total",
	"primacy_durable_torn_tails_total",
	"primacy_fairshare_admitted_total",
	"primacy_fairshare_blocked_total",
	"primacy_fairshare_cancelled_total",
	"primacy_fairshare_inflight",
	"primacy_fairshare_inflight_bytes",
	"primacy_fairshare_queue_depth",
	"primacy_fairshare_rejected_total",
	"primacy_fairshare_shed_total",
	"primacy_fairshare_wait_seconds",
	"primacy_governor_acquires_total",
	"primacy_governor_blocked_total",
	"primacy_governor_cancelled_total",
	"primacy_governor_inflight",
	"primacy_governor_inflight_bytes",
	"primacy_governor_queue_depth",
	"primacy_governor_wait_seconds",
	"primacy_pipeline_shard_errors_total",
	"primacy_pipeline_shard_seconds",
	"primacy_pipeline_shards_total",
	"primacy_retry_attempts_total",
	"primacy_retry_backoff_seconds",
	"primacy_retry_exhausted_total",
	"primacy_retry_retries_total",
	"primacy_runtime_gc_cycles",
	"primacy_runtime_gc_pause_total_ns",
	"primacy_runtime_gomaxprocs",
	"primacy_runtime_goroutines",
	"primacy_runtime_heap_alloc_bytes",
	"primacy_runtime_heap_objects",
	"primacy_runtime_heap_sys_bytes",
	"primacy_runtime_next_gc_bytes",
	"primacy_stream_raw_bytes_total",
	"primacy_stream_salvage_faults_total",
	"primacy_stream_salvage_resyncs_total",
	"primacy_stream_segment_bytes_total",
	"primacy_stream_segment_seconds",
	"primacy_stream_segments_total",
	"primacyd_build_info",
	"primacyd_cache_hits_total",
	"primacyd_cache_misses_total",
	"primacyd_cache_outcomes_total",
	"primacyd_cache_shared_total",
	"primacyd_client_error_total",
	"primacyd_deadline_total",
	"primacyd_drain_refused_total",
	"primacyd_ok_total",
	"primacyd_panics_total",
	"primacyd_queue_wait_seconds",
	"primacyd_request_bytes_in_total",
	"primacyd_request_bytes_out_total",
	"primacyd_request_seconds",
	"primacyd_requests_total",
	"primacyd_route_request_seconds",
	"primacyd_server_error_total",
	"primacyd_shed_total",
	"primacyd_slo_burn_rate_milli",
	"primacyd_slo_good_milli",
	"primacyd_slo_requests_total",
	"primacyd_work_seconds",
}

// A durable daemon exposes every family it always has, including the
// durable-store series the archive benchmark scrapes.
func TestDaemonMetricFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg, Tracer: trace.New(trace.Config{}), DataDir: t.TempDir()})
	raw := testData(8_000, 5)
	hdr := map[string]string{HeaderTenant: "t"}
	resp, enc := post(t, ts.URL+"/v1/compress", raw, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, enc)
	}
	if resp, body := post(t, ts.URL+"/v1/decompress", enc, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress: %d %s", resp.StatusCode, body)
	}
	if resp, body := post(t, ts.URL+"/v1/archive/put?name=temp&step=1", raw, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("archive put: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodGet, ts.URL+"/v1/archive/get?name=temp&step=1", nil, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("archive get: %d %s", resp.StatusCode, body)
	}
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	exposed := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			exposed[f[2]] = true
		}
	}
	for _, name := range daemonFamilies {
		if !exposed[name] {
			t.Errorf("family %s not exposed", name)
		}
	}
	for _, name := range []string{"primacy_durable_journal_appends_total", "primacy_archive_entries_read_total"} {
		if v, _ := reg.Snapshot().Counter(name); v != 1 {
			t.Errorf("%s = %d, want 1", name, v)
		}
	}
}

// An archive get's read and decode nest under the request span, so the
// slow-request dump shows them.
func TestArchiveGetNestsUnderRequest(t *testing.T) {
	tr := trace.New(trace.Config{Capacity: 8192})
	_, ts := newTestServer(t, Config{Tracer: tr, ChunkBytes: 16 << 10})
	hdr := map[string]string{HeaderTenant: "t"}
	if resp, body := post(t, ts.URL+"/v1/archive/put?name=temp&step=0", testData(4_000, 2), hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("archive put: %d %s", resp.StatusCode, body)
	}
	hdr[HeaderRequestID] = "get-req-1"
	if resp, body := do(t, http.MethodGet, ts.URL+"/v1/archive/get?name=temp&step=0", nil, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("archive get: %d %s", resp.StatusCode, body)
	}
	recs := tr.Spans()
	var root uint64
	for _, r := range recs {
		for _, a := range r.Attrs {
			if r.Name == "server.archive_get" && a.Key == "request_id" && a.Str == "get-req-1" {
				root = r.ID
			}
		}
	}
	if root == 0 {
		t.Fatal("no server.archive_get span for the request")
	}
	sub := trace.Subtree(recs, root)
	byID := map[uint64]trace.SpanRecord{}
	for _, r := range sub {
		byID[r.ID] = r
	}
	var entry, decode bool
	for _, r := range sub {
		switch r.Name {
		case "archive.entry.get":
			entry = true
		case "core.decompress":
			decode = decode || byID[r.Parent].Name == "archive.entry.get"
		}
	}
	if !entry || !decode {
		t.Fatalf("request subtree lacks archive.entry.get (%v) or its core.decompress (%v): %v", entry, decode, trace.Names(sub))
	}
}
