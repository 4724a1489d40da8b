package durable

import (
	"context"
	"testing"

	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// Per-tenant journal/fsync/compaction vectors attribute the same work the
// unlabeled totals count.
func TestPerTenantVectors(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	s, _, err := Open(dir, Options{Observer: obs.New(reg, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := s.Put(ctx, "acme", "series", i, []float64{1, 2}, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(ctx, "beta", "series", 0, []float64{3}, 1<<20); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.LabeledCounterSum("primacy_durable_tenant_journal_appends_total",
		telemetry.LabelPair{Name: "tenant", Value: "acme"}); got != 3 {
		t.Fatalf("acme appends = %d, want 3", got)
	}
	if got := snap.LabeledCounterSum("primacy_durable_tenant_journal_appends_total"); got != 4 {
		t.Fatalf("total labeled appends = %d, want 4", got)
	}
	total, ok := snap.Counter("primacy_durable_journal_appends_total")
	if !ok || total != 4 {
		t.Fatalf("unlabeled appends = %d (ok=%v), want 4", total, ok)
	}
	if got := snap.LabeledCounterSum("primacy_durable_tenant_journal_bytes_total"); got == 0 {
		t.Fatalf("labeled journal bytes not recorded")
	}
	// Fsync latency attributed per tenant (fsync is on by default on disk).
	found := false
	for _, h := range snap.LabeledHistograms {
		if h.Name == "primacy_durable_tenant_fsync_seconds" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("per-tenant fsync histogram empty")
	}
}
