package core

import (
	"context"
	"math"
	"testing"

	"primacy/internal/datagen"
	"primacy/internal/obs"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// One clock reading per stage boundary feeds Stats, the stage histograms
// and the stage spans, so the four compress-stage histograms sum to
// PrecSeconds + SolverSeconds, and the two decode-stage histograms to the
// decode's, up to float rounding.
func TestStageHistogramsSumToStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := trace.New(trace.Config{Capacity: 4096})
	ctx := obs.With(context.Background(), obs.New(reg, tr))
	spec, _ := datagen.ByName("flash_velx")
	raw := spec.GenerateBytes(32 << 10)
	var c Codec
	enc, st, err := c.CompressWithStatsCtx(ctx, raw, Options{ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	_, ds, err := c.DecompressWithStatsCtx(ctx, enc)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	sum := func(names ...string) (s float64) {
		for _, name := range names {
			h, ok := snap.Histogram(name)
			if !ok || h.Count == 0 {
				t.Fatalf("histogram %s empty", name)
			}
			s += h.Sum
		}
		return s
	}
	for _, d := range []struct {
		name     string
		hist, st float64
	}{
		{"compress", sum("primacy_core_bytesplit_seconds", "primacy_core_freqmap_seconds",
			"primacy_core_isobar_seconds", "primacy_core_solver_seconds"), st.PrecSeconds + st.SolverSeconds},
		{"decompress", sum("primacy_core_decompress_prec_seconds", "primacy_core_decompress_solver_seconds"),
			ds.PrecSeconds + ds.SolverSeconds},
	} {
		if d.st <= 0 || math.Abs(d.hist-d.st) > 1e-9*d.st {
			t.Errorf("%s: stage histograms sum to %v s, Stats to %v s", d.name, d.hist, d.st)
		}
	}
	if h, _ := snap.Histogram("primacy_core_solver_seconds"); h.Count != 2*int64(st.Chunks) {
		t.Errorf("solver histogram count = %d, want 2 per chunk (%d chunks)", h.Count, st.Chunks)
	}
	stages := tr.StageTotals()
	for _, name := range []string{"core.stage.bytesplit", "core.stage.freqmap", "core.stage.isobar",
		"core.stage.solver", "core.stage.dec_solver", "core.stage.dec_prec"} {
		if _, ok := stages[name]; !ok {
			t.Errorf("no %s span", name)
		}
	}
}
