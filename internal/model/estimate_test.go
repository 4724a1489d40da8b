package model_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"primacy/internal/core"
	"primacy/internal/model"
	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

func estTestData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n*8)
	v := 300.0
	for i := 0; i < n; i++ {
		v += rng.NormFloat64()
		bits := math.Float64bits(v)
		for j := 0; j < 8; j++ {
			out = append(out, byte(bits>>(56-8*j)))
		}
	}
	return out
}

func testEnv() model.Params {
	return model.Params{Rho: 8, Theta: 1200e6, MuWrite: 12e6, MuRead: 200e6}
}

// A real round trip through the codec must yield a fully-populated Params
// and a finite, small compute-side residual: the estimator and the model
// are fed from the same stage measurements, so disagreement beyond the
// decomposition approximation indicates a broken fit.
func TestEstimateFromLiveRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	data := estTestData(64<<10, 9)
	var c core.Codec
	enc, _, err := c.CompressWithStatsCtx(ctx, data, core.Options{ChunkBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.DecompressWithStatsCtx(ctx, enc); err != nil {
		t.Fatal(err)
	}

	est, err := model.EstimateFromSnapshot(reg.Snapshot(), testEnv())
	if err != nil {
		t.Fatal(err)
	}
	p := est.Params
	if math.Abs(p.Alpha1-0.25) > 1e-9 {
		t.Fatalf("Alpha1 = %v, want 0.25 (2 of 8 bytes)", p.Alpha1)
	}
	if p.Alpha2 < 0 || p.Alpha2 > 1 || p.SigmaHo <= 0 || p.SigmaLo < 0 {
		t.Fatalf("structural params out of range: %+v", p)
	}
	if p.TPrec <= 0 || p.TComp <= 0 || p.TDecomp <= 0 {
		t.Fatalf("rate params not populated: %+v", p)
	}
	if p.MetaBytes <= 0 {
		t.Fatalf("MetaBytes = %v, want > 0 (index metadata)", p.MetaBytes)
	}
	if est.Write.Throughput <= 0 || !isFinite(est.Write.Throughput) {
		t.Fatalf("predicted write throughput = %v", est.Write.Throughput)
	}
	if !isFinite(est.WriteResidual) {
		t.Fatalf("write residual = %v, want finite", est.WriteResidual)
	}
	if est.WriteResidual > 0.5 {
		t.Fatalf("write residual = %v, want < 0.5 (model should roughly explain its own inputs)", est.WriteResidual)
	}
	if !est.HasRead {
		t.Fatal("decompression ran but HasRead is false")
	}
	if est.Read.Throughput <= 0 || !isFinite(est.ReadResidual) {
		t.Fatalf("read side: throughput=%v residual=%v", est.Read.Throughput, est.ReadResidual)
	}
}

func TestEstimateNoData(t *testing.T) {
	reg := telemetry.NewRegistry()
	obs.New(reg, nil) // registers every series, all zero
	if _, err := model.EstimateFromSnapshot(reg.Snapshot(), testEnv()); !errors.Is(err, model.ErrNoData) {
		t.Fatalf("got %v, want ErrNoData", err)
	}
	// Missing series entirely (nothing registered).
	if _, err := model.EstimateFromSnapshot(telemetry.Snapshot{}, testEnv()); !errors.Is(err, model.ErrNoData) {
		t.Fatalf("got %v, want ErrNoData", err)
	}
}

// Trace-derived stage totals must override the histogram-derived times:
// doubling every stage's wall time halves the fitted rates.
func TestEstimateWithStagesOverride(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	data := estTestData(16<<10, 11)
	var c core.Codec
	if _, _, err := c.CompressWithStatsCtx(ctx, data, core.Options{ChunkBytes: 32 << 10}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	base, err := model.EstimateFromSnapshot(snap, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	sum := func(name string) float64 {
		h, ok := snap.Histogram(name)
		if !ok {
			t.Fatalf("histogram %s missing", name)
		}
		return h.Sum
	}
	stages := model.StageSeconds{
		model.StageBytesplit: 2 * sum("primacy_core_bytesplit_seconds"),
		model.StageFreqmap:   2 * sum("primacy_core_freqmap_seconds"),
		model.StageIsobar:    2 * sum("primacy_core_isobar_seconds"),
		model.StageSolver:    2 * sum("primacy_core_solver_seconds"),
	}
	slow, err := model.EstimateWithStages(snap, stages, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slow.PrecBps-base.PrecBps/2) > 1e-6*base.PrecBps {
		t.Fatalf("PrecBps = %v, want half of %v", slow.PrecBps, base.PrecBps)
	}
	if math.Abs(slow.SolverBps-base.SolverBps/2) > 1e-6*base.SolverBps {
		t.Fatalf("SolverBps = %v, want half of %v", slow.SolverBps, base.SolverBps)
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
