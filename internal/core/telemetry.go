package core

import (
	"time"

	"primacy/internal/obs"
	"primacy/internal/precond"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// coreMetrics bundles the codec's telemetry handles. A call looks its
// observer's bundle up once and threads it to the per-chunk functions; with
// no registry every handle is nil and records nothing.
type coreMetrics struct {
	// Compression accounting.
	chunks    *telemetry.Counter
	degraded  *telemetry.Counter
	rawBytes  *telemetry.Counter
	compBytes *telemetry.Counter
	solverIn  *telemetry.Counter
	// Byte-level split accounting — the measured inputs of the Section-III
	// model estimator (α₁ = hiRaw/raw, σ_ho = hiComp/hiRaw, α₂ and σ_lo from
	// the low-order pair, δ = indexBytes/chunks).
	hiRawBytes  *telemetry.Counter
	hiCompBytes *telemetry.Counter
	loCompIn    *telemetry.Counter
	loCompOut   *telemetry.Counter
	indexBytes  *telemetry.Counter
	// Per-chunk stage wall time, mirroring the paper's decomposition: the
	// α₁ share (byte split + frequency-ranked ID mapping) vs the α₂ share
	// (ISOBAR analysis/partitioning) vs solver time proper.
	splitSeconds   *telemetry.Histogram
	freqmapSeconds *telemetry.Histogram
	isobarSeconds  *telemetry.Histogram
	solverSeconds  *telemetry.Histogram
	// Decompression accounting and stage time.
	decBytes         *telemetry.Counter
	decSolverBytes   *telemetry.Counter
	decSolverSeconds *telemetry.Histogram
	decPrecSeconds   *telemetry.Histogram
	// Salvage accounting: faults recorded while recovering damaged input.
	salvageFaults *telemetry.Counter
	// Preconditioner selection accounting: chunks written per transform,
	// one counter per registered transform (the registry has no labels, so
	// the transform name is baked into the metric name).
	precondSelected map[precond.TransformID]*telemetry.Counter
}

var coreBundle = obs.NewBundle(func(r *telemetry.Registry) *coreMetrics {
	precondSel := map[precond.TransformID]*telemetry.Counter{}
	for _, id := range precond.IDs() {
		name := precond.Name(id)
		precondSel[id] = r.Counter("primacy_core_precond_"+name+"_chunks_total",
			"Chunks written with the "+name+" preconditioner transform.")
	}
	return &coreMetrics{
		precondSelected:  precondSel,
		chunks:           r.Counter("primacy_core_chunks_total", "Chunks compressed."),
		degraded:         r.Counter("primacy_core_degraded_chunks_total", "Chunks stored raw after a solver fault."),
		rawBytes:         r.Counter("primacy_core_raw_bytes_total", "Input bytes compressed."),
		compBytes:        r.Counter("primacy_core_compressed_bytes_total", "Container bytes produced."),
		solverIn:         r.Counter("primacy_core_solver_input_bytes_total", "Bytes handed to the standard solver."),
		hiRawBytes:       r.Counter("primacy_core_hi_raw_bytes_total", "High-order bytes entering the ID mapper (α₁ share of the input)."),
		hiCompBytes:      r.Counter("primacy_core_hi_compressed_bytes_total", "Compressed high-order bytes including index metadata (σ_ho numerator)."),
		loCompIn:         r.Counter("primacy_core_lo_compressible_bytes_total", "Low-order bytes ISOBAR classified compressible (α₂ share)."),
		loCompOut:        r.Counter("primacy_core_lo_compressed_bytes_total", "Compressed low-order bytes (σ_lo numerator)."),
		indexBytes:       r.Counter("primacy_core_index_bytes_total", "Frequency-index metadata bytes emitted (δ numerator)."),
		splitSeconds:     r.Histogram("primacy_core_bytesplit_seconds", "Per-chunk byte-split stage time.", nil),
		freqmapSeconds:   r.Histogram("primacy_core_freqmap_seconds", "Per-chunk ID-mapping and linearization time.", nil),
		isobarSeconds:    r.Histogram("primacy_core_isobar_seconds", "Per-chunk ISOBAR analysis and partitioning time.", nil),
		solverSeconds:    r.Histogram("primacy_core_solver_seconds", "Per-call solver compression time.", nil),
		decBytes:         r.Counter("primacy_core_decompressed_bytes_total", "Bytes decompressed."),
		decSolverBytes:   r.Counter("primacy_core_decompress_solver_bytes_total", "Raw bytes produced by solver decompression (T_decomp denominator)."),
		decSolverSeconds: r.Histogram("primacy_core_decompress_solver_seconds", "Per-call solver decompression time.", nil),
		decPrecSeconds:   r.Histogram("primacy_core_decompress_prec_seconds", "Per-chunk inverse-preconditioner time.", nil),
		salvageFaults:    r.Counter("primacy_core_salvage_faults_total", "Faults recorded while salvaging damaged containers."),
	}
})

// stageClock times a chunk's stages with one clock reading per stage
// boundary. Each reading ends the running stage — its seconds, its
// histogram observation and its span — and starts the next, so Stats
// seconds, stage histograms and stage spans agree exactly.
type stageClock struct {
	chunk trace.Span // parent of the stage spans
	at    time.Time  // start of the running stage
	stage trace.Span // the running stage's span
}

// startStages starts the chunk's first stage.
func startStages(chunk trace.Span, name string) stageClock {
	now := time.Now()
	return stageClock{chunk: chunk, at: now, stage: chunk.ChildAt(name, now)}
}

// next ends the running stage, observes its seconds on h and returns them,
// and starts stage name ("" starts none).
func (c *stageClock) next(h *telemetry.Histogram, name string) float64 {
	now := time.Now()
	d := now.Sub(c.at).Seconds()
	h.Observe(d)
	c.stage.EndAt(nil, now)
	c.at = now
	if name != "" {
		c.stage = c.chunk.ChildAt(name, now)
	}
	return d
}
