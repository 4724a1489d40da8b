// Package core implements the PRIMACY compression pipeline — the paper's
// primary contribution. Per 3 MB chunk it (1) splits each double into 2
// high-order and 6 low-order bytes, (2) maps high-order byte pairs to
// frequency-ranked IDs, (3) column-linearizes the ID matrix, (4) compresses
// it with a standard solver, and (5) routes the mantissa bytes through the
// ISOBAR analyzer so only compressible byte columns reach the solver.
// The inverse pipeline reconstructs the input bit-exactly.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/chunker"
	"primacy/internal/freq"
	"primacy/internal/isobar"
	"primacy/internal/obs"
	"primacy/internal/precond"
	"primacy/internal/solver"
	"primacy/internal/trace"
)

// Linearization selects how the ID matrix is laid out before the solver.
type Linearization uint8

const (
	// LinearizeColumns compresses the ID matrix column-by-column
	// (the paper's choice, Sec. II-D).
	LinearizeColumns Linearization = iota
	// LinearizeRows keeps row-major order (ablation baseline, Sec. IV-H).
	LinearizeRows
)

// IDMapping selects how high-order byte pairs become IDs.
type IDMapping uint8

const (
	// MapRanked assigns IDs by descending frequency (the paper's mapper).
	MapRanked IDMapping = iota
	// MapIdentity passes high-order bytes through unmapped
	// (ablation baseline isolating the mapper's contribution).
	MapIdentity
)

// IndexMode selects when chunk indexes are emitted (Sec. II-F).
type IndexMode uint8

const (
	// IndexPerChunk emits a fresh index with every chunk (paper default).
	IndexPerChunk IndexMode = iota
	// IndexReuse emits an index only when the previous one no longer covers
	// the chunk's sequences (the "more intelligent indexing scheme" the
	// paper sketches as future work).
	IndexReuse
)

// Precision selects the floating-point element width.
type Precision uint8

const (
	// Float64 is the paper's double-precision layout (2+6 byte split).
	Float64 Precision = iota
	// Float32 handles single-precision data (2+2 byte split) — the
	// generalization the paper notes in Sec. II-A.
	Float32
)

// layout maps the precision to its byte-split geometry.
func (p Precision) layout() (bytesplit.Layout, error) {
	switch p {
	case Float64:
		return bytesplit.Float64Layout, nil
	case Float32:
		return bytesplit.Float32Layout, nil
	default:
		return bytesplit.Layout{}, fmt.Errorf("core: unknown precision %d", p)
	}
}

// Layout returns the byte-split geometry for the precision — the element
// width containers like pipeline and stream must use for input validation
// and chunk rounding instead of assuming float64.
func (p Precision) Layout() (bytesplit.Layout, error) { return p.layout() }

// PrecondOptions configures the pluggable preconditioner layer. The zero
// value — Fixed selection of the classic chain — reproduces the historical
// pipeline byte-for-byte in a v2 container; any other setting switches the
// writer to the v3 container, whose chunk records carry the transform each
// chunk was written with (readers accept all versions regardless).
type PrecondOptions struct {
	// Selection picks how the per-chunk transform is chosen (default
	// Fixed: always Transform, no per-chunk work).
	Selection precond.SelectionMode
	// Transform is the transform applied in Fixed mode (default the
	// classic chain). Ignored by the auto-selecting modes.
	Transform precond.TransformID
	// Candidates restricts the auto-selecting modes' candidate set
	// (default: every registered transform). Must be empty in Fixed mode.
	Candidates []precond.TransformID
	// SampleElems caps the per-chunk selection sample in elements
	// (precond.DefaultSampleElems when 0).
	SampleElems int
}

// enabled reports whether the preconditioner layer departs from the classic
// fixed chain — the condition under which the writer emits a v3 container.
func (p PrecondOptions) enabled() bool {
	return p.Selection != precond.Fixed || p.Transform != precond.IDChain || len(p.Candidates) > 0
}

// Options configures the codec.
type Options struct {
	// Solver names the registered standard compressor (default "zlib").
	Solver string
	// ChunkBytes is the in-situ chunk size (default 3 MB).
	ChunkBytes int
	// Linearization of the ID matrix (default columns).
	Linearization Linearization
	// Mapping of high-order bytes (default ranked).
	Mapping IDMapping
	// IndexMode controls index emission (default per chunk).
	IndexMode IndexMode
	// Precision selects the element width (default Float64).
	Precision Precision
	// DisableISOBAR compresses all six mantissa byte columns through the
	// solver unconditionally (ablation).
	DisableISOBAR bool
	// ISOBAR tunes the mantissa analyzer.
	ISOBAR isobar.Options
	// Precond configures the pluggable preconditioner registry: which
	// transform precedes the chain, and whether it is fixed or chosen per
	// chunk (a priori sampling or a posteriori trial compression). The
	// zero value keeps the classic chain and the v2 container.
	Precond PrecondOptions
}

func (o Options) solverName() string {
	if o.Solver == "" {
		return "zlib"
	}
	return o.Solver
}

// Stats reports what the compressor did — the inputs of the paper's
// performance model (Table I) plus size accounting.
type Stats struct {
	// RawBytes and CompressedBytes give the end-to-end ratio.
	RawBytes        int
	CompressedBytes int
	// Chunks processed.
	Chunks int
	// Alpha1 is the fraction of each chunk handled by the ID mapper
	// (the high-order 2 of 8 bytes).
	Alpha1 float64
	// Alpha2 is the mean fraction of the low-order bytes classified
	// compressible by ISOBAR.
	Alpha2 float64
	// SigmaHo is compressed/original for the high-order part (IDs+index).
	SigmaHo float64
	// SigmaLo is compressed/original for the compressible low-order part.
	SigmaLo float64
	// IndexBytes is the total metadata overhead.
	IndexBytes int
	// IndexesEmitted counts chunks that carried a fresh index.
	IndexesEmitted int
	// PrecSeconds is wall time spent in preconditioner stages (byte split,
	// frequency analysis, ID mapping, linearization, ISOBAR analysis and
	// partitioning) — the T_prec input of the performance model.
	PrecSeconds float64
	// SolverSeconds is wall time spent inside the standard compressor —
	// the T_comp input of the performance model.
	SolverSeconds float64
	// SolverInputBytes is how many bytes were handed to the solver
	// (α1·C + α2·(1-α1)·C summed over chunks).
	SolverInputBytes int
	// DegradedChunks counts chunks stored raw-passthrough because the
	// solver faulted (error or panic) while compressing them. Zero on a
	// healthy run; a non-zero value means the container is complete and
	// decompressible, but those chunks carry no compression.
	DegradedChunks int
	// TransformChunks counts chunks by the preconditioner transform they
	// were written with, keyed by registry name. Nil unless the
	// preconditioner layer is enabled (Options.Precond non-zero).
	TransformChunks map[string]int
}

// PrecThroughput reports raw preconditioner throughput in bytes/second.
func (s Stats) PrecThroughput() float64 {
	if s.PrecSeconds <= 0 {
		return 0
	}
	return float64(s.RawBytes) / s.PrecSeconds
}

// SolverThroughput reports solver throughput over its input bytes.
func (s Stats) SolverThroughput() float64 {
	if s.SolverSeconds <= 0 {
		return 0
	}
	return float64(s.SolverInputBytes) / s.SolverSeconds
}

// Ratio returns original/compressed (the paper's Equation 1; >1 is good).
func (s Stats) Ratio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.CompressedBytes)
}

var (
	// ErrCorrupt indicates a malformed container.
	ErrCorrupt = errors.New("core: corrupt stream")
	// ErrBadInput indicates input that is not whole float64 elements.
	ErrBadInput = errors.New("core: input not a multiple of 8 bytes")
	// ErrChunkTooLarge indicates Options.ChunkBytes above MaxChunkBytes:
	// such a chunk could be written, but no reader would decode it.
	ErrChunkTooLarge = errors.New("core: chunk size above MaxChunkBytes")
)

// Codec carries reusable scratch buffers across Compress/Decompress calls so
// the per-chunk hot path (byte split, ID encode, linearization, ISOBAR
// partitioning, and the solvers' pooled writer/reader state) is
// allocation-free in steady state. The zero value is ready to use. A Codec
// is not safe for concurrent use; give each worker goroutine its own (see
// internal/pipeline).
type Codec struct {
	sc scratch
	// ps is this codec's preconditioner state for the Encoder whose
	// template is psFor.
	ps, psFor *precondState
}

// scratch holds the per-chunk working buffers. Each field has one role per
// direction so no stage ever reads a buffer another stage of the same chunk
// is writing; buffers are recycled via [:0] between chunks.
type scratch struct {
	hi     []byte // split output (compress) / ID-decode output (decompress)
	lo     []byte // split output (compress) / unpartition output (decompress)
	ids    []byte // ID-encode output (compress) / solver ID output (decompress)
	col    []byte // columnize output (compress) / decolumnize output (decompress)
	comp   []byte // partition output (compress) / solver mantissa output (decompress)
	incomp []byte // partition output (compress)
	idsCmp []byte // solver output for the ID matrix (compress)
	cmpOut []byte // solver output for the mantissa part (compress)
	enc    []byte // assembled chunk record (compress)
	chunk  []byte // merge output (decompress)

	// empty caches the solver's compressed representation of zero input for
	// the ISOBAR no-waste fallback, so clearing the mask never re-runs the
	// solver (the old double-compress). Keyed by the compressor value.
	empty    []byte
	emptyFor solver.Compressor

	// tf caches preconditioner transform instances by wire ID on the
	// decompress side, so a container full of same-transform chunks builds
	// each inverse transform (and its predictor tables) once.
	tf map[precond.TransformID]precond.Transform
	// tchunk holds the inverse-transform output (decompress).
	tchunk []byte

	// counts is the 64Ki flat sequence counter the fused split+histogram
	// pass fills; one arena per codec, zeroed between chunks, so ranked
	// mapping never allocates a fresh histogram.
	counts []uint32
}

// countsArena returns the zeroed flat counter, allocating it on first use.
func (s *scratch) countsArena() []uint32 {
	if s.counts == nil {
		s.counts = make([]uint32, freq.SequenceSpace)
	} else {
		clear(s.counts)
	}
	return s.counts
}

// transform returns the cached inverse-transform instance for id, building
// it on first use.
func (s *scratch) transform(id precond.TransformID) (precond.Transform, error) {
	if t, ok := s.tf[id]; ok {
		return t, nil
	}
	t, err := precond.New(id)
	if err != nil {
		return nil, err
	}
	if s.tf == nil {
		s.tf = map[precond.TransformID]precond.Transform{}
	}
	s.tf[id] = t
	return t, nil
}

// compressedEmpty returns sv's compressed form of empty input, computing it
// once per solver and caching it in the scratch.
func (s *scratch) compressedEmpty(sv solver.Compressor) ([]byte, error) {
	if s.emptyFor != sv {
		out, err := solver.CompressTo(sv, s.empty[:0], nil)
		if err != nil {
			return nil, err
		}
		s.empty = out
		s.emptyFor = sv
	}
	return s.empty, nil
}

// capSlice returns b truncated to zero length with at least n bytes of
// capacity, reallocating only when the existing capacity is too small.
func capSlice(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:0]
	}
	return make([]byte, 0, n)
}

// Compress compresses a byte stream of big-endian-serializable float64 data
// (any []byte whose length is a multiple of 8 works; the pipeline is
// lossless regardless of content).
func Compress(data []byte, opts Options) ([]byte, error) {
	var c Codec
	return c.Compress(data, opts)
}

// CompressCtx is Compress with cancellation: ctx is checked between chunks,
// so a cancelled call returns ctx.Err() within one chunk boundary.
func CompressCtx(ctx context.Context, data []byte, opts Options) ([]byte, error) {
	var c Codec
	return c.CompressCtx(ctx, data, opts)
}

// Compress is the Codec variant of the package-level Compress; output is
// byte-identical, but scratch persists across calls.
func (c *Codec) Compress(data []byte, opts Options) ([]byte, error) {
	out, _, err := c.CompressWithStats(data, opts)
	return out, err
}

// CompressCtx is the Codec variant of the package-level CompressCtx.
func (c *Codec) CompressCtx(ctx context.Context, data []byte, opts Options) ([]byte, error) {
	out, _, err := c.CompressWithStatsCtx(ctx, data, opts)
	return out, err
}

// Decompress is the Codec variant of the package-level Decompress.
func (c *Codec) Decompress(data []byte) ([]byte, error) {
	out, _, err := c.DecompressWithStats(data)
	return out, err
}

// DecompressCtx is the Codec variant of the package-level DecompressCtx.
func (c *Codec) DecompressCtx(ctx context.Context, data []byte) ([]byte, error) {
	out, _, err := c.DecompressWithStatsCtx(ctx, data)
	return out, err
}

// CompressFloat64s is a convenience wrapper over Compress.
func CompressFloat64s(values []float64, opts Options) ([]byte, error) {
	return Compress(bytesplit.Float64sToBytes(values), opts)
}

// CompressFloat32s compresses single-precision values (forces the Float32
// precision layout).
func CompressFloat32s(values []float32, opts Options) ([]byte, error) {
	opts.Precision = Float32
	return Compress(bytesplit.Float32sToBytes(values), opts)
}

// DecompressFloat32s reverses CompressFloat32s.
func DecompressFloat32s(data []byte) ([]float32, error) {
	raw, err := Decompress(data)
	if err != nil {
		return nil, err
	}
	return bytesplit.BytesToFloat32s(raw)
}

// CompressWithStats compresses and reports the model parameters.
func CompressWithStats(data []byte, opts Options) ([]byte, Stats, error) {
	var c Codec
	return c.CompressWithStats(data, opts)
}

// CompressWithStats is the Codec variant of the package-level
// CompressWithStats.
func (c *Codec) CompressWithStats(data []byte, opts Options) ([]byte, Stats, error) {
	return c.CompressWithStatsCtx(context.Background(), data, opts)
}

// CompressWithStatsCtx is CompressWithStats with cancellation (checked
// between chunks) and degraded-mode fault tolerance: a chunk whose solver
// faults — an error or a panic — is stored raw-passthrough instead of
// failing the call, and Stats.DegradedChunks reports how many chunks took
// that path. Input-validation errors (bad length, unknown solver or
// mapping, chunk size above MaxChunkBytes) still fail up front. It is
// Encoder's one-worker caller.
func (c *Codec) CompressWithStatsCtx(ctx context.Context, data []byte, opts Options) ([]byte, Stats, error) {
	e, err := NewEncoder(ctx, data, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	cctx := trace.ContextWithSpan(ctx, e.span)
	for i := range e.infos {
		if err := ctx.Err(); err != nil {
			e.Abort(err)
			return nil, Stats{}, err
		}
		e.EncodeChunk(cctx, c, i)
	}
	return e.Finish()
}

// Encoder is one compression call cut at its chunk boundaries, so that a
// scheduler can encode the chunks on several workers. NewEncoder plans the
// chunks and writes the header, EncodeChunk encodes chunk i with a caller's
// Codec, and Finish returns the container and its Stats; a caller that
// gives up before Finish calls Abort. The container is
// byte-identical to Compress of the same input, whichever Codec encodes
// which chunk in whatever order — except under IndexReuse (see
// Sequential). EncodeChunk is safe for concurrent use on distinct chunks
// with distinct Codecs.
type Encoder struct {
	data  []byte
	opts  Options
	lay   bytesplit.Layout
	sv    solver.Compressor
	plan  *chunker.Plan
	m     *coreMetrics
	span  trace.Span
	infos []chunkInfo
	// prev is the index live after the last chunk encoded, read only under
	// IndexReuse, where chunks are encoded in order. infos keeps no index:
	// one per chunk would pin a 64Ki-entry table per chunk until Finish.
	prev *freq.Index
	// ps is the preconditioner state built to validate the options, the
	// template for each Codec's own; nil when the layer is off.
	ps *precondState
	// hdr is the container header; each chunk's frame waits in infos
	// until Finish joins them into one exactly sized container.
	hdr []byte
}

// NewEncoder validates opts against data and plans the chunks. The
// encoder reports to the observer ctx carries, and its core.compress span
// nests under the span ctx carries.
func NewEncoder(ctx context.Context, data []byte, opts Options) (*Encoder, error) {
	lay, err := opts.Precision.layout()
	if err != nil {
		return nil, err
	}
	switch opts.Mapping {
	case MapRanked, MapIdentity:
	default:
		return nil, fmt.Errorf("core: unknown mapping %d", opts.Mapping)
	}
	if opts.ChunkBytes > MaxChunkBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrChunkTooLarge, opts.ChunkBytes)
	}
	if len(data)%lay.ElemBytes != 0 {
		return nil, fmt.Errorf("%w: %d %% %d", ErrBadInput, len(data), lay.ElemBytes)
	}
	sv, err := solver.Get(opts.solverName())
	if err != nil {
		return nil, err
	}
	plan, err := chunker.NewPlan(len(data), opts.ChunkBytes, lay.ElemBytes)
	if err != nil {
		return nil, err
	}
	e := &Encoder{data: data, opts: opts, lay: lay, sv: sv, plan: plan,
		m:     coreBundle.Of(obs.From(ctx)),
		infos: make([]chunkInfo, plan.NumChunks()),
	}
	// The preconditioner layer departs from the classic fixed chain only
	// when Options.Precond is set, which also switches the container to v3
	// so every chunk record can carry its transform ID.
	magic := magicV2
	if opts.Precond.enabled() {
		if e.ps, err = newPrecondState(opts, sv, lay); err != nil {
			return nil, err
		}
		magic = magicV3
	}
	e.span = obs.Start(ctx, "core.compress").Attr("raw_bytes", int64(len(data)))
	name := opts.solverName()
	out := append(make([]byte, 0, 26+len(name)), magic...)
	out = append(out, byte(opts.Linearization), byte(opts.Mapping), byte(opts.IndexMode), boolByte(opts.DisableISOBAR),
		byte(opts.Precision), byte(len(name)))
	out = append(out, name...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
	out = binary.LittleEndian.AppendUint32(out, uint32(plan.ChunkBytes()))
	e.hdr = checksum.Append(out, out)
	return e, nil
}

// NumChunks reports how many chunks the container holds.
func (e *Encoder) NumChunks() int { return len(e.infos) }

// ChunkRange returns the [start, end) input byte range of chunk i.
func (e *Encoder) ChunkRange(i int) (start, end int, err error) { return e.plan.Bounds(i) }

// Sequential reports whether chunk i may reuse chunk i-1's index
// (IndexReuse): the chunks must then be encoded in order, one at a time.
func (e *Encoder) Sequential() bool { return e.opts.IndexMode == IndexReuse }

// EncodeChunk encodes chunk i with c's scratch and frames it into the
// container. Its core.chunk span nests under the span ctx carries.
func (e *Encoder) EncodeChunk(ctx context.Context, c *Codec, i int) error {
	start, end, err := e.plan.Bounds(i)
	if err != nil {
		return err
	}
	chunk := e.data[start:end]
	var prev *freq.Index
	if e.Sequential() {
		prev = e.prev
	}
	ps := e.ps
	if ps != nil {
		if c.psFor != e.ps {
			c.ps, _ = newPrecondState(e.opts, e.sv, e.lay) // validated in NewEncoder
			c.psFor = e.ps
		}
		ps = c.ps
	}
	chunkSpan := trace.SpanFromContext(ctx).Child("core.chunk").
		Attr("chunk", int64(i)).
		Attr("bytes", int64(len(chunk)))
	enc, ci, err := compressChunkSafe(chunk, e.sv, e.opts, e.lay, prev, &c.sc, ps, e.m, chunkSpan)
	if err != nil {
		// Degraded mode: the solver faulted on this chunk (error or panic).
		// Store the chunk raw so the container stays complete and
		// decompressible; the fault is visible via DegradedChunks. The live
		// index passes through, as it does on the decode side. Raw records
		// never carry a transform ID — the payload is the original chunk.
		enc, ci = appendRawChunkRecord(&c.sc, chunk), chunkInfo{index: prev, degraded: true}
		chunkSpan.Anomaly(trace.KindDegradedChunk, err.Error())
	} else if ps != nil {
		chunkSpan.AttrStr("transform", precond.Name(ci.tid))
		e.m.precondSelected[ci.tid].Add(1) // nil-safe for unregistered IDs
	}
	if e.Sequential() {
		e.prev = ci.index
	}
	ci.index = nil
	// Frame the record — u32 length, u32 CRC32C, record — out of the
	// codec's scratch.
	ci.frame = make([]byte, 8, 8+len(enc))
	binary.LittleEndian.PutUint32(ci.frame, uint32(len(enc)))
	binary.LittleEndian.PutUint32(ci.frame[4:], checksum.Sum(enc))
	ci.frame = append(ci.frame, enc...)
	e.infos[i] = ci
	chunkSpan.End(nil)
	return nil
}

// Abort ends a call that will not reach Finish, recording err on its
// core.compress span.
func (e *Encoder) Abort(err error) { e.span.End(err) }

// Finish returns the container once every chunk is encoded, with the
// call's Stats, and records them on the codec's telemetry.
func (e *Encoder) Finish() ([]byte, Stats, error) {
	stats := Stats{RawBytes: len(e.data), Chunks: len(e.infos), CompressedBytes: len(e.hdr)}
	for i, ci := range e.infos {
		if ci.frame == nil {
			err := fmt.Errorf("core: Finish before chunk %d was encoded", i)
			e.span.End(err)
			return nil, stats, err
		}
		stats.CompressedBytes += len(ci.frame)
	}
	out := append(make([]byte, 0, stats.CompressedBytes), e.hdr...)
	stats.Alpha1 = float64(e.lay.HiBytes) / float64(e.lay.ElemBytes)
	var hiRaw, hiComp, loCompIn, loCompOut int
	var alpha2Sum float64
	for _, ci := range e.infos {
		out = append(out, ci.frame...)
		if ci.degraded {
			stats.DegradedChunks++
		} else if e.ps != nil {
			if stats.TransformChunks == nil {
				stats.TransformChunks = map[string]int{}
			}
			stats.TransformChunks[precond.Name(ci.tid)]++
		}
		stats.IndexBytes += ci.indexBytes
		if ci.indexBytes > 0 {
			stats.IndexesEmitted++
		}
		hiRaw += ci.hiRaw
		hiComp += ci.hiComp + ci.indexBytes
		loCompIn += ci.loCompIn
		loCompOut += ci.loCompOut
		alpha2Sum += ci.alpha2
		stats.PrecSeconds += ci.precSecs
		stats.SolverSeconds += ci.solverSecs
		stats.SolverInputBytes += ci.solverInput
	}
	if stats.Chunks > 0 {
		stats.Alpha2 = alpha2Sum / float64(stats.Chunks)
	}
	if hiRaw > 0 {
		stats.SigmaHo = float64(hiComp) / float64(hiRaw)
	}
	if loCompIn > 0 {
		stats.SigmaLo = float64(loCompOut) / float64(loCompIn)
	}
	m := e.m
	m.chunks.Add(int64(stats.Chunks))
	m.degraded.Add(int64(stats.DegradedChunks))
	m.rawBytes.Add(int64(stats.RawBytes))
	m.compBytes.Add(int64(stats.CompressedBytes))
	m.solverIn.Add(int64(stats.SolverInputBytes))
	m.hiRawBytes.Add(int64(hiRaw))
	m.hiCompBytes.Add(int64(hiComp))
	m.loCompIn.Add(int64(loCompIn))
	m.loCompOut.Add(int64(loCompOut))
	m.indexBytes.Add(int64(stats.IndexBytes))
	e.span.Attr("compressed_bytes", int64(stats.CompressedBytes)).
		Attr("chunks", int64(stats.Chunks)).
		Attr("degraded", int64(stats.DegradedChunks)).
		End(nil)
	return out, stats, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

type chunkInfo struct {
	index       *freq.Index
	indexBytes  int
	hiRaw       int
	hiComp      int
	loCompIn    int
	loCompOut   int
	alpha2      float64
	precSecs    float64
	solverSecs  float64
	solverInput int
	// tid is the preconditioner transform the chunk was written with
	// (meaningful only when the preconditioner layer is enabled).
	tid precond.TransformID
	// degraded marks a chunk stored raw after a solver fault.
	degraded bool
	// frame is the chunk's framed record in the container.
	frame []byte
}

// compressChunk encodes one chunk into a record that aliases sc.enc; the
// caller must copy it out before the next call reusing the same scratch.
// Per-stage wall times — the paper's α₁/α₂ stage decomposition — go to
// ci's seconds, m's stage histograms (nil handles when telemetry is off)
// and stage child spans of cs (inert when tracing is off), all from one
// stageClock. Stage spans on error paths are deliberately never ended — an
// un-ended span is dropped, and the chunk-level degraded anomaly carries
// the fault.
// tid is the preconditioner transform ID to record after the flag byte (v3
// containers); -1 writes the v1/v2 record layout with no transform byte.
// chunk must already be transformed; its length equals the original because
// transforms are length-preserving.
func compressChunk(chunk []byte, sv solver.Compressor, opts Options, lay bytesplit.Layout, prev *freq.Index, sc *scratch, m *coreMetrics, cs trace.Span, tid int) ([]byte, chunkInfo, error) {
	var ci chunkInfo
	clk := startStages(cs, "core.stage.bytesplit")
	// When a fresh per-chunk index is certain (ranked mapping with no prior
	// index to reuse), fuse the histogram into the split: one traversal fills
	// the hi/lo planes and the 64Ki flat counter together, so BuildIndex
	// never re-reads the hi plane. The reuse path can't fuse — whether it
	// needs a histogram depends on Covers(hi), which needs hi first.
	fused := opts.Mapping == MapRanked && !(opts.IndexMode == IndexReuse && prev != nil)
	var (
		hi, lo []byte
		err    error
	)
	if fused {
		hi, lo, err = lay.AppendSplitCount(sc.hi[:0], sc.lo[:0], chunk, sc.countsArena())
	} else {
		hi, lo, err = lay.AppendSplit(sc.hi[:0], sc.lo[:0], chunk)
	}
	if err != nil {
		return nil, ci, err
	}
	ci.precSecs += clk.next(m.splitSeconds, "core.stage.freqmap")
	sc.hi, sc.lo = hi, lo
	ci.hiRaw = len(hi)

	// High-order path: ID mapping + linearization + solver.
	var (
		ids       []byte
		indexBlob []byte
	)
	switch opts.Mapping {
	case MapIdentity:
		ids = hi
		ci.index = nil
	case MapRanked:
		idx := prev
		reuse := false
		if opts.IndexMode == IndexReuse && prev != nil {
			covered, err := prev.Covers(hi)
			if err != nil {
				return nil, ci, err
			}
			reuse = covered
		}
		if !reuse {
			counts := sc.counts
			if !fused {
				counts = sc.countsArena()
				if err := freq.HistogramInto(counts, hi); err != nil {
					return nil, ci, err
				}
			}
			if len(hi) > 0 {
				idx, err = freq.BuildIndex(counts)
				if err != nil {
					return nil, ci, err
				}
				indexBlob = idx.Marshal()
			}
		}
		if idx != nil {
			ids, err = idx.AppendEncode(sc.ids[:0], hi)
			if err != nil {
				return nil, ci, err
			}
			sc.ids = ids
		}
		ci.index = idx
	default:
		return nil, ci, fmt.Errorf("core: unknown mapping %d", opts.Mapping)
	}
	if opts.Linearization == LinearizeColumns && len(ids) > 0 {
		ids, err = bytesplit.AppendColumnize(sc.col[:0], ids, lay.HiBytes)
		if err != nil {
			return nil, ci, err
		}
		sc.col = ids
	}
	ci.precSecs += clk.next(m.freqmapSeconds, "core.stage.solver")
	idsComp, err := solver.CompressTo(sv, sc.idsCmp[:0], ids)
	if err != nil {
		return nil, ci, err
	}
	ci.solverSecs += clk.next(m.solverSeconds, "core.stage.isobar")
	sc.idsCmp = idsComp
	ci.solverInput += len(ids)
	ci.hiComp = len(idsComp)
	ci.indexBytes = len(indexBlob)

	// Low-order path: ISOBAR partition + solver on the compressible part.
	var mask uint64
	if opts.DisableISOBAR {
		mask = (1 << uint(lay.LoBytes())) - 1
		ci.alpha2 = 1
	} else {
		analysis, err := isobar.Analyze(lo, lay.LoBytes(), opts.ISOBAR)
		if err != nil {
			return nil, ci, err
		}
		mask = analysis.Mask
		ci.alpha2 = analysis.CompressibleFraction()
	}
	comp, incomp, err := isobar.AppendPartition(sc.comp[:0], sc.incomp[:0], lo, lay.LoBytes(), mask)
	if err != nil {
		return nil, ci, err
	}
	sc.comp, sc.incomp = comp, incomp
	ci.precSecs += clk.next(m.isobarSeconds, "core.stage.solver")
	compOut, err := solver.CompressTo(sv, sc.cmpOut[:0], comp)
	if err != nil {
		return nil, ci, err
	}
	ci.solverSecs += clk.next(m.solverSeconds, "")
	sc.cmpOut = compOut
	ci.solverInput += len(comp)
	// Guard: if the solver expanded the compressible part, store it raw and
	// clear the mask so decode knows (ISOBAR's no-waste principle). With the
	// mask cleared the re-partitioned compressible part is empty, so the
	// incompressible part is just the column-major linearization of lo and
	// the solver output is the cached compressed-empty constant — no second
	// partition pass, no second solver run.
	if len(compOut) >= len(comp) && len(comp) > 0 {
		mask = 0
		comp = comp[:0]
		incomp, err = bytesplit.AppendColumnize(sc.incomp[:0], lo, lay.LoBytes())
		if err != nil {
			return nil, ci, err
		}
		sc.incomp = incomp
		compOut, err = sc.compressedEmpty(sv)
		if err != nil {
			return nil, ci, err
		}
		ci.alpha2 = 0
	}
	ci.loCompIn = len(comp)
	ci.loCompOut = len(compOut)

	// Assemble the chunk record.
	enc := capSlice(sc.enc, len(idsComp)+len(compOut)+len(incomp)+len(indexBlob)+32)
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(chunk)))
	enc = append(enc, boolByte(len(indexBlob) > 0))
	if tid >= 0 {
		enc = append(enc, byte(tid))
		ci.tid = precond.TransformID(tid)
	}
	if len(indexBlob) > 0 {
		enc = binary.LittleEndian.AppendUint32(enc, uint32(len(indexBlob)))
		enc = append(enc, indexBlob...)
	}
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(idsComp)))
	enc = append(enc, idsComp...)
	enc = append(enc, byte(mask))
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(compOut)))
	enc = append(enc, compOut...)
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(incomp)))
	enc = append(enc, incomp...)
	sc.enc = enc
	return enc, ci, nil
}

// DecompStats reports read-side stage timing.
type DecompStats struct {
	// RawBytes is the decompressed size.
	RawBytes int
	// PrecSeconds is wall time spent inverting preconditioner stages
	// (ID decode, delinearization, unpartition, merge).
	PrecSeconds float64
	// SolverSeconds is wall time spent in solver decompression.
	SolverSeconds float64
	// SolverOutputBytes is how many raw bytes the solver produced.
	SolverOutputBytes int
}

// PrecThroughput reports inverse-preconditioner throughput in bytes/second.
func (s DecompStats) PrecThroughput() float64 {
	if s.PrecSeconds <= 0 {
		return 0
	}
	return float64(s.RawBytes) / s.PrecSeconds
}

// SolverThroughput reports solver decompression throughput over its output.
func (s DecompStats) SolverThroughput() float64 {
	if s.SolverSeconds <= 0 {
		return 0
	}
	return float64(s.SolverOutputBytes) / s.SolverSeconds
}

// Decompress reverses Compress.
func Decompress(data []byte) ([]byte, error) {
	out, _, err := DecompressWithStats(data)
	return out, err
}

// DecompressCtx is Decompress with cancellation: ctx is checked between
// chunks, so a cancelled call returns ctx.Err() within one chunk boundary.
func DecompressCtx(ctx context.Context, data []byte) ([]byte, error) {
	var c Codec
	return c.DecompressCtx(ctx, data)
}

// DecompressWithStats decompresses and reports read-side stage timing. All
// container versions are accepted; v2+ inputs have their header and
// per-chunk CRC32C checksums verified, and any mismatch fails the decode
// with an error wrapping both ErrCorrupt and ErrChecksum.
func DecompressWithStats(data []byte) ([]byte, DecompStats, error) {
	var c Codec
	return c.DecompressWithStats(data)
}

// DecompressWithStats is the Codec variant of the package-level
// DecompressWithStats.
func (c *Codec) DecompressWithStats(data []byte) ([]byte, DecompStats, error) {
	return c.DecompressWithStatsCtx(context.Background(), data)
}

// DecompressWithStatsCtx is DecompressWithStats with cancellation, checked
// between chunks.
func (c *Codec) DecompressWithStatsCtx(ctx context.Context, data []byte) ([]byte, DecompStats, error) {
	r, err := NewChunkReader(data)
	if err != nil {
		return nil, DecompStats{}, err
	}
	return r.DecodeAll(ctx, c)
}

// DecompressFloat64s decompresses and deserializes to float64 values.
func DecompressFloat64s(data []byte) ([]float64, error) {
	raw, err := Decompress(data)
	if err != nil {
		return nil, err
	}
	return bytesplit.BytesToFloat64s(raw)
}

// decompressChunk decodes one chunk record into a buffer that aliases sc;
// the caller must copy the returned chunk out before the next call reusing
// the same scratch. ver is the container version: v3 records carry a
// preconditioner transform-ID byte after the flag, and the transform's
// inverse runs after the merge. Stage times go to ds, m and stage child
// spans of cs from one stageClock, as in compressChunk; stage spans on
// error paths are dropped un-ended, the caller records the error on the
// chunk span.
func decompressChunk(rec []byte, ver int, sv solver.Compressor, lin Linearization, mapping IDMapping, lay bytesplit.Layout, prev *freq.Index, ds *DecompStats, sc *scratch, m *coreMetrics, cs trace.Span) ([]byte, *freq.Index, error) {
	pos := 0
	readU32 := func() (int, error) {
		if pos+4 > len(rec) {
			return 0, fmt.Errorf("%w: truncated chunk record", ErrCorrupt)
		}
		v := int(binary.LittleEndian.Uint32(rec[pos:]))
		pos += 4
		return v, nil
	}
	rawLen, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	// Bound checks come first: rawLen is attacker-controlled, so it must be
	// rejected before any arithmetic uses it.
	if rawLen < 0 || rawLen > MaxChunkBytes || rawLen%lay.ElemBytes != 0 {
		return nil, nil, fmt.Errorf("%w: chunk raw length %d", ErrCorrupt, rawLen)
	}
	n := rawLen / lay.ElemBytes
	if pos >= len(rec) {
		return nil, nil, fmt.Errorf("%w: missing index flag", ErrCorrupt)
	}
	flag := rec[pos]
	pos++
	if flag == rawChunkFlag {
		// Degraded raw-passthrough record: the payload is the chunk itself,
		// stored when the solver faulted at compression time. The live
		// index passes through untouched for later IndexReuse chunks.
		if len(rec)-pos != rawLen {
			return nil, nil, fmt.Errorf("%w: raw chunk claims %d bytes, record holds %d",
				ErrCorrupt, rawLen, len(rec)-pos)
		}
		return rec[pos:], prev, nil
	}
	// v3 records name the preconditioner transform right after the flag;
	// earlier versions predate the layer and always used the classic chain.
	tid := precond.IDChain
	if ver >= 3 {
		if pos >= len(rec) {
			return nil, nil, fmt.Errorf("%w: missing transform ID", ErrCorrupt)
		}
		tid = precond.TransformID(rec[pos])
		pos++
	}
	hasIndex := flag == 1
	idx := prev
	if hasIndex {
		ilen, err := readU32()
		if err != nil {
			return nil, nil, err
		}
		if ilen < 0 || pos+ilen > len(rec) {
			return nil, nil, fmt.Errorf("%w: truncated index", ErrCorrupt)
		}
		idx, err = freq.UnmarshalIndex(rec[pos : pos+ilen])
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		pos += ilen
	}
	idsLen, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	if idsLen < 0 || pos+idsLen > len(rec) {
		return nil, nil, fmt.Errorf("%w: truncated ID payload", ErrCorrupt)
	}
	clk := startStages(cs, "core.stage.dec_solver")
	// The ID matrix size is claimed up front (n*HiBytes), so the pooled
	// solver reader decompresses into pre-sized scratch without growth
	// doubling, up to maxPrealloc until the claim is borne out.
	ids, err := solver.DecompressTo(sv, capSlice(sc.ids, min(n*lay.HiBytes, maxPrealloc)), rec[pos:pos+idsLen])
	if err != nil {
		return nil, nil, fmt.Errorf("%w: ID payload: %v", ErrCorrupt, err)
	}
	ds.SolverSeconds += clk.next(m.decSolverSeconds, "core.stage.dec_prec")
	sc.ids = ids
	ds.SolverOutputBytes += len(ids)
	pos += idsLen
	if len(ids) != n*lay.HiBytes {
		return nil, nil, fmt.Errorf("%w: ID matrix %d bytes, want %d", ErrCorrupt, len(ids), n*lay.HiBytes)
	}
	if lin == LinearizeColumns && len(ids) > 0 {
		ids, err = bytesplit.AppendDecolumnize(sc.col[:0], ids, lay.HiBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		sc.col = ids
	}
	var hi []byte
	switch mapping {
	case MapIdentity:
		hi = ids
	case MapRanked:
		if idx == nil {
			if n > 0 {
				return nil, nil, fmt.Errorf("%w: chunk needs index but none present", ErrCorrupt)
			}
			hi = ids
		} else {
			hi, err = idx.AppendDecode(sc.hi[:0], ids)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			sc.hi = hi
		}
	default:
		return nil, nil, fmt.Errorf("%w: unknown mapping %d", ErrCorrupt, mapping)
	}
	if pos >= len(rec) {
		return nil, nil, fmt.Errorf("%w: missing ISOBAR mask", ErrCorrupt)
	}
	mask := uint64(rec[pos])
	pos++
	compLen, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	if compLen < 0 || pos+compLen > len(rec) {
		return nil, nil, fmt.Errorf("%w: truncated mantissa payload", ErrCorrupt)
	}
	ds.PrecSeconds += clk.next(m.decPrecSeconds, "core.stage.dec_solver")
	// Expected output size: one column of n bytes per mask bit within the
	// low-order width (stray high mask bits are rejected by Unpartition).
	nComp := bits.OnesCount64(mask & (1<<uint(lay.LoBytes()) - 1))
	comp, err := solver.DecompressTo(sv, capSlice(sc.comp, min(nComp*n, maxPrealloc)), rec[pos:pos+compLen])
	if err != nil {
		return nil, nil, fmt.Errorf("%w: mantissa payload: %v", ErrCorrupt, err)
	}
	ds.SolverSeconds += clk.next(m.decSolverSeconds, "core.stage.dec_prec")
	sc.comp = comp
	ds.SolverOutputBytes += len(comp)
	pos += compLen
	incompLen, err := readU32()
	if err != nil {
		return nil, nil, err
	}
	if incompLen < 0 || pos+incompLen > len(rec) {
		return nil, nil, fmt.Errorf("%w: truncated raw payload", ErrCorrupt)
	}
	incomp := rec[pos : pos+incompLen]
	pos += incompLen
	if pos != len(rec) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes in chunk record", ErrCorrupt, len(rec)-pos)
	}
	lo, err := isobar.AppendUnpartition(sc.lo[:0], comp, incomp, lay.LoBytes(), mask, n)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	sc.lo = lo
	chunk, err := lay.AppendMerge(sc.chunk[:0], hi, lo)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	sc.chunk = chunk
	if tid != precond.IDChain {
		t, err := sc.transform(tid)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		orig, err := t.Inverse(sc.tchunk[:0], chunk, lay.ElemBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: inverse %s: %v", ErrCorrupt, t.Name(), err)
		}
		sc.tchunk = orig
		chunk = orig
	}
	ds.PrecSeconds += clk.next(m.decPrecSeconds, "")
	return chunk, idx, nil
}
