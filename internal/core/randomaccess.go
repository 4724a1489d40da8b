package core

import (
	"context"
	"encoding/binary"
	"fmt"

	"primacy/internal/bytesplit"
	"primacy/internal/freq"
	"primacy/internal/obs"
	"primacy/internal/solver"
	"primacy/internal/trace"
)

// ChunkReader provides random access to the chunks of a compressed
// container without decompressing the whole stream — the access pattern of
// analysis tools that read one time slice out of a large archive. It is
// also the reader under sequential and parallel decompression.
//
// Random access requires per-chunk indexes: containers written with
// IndexReuse make later chunks depend on earlier ones, and DecodeChunk
// rejects chunks that lack their own index.
type ChunkReader struct {
	data []byte
	h    *header
	sv   solver.Compressor
	// offsets[i] is the byte range of chunk record i within data.
	offsets [][2]int
	// bounds[i] is the raw byte offset chunk i decodes to; the final entry
	// is the total.
	bounds []int
	// size is the container's encoded length.
	size int
}

// NewChunkReader parses the container framing (headers and chunk sizes
// only; no payload is decompressed). All container versions are accepted;
// v2+ header and per-chunk checksums are verified up front so later chunk
// decodes operate on validated records.
func NewChunkReader(data []byte) (*ChunkReader, error) {
	r, err := walkChunks(data)
	if err != nil {
		return nil, err
	}
	if r.sv, err = solver.Get(r.h.solverName); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return r, nil
}

// walkChunks parses the header and walks the chunk frames, checking every
// CRC, record size and raw length claim, without decoding any payload or
// resolving the solver.
func walkChunks(data []byte) (*ChunkReader, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if !h.crcOK {
		return nil, fmt.Errorf("%w: header: %w", ErrCorrupt, ErrChecksum)
	}
	r := &ChunkReader{data: data, h: h, bounds: []int{0}}
	pos := h.end
	rawSeen := 0
	for uint64(rawSeen) < h.total {
		rec, next, err := h.frame(data, pos)
		if err != nil {
			return nil, err
		}
		if len(rec) < rawChunkRecLen || (rec[4] != rawChunkFlag && len(rec) < h.minRecLen()) {
			return nil, fmt.Errorf("%w: chunk record %d bytes", ErrCorrupt, len(rec))
		}
		rawLen := int(binary.LittleEndian.Uint32(rec))
		if rawLen <= 0 || rawLen > MaxChunkBytes || rawLen%h.lay.ElemBytes != 0 {
			return nil, fmt.Errorf("%w: chunk raw length %d", ErrCorrupt, rawLen)
		}
		rawSeen += rawLen
		r.offsets = append(r.offsets, [2]int{next - len(rec), next})
		r.bounds = append(r.bounds, rawSeen)
		pos = next
	}
	if uint64(rawSeen) != h.total {
		return nil, fmt.Errorf("%w: chunk sizes sum to %d, header says %d", ErrCorrupt, rawSeen, h.total)
	}
	r.size = pos
	return r, nil
}

// NumChunks reports how many chunks the container holds.
func (r *ChunkReader) NumChunks() int { return len(r.offsets) }

// RawBytes reports the total decompressed size.
func (r *ChunkReader) RawBytes() int { return r.bounds[len(r.offsets)] }

// ChunkRange returns the [start, end) raw byte range chunk i decodes to.
func (r *ChunkReader) ChunkRange(i int) (start, end int, err error) {
	if i < 0 || i >= len(r.offsets) {
		return 0, 0, fmt.Errorf("core: chunk %d out of range [0,%d)", i, len(r.offsets))
	}
	return r.bounds[i], r.bounds[i+1], nil
}

// Independent reports whether every chunk carries its own index, so the
// chunks decode in any order or in parallel. A container written with
// IndexReuse may not; decode it sequentially.
func (r *ChunkReader) Independent() bool {
	for i := range r.offsets {
		if r.needsPrev(i) {
			return false
		}
	}
	return true
}

// needsPrev reports whether chunk i depends on an earlier chunk's index:
// rec[4], after the raw length, is the has-index flag (1 when the record
// carries its index), and raw-passthrough records (rawChunkFlag) need no
// index.
func (r *ChunkReader) needsPrev(i int) bool {
	flag := r.data[r.offsets[i][0]+4]
	return r.h.mapping == MapRanked && flag != 1 && flag != rawChunkFlag
}

// decode decodes chunk i into sc, given the index live before it.
func (r *ChunkReader) decode(i int, prev *freq.Index, ds *DecompStats, sc *scratch, m *coreMetrics, cs trace.Span) ([]byte, *freq.Index, error) {
	off := r.offsets[i]
	h := r.h
	return decompressChunk(r.data[off[0]:off[1]], h.version, r.sv, h.lin, h.mapping, h.lay, prev, ds, sc, m, cs)
}

// DecodeChunk decompresses one chunk. The chunk must be self-contained
// (carry its own index); chunks written under IndexReuse that depend on an
// earlier chunk's index return an error.
func (r *ChunkReader) DecodeChunk(i int) ([]byte, error) {
	return r.DecodeChunkCtx(context.Background(), new(Codec), i)
}

// DecodeChunkCtx decodes self-contained chunk i with c's scratch into a new
// buffer, allocated only once the chunk has decoded, so a chunk's raw
// length claim never sizes memory on its own. It reports to the observer
// ctx carries, and its core.chunk.decode span nests under the span ctx
// carries. Safe for concurrent use with distinct
// Codecs.
func (r *ChunkReader) DecodeChunkCtx(ctx context.Context, c *Codec, i int) ([]byte, error) {
	if i < 0 || i >= len(r.offsets) {
		return nil, fmt.Errorf("core: chunk %d out of range [0,%d)", i, len(r.offsets))
	}
	if r.needsPrev(i) {
		return nil, fmt.Errorf("core: chunk %d has no index (IndexReuse container); decode sequentially", i)
	}
	m := coreBundle.Of(obs.From(ctx))
	var ds DecompStats
	cs := obs.Start(ctx, "core.chunk.decode").Attr("chunk", int64(i))
	chunk, _, err := r.decode(i, nil, &ds, &c.sc, m, cs)
	cs.End(err)
	if err != nil {
		return nil, err
	}
	m.decBytes.Add(int64(len(chunk)))
	m.decSolverBytes.Add(int64(ds.SolverOutputBytes))
	return append([]byte(nil), chunk...), nil
}

// DecodeAll decodes every chunk in order with c's scratch, following index
// reuse, and reports read-side stage timing. ctx is checked between chunks.
// The output grows only as chunks actually decode.
func (r *ChunkReader) DecodeAll(ctx context.Context, c *Codec) ([]byte, DecompStats, error) {
	var ds DecompStats
	m := coreBundle.Of(obs.From(ctx))
	cs := obs.Start(ctx, "core.decompress").
		Attr("container_bytes", int64(len(r.data)))
	out := make([]byte, 0, min(r.RawBytes(), maxPrealloc))
	var prevIndex *freq.Index
	for i := range r.offsets {
		if err := ctx.Err(); err != nil {
			cs.End(err)
			return nil, ds, err
		}
		chunkSpan := cs.Child("core.chunk.decode").Attr("chunk", int64(i))
		chunk, idx, err := r.decode(i, prevIndex, &ds, &c.sc, m, chunkSpan)
		if err != nil {
			chunkSpan.End(err)
			cs.End(err)
			return nil, ds, err
		}
		chunkSpan.Attr("bytes", int64(len(chunk))).End(nil)
		prevIndex = idx
		out = append(out, chunk...)
	}
	ds.RawBytes = len(out)
	m.decBytes.Add(int64(len(out)))
	m.decSolverBytes.Add(int64(ds.SolverOutputBytes))
	cs.Attr("raw_bytes", int64(len(out))).End(nil)
	return out, ds, nil
}

// DecodeFloat64Range decompresses only the chunks overlapping the element
// range [first, first+count) and returns exactly the requested values.
func (r *ChunkReader) DecodeFloat64Range(first, count int) ([]float64, error) {
	if r.h.lay.ElemBytes != bytesplit.Float64Layout.ElemBytes {
		return nil, fmt.Errorf("core: container holds %d-byte elements, not float64", r.h.lay.ElemBytes)
	}
	// Overflow-safe bounds check: first and count are caller-controlled, and
	// (first+count)*8 can wrap past a positive totalRaw for huge values —
	// compare against the element count without multiplying.
	nElems := r.RawBytes() / 8
	if first < 0 || count < 0 || first > nElems || count > nElems-first {
		return nil, fmt.Errorf("core: element range [%d,%d) out of bounds", first, first+count)
	}
	startByte, endByte := first*8, (first+count)*8
	out := make([]float64, 0, count)
	for i := 0; i < r.NumChunks(); i++ {
		cs, ce, err := r.ChunkRange(i)
		if err != nil {
			return nil, err
		}
		if ce <= startByte || cs >= endByte {
			continue
		}
		chunk, err := r.DecodeChunk(i)
		if err != nil {
			return nil, err
		}
		lo, hi := max(startByte, cs)-cs, min(endByte, ce)-cs
		vals, err := bytesplit.BytesToFloat64s(chunk[lo:hi])
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
	}
	return out, nil
}
