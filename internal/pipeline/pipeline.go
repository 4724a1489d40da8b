// Package pipeline runs the PRIMACY codec across multiple cores, the way an
// in-situ integration runs it across the cores of a compute node: the
// chunks of one core container are the unit of work, scheduled on a pool
// of workers that each own a core.Codec. The output is the PRM container
// core.Compress writes, byte for byte, at any worker count. Decompress
// decodes the chunks of a PRM container in parallel, and still reads the
// legacy PRP1/PRP2 parallel containers, which nothing writes any more.
package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"

	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/governor"
	"primacy/internal/obs"
	"primacy/internal/trace"
)

// Legacy parallel container magics, read-only. v1 frames each shard with a
// bare u32 length; v2 adds a CRC32C per shard. Each shard is a whole core
// container.
const (
	magicV1 = "PRP1"
	magicV2 = "PRP2"
)

// ErrCorrupt indicates a malformed legacy parallel container.
var ErrCorrupt = errors.New("pipeline: corrupt stream")

// ErrChecksum indicates a CRC32C mismatch on a v2 shard; it is wrapped
// together with ErrCorrupt.
var ErrChecksum = errors.New("checksum mismatch")

// Options configures parallel compression.
type Options struct {
	// Core configures the codec. Under IndexReuse each chunk may depend on
	// the previous one, so the chunks run in order on one worker.
	Core core.Options
	// Workers caps concurrency (0 = GOMAXPROCS). It never changes the
	// output bytes.
	Workers int
	// Governor, when non-nil, gates each chunk's admission against a shared
	// memory/concurrency budget: under a burst of large inputs workers queue
	// at the gate instead of holding every chunk's scratch at once.
	Governor *governor.Governor
}

// ShardError attributes a worker failure to one unit of work: a chunk of a
// PRM container, or a shard of a legacy PRP container. Recovered worker
// panics arrive wrapped in *core.PanicError, so a faulting chunk degrades
// to a structured error instead of crashing the process.
type ShardError struct {
	// Shard is the zero-based chunk (or legacy shard) index.
	Shard int
	// Err is the underlying failure.
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("pipeline: shard %d: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// codecPool recycles core.Codec scratch arenas across calls. Each worker
// goroutine checks a codec out for its whole lifetime (chunks never share
// one concurrently) and returns it when the call completes, so a server
// handling a stream of requests reuses warmed split/encode/solver buffers
// instead of re-growing them per request.
var codecPool = sync.Pool{New: func() any { return new(core.Codec) }}

// Compress compresses data using up to Workers goroutines. Each worker owns
// a core.Codec, so per-chunk scratch and pooled solver state are reused
// across every chunk that worker encodes without cross-worker contention.
func Compress(data []byte, opts Options) ([]byte, error) {
	return CompressCtx(context.Background(), data, opts)
}

// CompressCtx is Compress with cancellation and resource governance: ctx is
// checked before every chunk is started, the first worker error cancels
// the remaining chunks, worker panics surface as *ShardError wrapping
// *core.PanicError, and opts.Governor (when set) gates chunk admission.
func CompressCtx(ctx context.Context, data []byte, opts Options) ([]byte, error) {
	root := obs.Start(ctx, "pipeline.compress").
		Attr("raw_bytes", int64(len(data)))
	enc, err := core.NewEncoder(trace.ContextWithSpan(ctx, root), data, opts.Core)
	if err != nil {
		root.End(err)
		return nil, err
	}
	if enc.Sequential() {
		opts.Workers = 1
	}
	root.Attr("shards", int64(enc.NumChunks())).Attr("workers", int64(opts.workers()))
	err = runShards(ctx, opts, "compress", root, enc.NumChunks(), enc.EncodeChunk, func(i int) int64 {
		start, end, _ := enc.ChunkRange(i)
		return int64(end - start)
	})
	var out []byte
	if err == nil {
		out, _, err = enc.Finish()
	} else {
		enc.Abort(err)
	}
	root.End(err)
	return out, err
}

// isLegacy reports whether data starts with a PRP1/PRP2 magic.
func isLegacy(data []byte) bool {
	return len(data) >= 4 && (string(data[:4]) == magicV1 || string(data[:4]) == magicV2)
}

// frameHdrLen is a legacy container's per-shard framing overhead: u32
// length, plus a u32 CRC32C in v2.
func frameHdrLen(data []byte) int {
	if string(data[:4]) == magicV2 {
		return 8
	}
	return 4
}

// splitShards parses a legacy container's framing and returns each shard's
// bytes plus the offset of the shard data within the container. v2 shard
// checksums are verified during the walk.
func splitShards(data []byte) (shards [][]byte, offsets []int, err error) {
	if !isLegacy(data) || len(data) < len(magicV1)+4 {
		return nil, nil, fmt.Errorf("%w: short header or bad magic", ErrCorrupt)
	}
	frameHdr := frameHdrLen(data)
	n := int(binary.LittleEndian.Uint32(data[len(magicV1):]))
	pos := len(magicV1) + 4
	// Each shard needs at least its frame header, so the count field cannot
	// claim more shards than the remaining bytes can frame — reject before
	// allocating anything proportional to n.
	if n < 0 || n > (len(data)-pos)/frameHdr {
		return nil, nil, fmt.Errorf("%w: %d shards in %d bytes", ErrCorrupt, n, len(data))
	}
	shards = make([][]byte, 0, n)
	offsets = make([]int, 0, n)
	for i := 0; i < n; i++ {
		if pos+frameHdr > len(data) {
			return nil, nil, fmt.Errorf("%w: truncated shard header", ErrCorrupt)
		}
		l := int(binary.LittleEndian.Uint32(data[pos:]))
		if l < 0 || l > len(data)-pos-frameHdr {
			return nil, nil, fmt.Errorf("%w: truncated shard", ErrCorrupt)
		}
		shard := data[pos+frameHdr : pos+frameHdr+l]
		if frameHdr == 8 && !checksum.Check(data[pos+4:], shard) {
			return nil, nil, fmt.Errorf("%w: shard %d: %w", ErrCorrupt, i, ErrChecksum)
		}
		shards = append(shards, shard)
		offsets = append(offsets, pos+frameHdr)
		pos += frameHdr + l
	}
	if pos != len(data) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-pos)
	}
	return shards, offsets, nil
}

// runShards processes shard indices [0, n) — the chunks of a PRM container,
// or the shards of a legacy PRP one — on up to opts.workers() goroutines.
// Each goroutine owns one core.Codec for its lifetime — per-worker scratch —
// and pulls indices from a shared channel so stragglers balance out. Fault containment and governance happen here, once, for both
// directions:
//
//   - ctx is checked before each shard starts; the feed loop stops as soon
//     as the context is done, so cancellation takes effect within one shard.
//   - the first shard error cancels the derived context, draining the
//     remaining shards without running them; every worker goroutine exits
//     before runShards returns.
//   - a panic inside do is recovered into *core.PanicError, so one faulting
//     shard yields a structured per-shard error instead of a crashed process.
//   - opts.Governor, when set, admits each shard's weight before it runs.
//
// The returned error is the first shard failure in shard order (wrapped in
// *ShardError), or ctx.Err() when the call was cancelled from outside.
//
// op names the direction ("compress"/"decompress") for pprof labels and
// trace spans; parent is the call's root span — per-shard child spans hang
// off it across goroutine boundaries, and each shard's span rides the shard
// context so core chunk spans nest under it.
func runShards(ctx context.Context, opts Options, op string, parent trace.Span, n int, do func(ctx context.Context, codec *core.Codec, i int) error, weight func(i int) int64) error {
	workers := min(opts.workers(), n)
	m := pipeBundle.Of(obs.From(ctx))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codec := codecPool.Get().(*core.Codec)
			defer codecPool.Put(codec)
			// With tracing on, label the worker goroutine so CPU profiles
			// (-pprof-addr) attribute samples to stage and shard. The label
			// set is rebuilt per shard; gated on the call's span so the
			// untraced path never allocates label storage.
			for i := range idxCh {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				run := func(ctx context.Context) {
					if err := runShard(ctx, opts.Governor, m, codec, i, parent, do, weight); err != nil {
						errs[i] = err
						cancel()
					}
				}
				if parent.Active() {
					pprof.Do(ctx, pprof.Labels(
						"primacy_stage", op,
						"primacy_shard", strconv.Itoa(i),
					), run)
				} else {
					run(ctx)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			for j := i + 1; j < n; j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(idxCh)
	wg.Wait()
	// Prefer the first real shard failure over cancellation noise: once one
	// shard fails, every later shard reports context.Canceled, which would
	// mask the root cause.
	var ctxErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return &ShardError{Shard: i, Err: err}
	}
	return ctxErr
}

// runShard executes one shard under admission control and panic isolation,
// recording it on m. parent is the call's root trace span; the shard's own
// span nests under it (Child is goroutine-safe) and is carried by the shard
// context so the core codec's chunk spans nest in turn.
func runShard(ctx context.Context, gov *governor.Governor, m *pipeMetrics, codec *core.Codec, i int, parent trace.Span, do func(ctx context.Context, codec *core.Codec, i int) error, weight func(i int) int64) (err error) {
	sp := m.shardSeconds.Start()
	ss := parent.Child("pipeline.shard").Attr("shard", int64(i))
	defer func() {
		if r := recover(); r != nil {
			err = &core.PanicError{Op: fmt.Sprintf("shard %d", i), Value: r, Stack: debug.Stack()}
		}
		ss.End(err)
		sp.End()
		m.shards.Inc()
		if err != nil {
			m.shardErrors.Inc()
		}
	}()
	ctx = trace.ContextWithSpan(ctx, ss)
	w := weight(i)
	if err := gov.Acquire(ctx, w); err != nil {
		return err
	}
	defer gov.Release(w)
	return do(ctx, codec, i)
}

// Decompress reverses Compress using up to opts.workers() goroutines, each
// owning a core.Codec with per-worker scratch.
func Decompress(data []byte, opts Options) ([]byte, error) {
	return DecompressCtx(context.Background(), data, opts)
}

// DecompressCtx is Decompress with cancellation and resource governance; see
// CompressCtx for the semantics. A PRM container has its header and every
// chunk CRC checked before any chunk decodes; the chunks then decode on the
// workers, each into its own buffer once it has decoded, and are joined in
// order, so no buffer is sized from the container's unverified raw length
// claims. Bytes after a PRM container are ignored, as core.Decompress
// ignores them. A container with a chunk that lacks its own index
// (IndexReuse) decodes sequentially, as one unit of work. Legacy PRP
// containers decode shard by shard.
func DecompressCtx(ctx context.Context, data []byte, opts Options) ([]byte, error) {
	var (
		n      int
		decode func(ctx context.Context, codec *core.Codec, i int) ([]byte, error)
		weight func(i int) int64
	)
	if isLegacy(data) {
		shards, _, err := splitShards(data)
		if err != nil {
			return nil, err
		}
		n = len(shards)
		decode = func(ctx context.Context, codec *core.Codec, i int) ([]byte, error) {
			return codec.DecompressCtx(ctx, shards[i])
		}
		weight = func(i int) int64 { return int64(len(shards[i])) }
	} else {
		r, err := core.NewChunkReader(data)
		if err != nil {
			return nil, err
		}
		n, decode = r.NumChunks(), r.DecodeChunkCtx
		weight = func(i int) int64 {
			start, end, _ := r.ChunkRange(i)
			return int64(end - start)
		}
		if !r.Independent() {
			// The sequential decoder follows index reuse.
			n = 1
			decode = func(ctx context.Context, codec *core.Codec, _ int) ([]byte, error) {
				out, _, err := r.DecodeAll(ctx, codec)
				return out, err
			}
			weight = func(int) int64 { return int64(r.RawBytes()) }
		}
	}
	outputs := make([][]byte, n)
	root := obs.Start(ctx, "pipeline.decompress").
		Attr("container_bytes", int64(len(data))).
		Attr("shards", int64(n)).
		Attr("workers", int64(opts.workers()))
	err := runShards(ctx, opts, "decompress", root, n, func(ctx context.Context, codec *core.Codec, i int) (err error) {
		outputs[i], err = decode(ctx, codec, i)
		return err
	}, weight)
	root.End(err)
	if err != nil {
		return nil, err
	}
	if n == 1 {
		return outputs[0], nil
	}
	return bytes.Join(outputs, nil), nil
}

// DecompressSalvage decompresses as much of a damaged container as
// possible and reports every fault with its absolute offset. A PRM
// container goes through core.DecompressSalvage. In a legacy PRP container,
// shards that fail their checksum or decode are recovered through
// core.DecompressSalvage, so only the corrupt chunks inside them are lost.
// The error is non-nil only when the input is not a container at all. The
// salvage reports to the observer ctx carries.
func DecompressSalvage(ctx context.Context, data []byte, opts Options) ([]byte, *core.CorruptionReport, error) {
	if !isLegacy(data) {
		return core.DecompressSalvage(ctx, data)
	}
	rep := &core.CorruptionReport{Format: string(data[:4])}
	shards, offsets, err := splitShards(data)
	if err != nil {
		// The strict walk stops at the first framing fault; re-walk leniently,
		// recovering intact frames and isolating the damaged regions.
		rep.Add(0, -1, err)
		if shards, offsets = splitShardsLenient(data); shards == nil {
			return nil, rep, err
		}
	}
	var out []byte
	for i, shard := range shards {
		sal, subRep, serr := core.DecompressSalvage(ctx, shard)
		if serr != nil {
			rep.Add(offsets[i], i, serr)
			continue
		}
		rep.Merge(offsets[i], subRep)
		out = append(out, sal...)
	}
	return out, rep, nil
}

// splitShardsLenient recovers shard regions from a container whose strict
// walk failed. Intact frames are taken as-is; a frame whose CRC fails but
// whose embedded core container still frames cleanly is trusted anyway
// (corrupt length or CRC field, intact payload); anything else becomes one
// damaged region ending at the next recognizable frame, so the caller's
// per-shard salvage can still recover its intact chunks. It returns nil only
// when the container header is unusable.
func splitShardsLenient(data []byte) (shards [][]byte, offsets []int) {
	if len(data) < len(magicV1)+4 {
		return nil, nil
	}
	frameHdr := frameHdrLen(data)
	pos := len(magicV1) + 4
	for pos < len(data) {
		if pos+frameHdr <= len(data) {
			l := int(binary.LittleEndian.Uint32(data[pos:]))
			if l >= 0 && l <= len(data)-pos-frameHdr {
				shard := data[pos+frameHdr : pos+frameHdr+l]
				if frameHdr == 4 || checksum.Check(data[pos+4:], shard) {
					shards = append(shards, shard)
					offsets = append(offsets, pos+frameHdr)
					pos += frameHdr + l
					continue
				}
			}
		}
		start := min(pos+frameHdr, len(data))
		if encLen, _, _, err := core.Frame(data[start:]); err == nil {
			shards = append(shards, data[start:start+encLen])
			offsets = append(offsets, start)
			pos = start + encLen
			continue
		}
		next := nextLenientFrame(data, start+1, frameHdr)
		shards = append(shards, data[start:next])
		offsets = append(offsets, start)
		pos = next
	}
	return shards, offsets
}

// nextLenientFrame scans for the next offset holding a trustworthy shard
// frame. Every shard is a core container, so the frame's payload must start
// with a container magic — without that filter the scan would lock onto a
// chunk frame inside a damaged shard, since core chunks use the same
// u32 length + u32 CRC framing. For v2 the frame CRC must verify too (or the
// embedded container must frame cleanly, when only the CRC field was hit).
// Returns len(data) when no frame remains.
func nextLenientFrame(data []byte, from, frameHdr int) int {
	for pos := from; pos+frameHdr < len(data); pos++ {
		l := int(binary.LittleEndian.Uint32(data[pos:]))
		if l < 4 || l > len(data)-pos-frameHdr {
			continue
		}
		shard := data[pos+frameHdr : pos+frameHdr+l]
		switch string(shard[:4]) {
		case "PRM1", "PRM2", "PRM3":
		default:
			continue
		}
		if frameHdr == 4 || checksum.Check(data[pos+4:], shard) {
			return pos
		}
		if encLen, _, _, err := core.Frame(shard); err == nil && encLen == l {
			return pos
		}
	}
	return len(data)
}

// Verify checks the container's integrity without producing output: it is
// DecompressSalvage's report. The error is non-nil only when the input is
// not a container at all.
func Verify(ctx context.Context, data []byte) (*core.CorruptionReport, error) {
	_, rep, err := DecompressSalvage(ctx, data, Options{})
	return rep, err
}
