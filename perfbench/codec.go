package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"primacy/internal/bytesplit"
	"primacy/internal/checksum"
	"primacy/internal/chunker"
	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/freq"
	"primacy/internal/isobar"
	"primacy/internal/pipeline"
	"primacy/internal/solver"
)

// codecDatasets are the bulk and small-chunk inputs: a hard-to-compress
// message trace, a mid-range velocity field and an easy plasma field.
var codecDatasets = []string{"msg_sweep3d", "flash_velx", "num_plasma"}

// codecDatasetBytes is the size of each codec input (3Mi doubles).
const codecDatasetBytes = 24 << 20

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 5

// codecConfig is what separates the bulk and small-chunk workloads.
type codecConfig struct {
	solver string
	chunk  int // core chunk bytes; 0 is the codec default (3 MiB)
}

func (c codecConfig) options() pipeline.Options {
	return pipeline.Options{
		Core:    core.Options{Solver: c.solver, ChunkBytes: c.chunk},
		Workers: runtime.GOMAXPROCS(0),
	}
}

// segments is how many independently seeded pieces make up each dataset.
// A generator draws its dataset-wide shape (wave mixture, binade walk) from
// its seed, which moves compression speed by several percent from seed to
// seed; eight pieces average that out, so runs on different seeds compare.
const segments = 8

// genDatasets generates the named datasets, n bytes each, in parallel. Each
// is segments pieces, piece k generated from the dataset's spec with the
// workload seed and k folded into Spec.Seed: the same seed gives the same
// bytes.
func genDatasets(names []string, n int, seed int64) ([][]byte, error) {
	out := make([][]byte, len(names))
	piece := n / segments / 8 // doubles per piece
	var wg sync.WaitGroup
	for i, name := range names {
		spec, ok := datagen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q", name)
		}
		out[i] = make([]byte, 0, n)
		wg.Add(1)
		go func(i int, spec datagen.Spec) {
			defer wg.Done()
			base := spec.Seed
			for k := int64(0); k < segments; k++ {
				spec.Seed = (base*1_000_003+seed)*segments + k
				out[i] = append(out[i], spec.GenerateBytes(piece)...)
			}
		}(i, spec)
	}
	wg.Wait()
	return out, nil
}

// runCodec is the bulk and small-chunk workload: pipeline round trips of
// every dataset, repeated until the time is up, each output checked against
// its input.
func runCodec(cfg codecConfig, a args, env map[string]any) (*result, error) {
	res := &result{}
	var inputs [][]byte
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		inputs = nil
		runtime.GC()
		t := time.Now()
		var err error
		if inputs, err = genDatasets(codecDatasets, codecDatasetBytes, a.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	opts := cfg.options()
	env["datasets"] = codecDatasets
	env["dataset_bytes"] = codecDatasetBytes
	env["solver"] = cfg.solver
	env["chunk_bytes"] = effectiveChunk(cfg.chunk)
	env["workers"] = opts.Workers

	// Warm the pooled codec arenas and solver state before timing.
	for _, in := range inputs {
		if _, err := roundTrip(in[:1<<20], opts, res); err != nil {
			return nil, err
		}
	}

	if a.trace {
		tr := newTracer()
		base, err := attribute(tr, inputs, opts, res)
		if err != nil {
			return nil, err
		}
		res.layers = codecLayers(tr, opts.Workers, res)
		res.layers["bench.trace_overhead_frac"] = res.layers["bench.traced_wall_s"]/base - 1
		res.tr = tr
		return res, nil
	}

	// Each round round-trips every dataset once.
	type round struct {
		Write  []float64 `json:"write_ms"` // per dataset
		Read   []float64 `json:"read_ms"`
		Raw    int       `json:"raw_bytes"`
		Stored int       `json:"stored_bytes"`
		Steal  float64   `json:"steal"`
	}
	var rounds []round
	mon := startStealMonitor()
	deadline := time.Now().Add(time.Duration(a.seconds) * time.Second)
	for len(rounds) < 4 || time.Now().Before(deadline) {
		var r round
		start := time.Now()
		for _, in := range inputs {
			// Collect the previous call's garbage outside the timed calls,
			// so peak memory and timings do not depend on where the
			// collector's cycles happen to fall.
			runtime.GC()
			tm, err := roundTrip(in, opts, res)
			if err != nil {
				mon.close()
				return nil, err
			}
			r.Write = append(r.Write, tm.write.Seconds()*1e3)
			r.Read = append(r.Read, tm.read.Seconds()*1e3)
			r.Raw += len(in)
			r.Stored += tm.stored
		}
		r.Steal = mon.over(start, time.Now())
		rounds = append(rounds, r)
	}
	mon.close()

	// Statistics come from the calmer half of the rounds. The latency
	// medians run over every kept call of every dataset. A run has only a
	// few rounds, so a per-call p99 would be the run's slowest call: one
	// hiccup of the machine. The p99 runs instead over the datasets, each
	// reduced to its median call. The median of the round rates is the
	// throughput.
	steal := make([]float64, len(rounds))
	for i, r := range rounds {
		steal[i] = r.Steal
	}
	keep := calmer(steal, 0.5)
	var opMs float64
	var rates [2][]float64 // write, read MB/s per round
	lat := [2][][]float64{make([][]float64, len(inputs)), make([][]float64, len(inputs))}
	ops := 0
	for i, r := range rounds {
		if !keep[i] {
			continue
		}
		for d := range inputs {
			lat[0][d] = append(lat[0][d], r.Write[d])
			lat[1][d] = append(lat[1][d], r.Read[d])
			opMs += r.Write[d] + r.Read[d]
			ops += 2
		}
		rates[0] = append(rates[0], float64(r.Raw)/1e3/sum(r.Write))
		rates[1] = append(rates[1], float64(r.Raw)/1e3/sum(r.Read))
	}
	perDataset := func(lat [][]float64) []float64 {
		out := make([]float64, len(lat))
		for d, l := range lat {
			out[d] = median(l)
		}
		return out
	}
	w, r := perDataset(lat[0]), perDataset(lat[1])
	last := rounds[len(rounds)-1]
	res.e2e = map[string]float64{
		"setup_s":      median(setups),
		"peak_rss_mb":  peakRSSMB(0),
		"write_mbps":   median(rates[0]),
		"read_mbps":    median(rates[1]),
		"write_p50_ms": median(slices.Concat(lat[0]...)),
		"read_p50_ms":  median(slices.Concat(lat[1]...)),
		"ratio":        float64(last.Raw) / float64(last.Stored),
		"max_rps":      float64(ops) / (opMs / 1e3),
	}
	env["p99_ms"] = map[string]float64{"write": quantile(w, 0.99), "read": quantile(r, 0.99)}
	env["rounds"] = len(rounds)
	env["rounds_kept"] = len(rates[0])
	res.raw = map[string]any{"rounds": rounds}
	return res, nil
}

// effectiveChunk is the chunk size the codec uses for a configured one.
func effectiveChunk(chunk int) int {
	if chunk == 0 {
		return chunker.DefaultChunkBytes
	}
	return chunk - chunk%8
}

type roundTripTimes struct {
	write, read time.Duration
	stored      int
}

// roundTrip compresses and decompresses in through the pipeline and checks
// the output; a mismatch counts as a failed operation, never a dropped one.
func roundTrip(in []byte, opts pipeline.Options, res *result) (roundTripTimes, error) {
	var tm roundTripTimes
	t := time.Now()
	c, err := pipeline.Compress(in, opts)
	tm.write = time.Since(t)
	res.attempted += 2
	if err != nil {
		res.failed += 2
		return tm, fmt.Errorf("compress: %w", err)
	}
	tm.stored = len(c)
	t = time.Now()
	d, err := pipeline.Decompress(c, opts)
	tm.read = time.Since(t)
	if err != nil {
		res.failed++
		return tm, fmt.Errorf("decompress: %w", err)
	}
	if !bytes.Equal(d, in) {
		res.failed++
		res.mismatches++
	}
	return tm, nil
}

// attribute runs the traced passes over each input in turn, so that every
// pass sees the machine in the same state:
//
//  0. pipeline.Compress and pipeline.Decompress without spans, the
//     baseline for the tracing overhead;
//  1. the same calls under pipeline.* spans;
//  2. per shard the pipeline cuts, core.Codec.CompressWithStats and
//     Decompress under core.* spans, with core.Stats as a cross-check,
//     followed by
//  3. a replay of each of the shard's chunks through the public stage
//     functions of bytesplit, freq, isobar, solver and checksum, one span
//     per call.
//
// Every pass checks its output against its input. attribute returns the
// baseline's seconds.
func attribute(tr *tracer, inputs [][]byte, opts pipeline.Options, res *result) (float64, error) {
	rp, err := newReplayer(opts.Core)
	if err != nil {
		return 0, err
	}
	var codec core.Codec
	var base float64
	for _, in := range inputs {
		tm, err := roundTrip(in, opts, res)
		if err != nil {
			return 0, err
		}
		base += (tm.write + tm.read).Seconds()

		id := tr.begin("pipeline.compress")
		c, err := pipeline.Compress(in, opts)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("compress: %w", err)
		}
		id = tr.begin("pipeline.decompress")
		d, err := pipeline.Decompress(c, opts)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("decompress: %w", err)
		}
		res.check(bytes.Equal(d, in))

		shards, err := chunks(in, opts.Core.ChunkBytes)
		if err != nil {
			return 0, err
		}
		tr.add("pipeline.shards", float64(len(shards)))
		for _, shard := range shards {
			id := tr.begin("core.compress")
			c, st, err := codec.CompressWithStats(shard, opts.Core)
			tr.end(id)
			if err != nil {
				return 0, fmt.Errorf("core compress: %w", err)
			}
			tr.add("core.prec_s", st.PrecSeconds)
			tr.add("core.solver_s", st.SolverSeconds)
			tr.add("core.chunks", float64(st.Chunks))
			id = tr.begin("core.decompress")
			d, err := codec.Decompress(c)
			tr.end(id)
			if err != nil {
				return 0, fmt.Errorf("core decompress: %w", err)
			}
			res.check(bytes.Equal(d, shard))

			cs, err := chunks(shard, opts.Core.ChunkBytes)
			if err != nil {
				return 0, err
			}
			for _, c := range cs {
				out, err := rp.roundTrip(tr, c)
				if err != nil {
					return 0, err
				}
				res.check(bytes.Equal(out, c))
			}
		}
	}
	return base, nil
}

// chunks cuts data the way the codec does for a configured chunk size.
func chunks(data []byte, chunkBytes int) ([][]byte, error) {
	plan, err := chunker.NewPlan(len(data), chunkBytes, 8)
	if err != nil {
		return nil, err
	}
	return plan.Split(data)
}

// stageSpans are the spans the chunk replay records, one per stage call.
var stageSpans = []string{
	"bytesplit.split", "bytesplit.columnize", "bytesplit.decolumnize", "bytesplit.merge",
	"freq.build_index", "freq.encode", "freq.decode",
	"isobar.analyze", "isobar.partition", "isobar.unpartition",
	"solver.compress", "solver.decompress", "checksum.crc",
}

// codecLayers turns the spans of attribute into per-layer metrics.
//
// The timed operations are the pipeline calls of pass 1; their wall time
// times the worker count is split, in worker-seconds, into the stage self
// times of pass 3, core.unattributed_s (core time the stages do not
// explain: framing, container headers, scratch handling) and
// pipeline.unattributed_s (worker time the per-shard core calls do not
// explain: scheduling, idle workers, contention). The two remainders close
// the sum by definition; what to watch is their size.
func codecLayers(tr *tracer, workers int, res *result) map[string]float64 {
	secs := tr.seconds()
	out := map[string]float64{}
	var stages float64
	for _, name := range stageSpans {
		out[name+"_s"] = secs[name]
		stages += secs[name]
	}
	for k, v := range tr.counts {
		out[k] = v
	}
	wall := secs["pipeline.compress"] + secs["pipeline.decompress"]
	coreS := secs["core.compress"] + secs["core.decompress"]
	out["pipeline.compress_s"] = secs["pipeline.compress"]
	out["pipeline.decompress_s"] = secs["pipeline.decompress"]
	out["pipeline.efficiency"] = secs["core.compress"] / (secs["pipeline.compress"] * float64(workers))
	out["pipeline.unattributed_s"] = wall*float64(workers) - coreS
	out["core.compress_s"] = secs["core.compress"]
	out["core.unattributed_s"] = coreS - stages
	out["bench.traced_wall_s"] = wall
	if n := out["core.chunks"]; n > 0 {
		out["isobar.alpha2"] /= n
	}
	res.checkSum("codec", wall*float64(workers),
		stages+out["core.unattributed_s"]+out["pipeline.unattributed_s"])
	return out
}

// replayer walks one chunk through the stage functions core.Codec calls, in
// the same order and with the same options, timing each call. It reuses its
// buffers across chunks as the codec does.
type replayer struct {
	sv     solver.Compressor
	lay    bytesplit.Layout
	isoOpt isobar.Options

	counts                          []uint32
	hi, lo, ids, col, comp, incomp  []byte
	idsC, compC, dIDs, dCol, dHi    []byte
	dComp, dLo, dOut, empty, emptyC []byte
}

func newReplayer(opts core.Options) (*replayer, error) {
	name := opts.Solver
	if name == "" {
		name = "zlib"
	}
	sv, err := solver.Get(name)
	if err != nil {
		return nil, err
	}
	lay, err := opts.Precision.Layout()
	if err != nil {
		return nil, err
	}
	emptyC, err := solver.CompressTo(sv, nil, nil)
	if err != nil {
		return nil, err
	}
	return &replayer{sv: sv, lay: lay, isoOpt: opts.ISOBAR, counts: make([]uint32, 1<<16), emptyC: emptyC}, nil
}

// roundTrip compresses chunk stage by stage, then decodes the pieces stage
// by stage, and returns the decoded bytes.
func (r *replayer) roundTrip(tr *tracer, chunk []byte) ([]byte, error) {
	var err error
	lay := r.lay
	n := len(chunk) / lay.ElemBytes

	// Compress: fused split+histogram over a cleared 64Ki counter, index
	// build, ID encode, column linearization, solver; then ISOBAR on the
	// mantissa bytes and the solver on their compressible part.
	id := tr.begin("freq.build_index")
	clear(r.counts)
	tr.end(id)
	id = tr.begin("bytesplit.split")
	r.hi, r.lo, err = lay.AppendSplitCount(r.hi[:0], r.lo[:0], chunk, r.counts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("freq.build_index")
	idx, err := freq.BuildIndex(r.counts)
	var blob []byte
	if err == nil {
		blob = idx.Marshal()
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.add("freq.index_bytes", float64(len(blob)))
	id = tr.begin("freq.encode")
	r.ids, err = idx.AppendEncode(r.ids[:0], r.hi)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("bytesplit.columnize")
	r.col, err = bytesplit.AppendColumnize(r.col[:0], r.ids, lay.HiBytes)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if r.idsC, err = r.compress(tr, r.idsC[:0], r.col); err != nil {
		return nil, err
	}
	id = tr.begin("isobar.analyze")
	an, err := isobar.Analyze(r.lo, lay.LoBytes(), r.isoOpt)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	mask := an.Mask
	tr.add("isobar.alpha2", an.CompressibleFraction())
	id = tr.begin("isobar.partition")
	r.comp, r.incomp, err = isobar.AppendPartition(r.comp[:0], r.incomp[:0], r.lo, lay.LoBytes(), mask)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if r.compC, err = r.compress(tr, r.compC[:0], r.comp); err != nil {
		return nil, err
	}
	if len(r.compC) >= len(r.comp) && len(r.comp) > 0 {
		// The solver expanded the compressible part: the codec discards
		// that output and stores the mantissa bytes column-major instead.
		tr.add("isobar.fallback_chunks", 1)
		mask = 0
		r.comp = r.comp[:0]
		id = tr.begin("bytesplit.columnize")
		r.incomp, err = bytesplit.AppendColumnize(r.incomp[:0], r.lo, lay.LoBytes())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		r.compC = append(r.compC[:0], r.emptyC...)
	}
	crc := r.crc(tr, blob, r.idsC, r.compC, r.incomp)

	// Decompress: check the record, then invert each stage.
	if r.crc(tr, blob, r.idsC, r.compC, r.incomp) != crc {
		return nil, fmt.Errorf("replay: checksum changed")
	}
	id = tr.begin("solver.decompress")
	r.dIDs, err = solver.DecompressTo(r.sv, r.dIDs[:0], r.idsC)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("bytesplit.decolumnize")
	r.dCol, err = bytesplit.AppendDecolumnize(r.dCol[:0], r.dIDs, lay.HiBytes)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("freq.decode")
	didx, err := freq.UnmarshalIndex(blob)
	if err == nil {
		r.dHi, err = didx.AppendDecode(r.dHi[:0], r.dCol)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("solver.decompress")
	r.dComp, err = solver.DecompressTo(r.sv, r.dComp[:0], r.compC)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("isobar.unpartition")
	r.dLo, err = isobar.AppendUnpartition(r.dLo[:0], r.dComp, r.incomp, lay.LoBytes(), mask, n)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("bytesplit.merge")
	r.dOut, err = lay.AppendMerge(r.dOut[:0], r.dHi, r.dLo)
	tr.end(id)
	return r.dOut, err
}

// compress runs the solver on src under a solver.compress span.
func (r *replayer) compress(tr *tracer, dst, src []byte) ([]byte, error) {
	id := tr.begin("solver.compress")
	out, err := solver.CompressTo(r.sv, dst, src)
	tr.end(id)
	tr.add("solver.calls", 1)
	tr.add("solver.in_bytes", float64(len(src)))
	return out, err
}

// crc checksums the pieces of a chunk record under a checksum.crc span.
func (r *replayer) crc(tr *tracer, parts ...[]byte) uint32 {
	id := tr.begin("checksum.crc")
	var sum uint32
	for _, p := range parts {
		sum ^= checksum.Sum(p)
	}
	tr.end(id)
	return sum
}
