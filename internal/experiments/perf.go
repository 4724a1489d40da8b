package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/obs"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// PerfDatasets are the three representative datasets the throughput baseline
// tracks: one from each family the paper draws on (message-passing traces,
// simulation checkpoints, observational data).
var PerfDatasets = []string{"msg_sweep3d", "flash_velx", "obs_temp"}

// PerfSolvers are the solver backends the baseline measures end to end.
var PerfSolvers = []string{"zlib", "lzo", "bzlib"}

// PerfConfig parameterizes the throughput baseline.
type PerfConfig struct {
	// N is the per-dataset element count (DefaultN when 0).
	N int
	// MinTime is the minimum cumulative wall time per throughput
	// measurement; it sizes the auto-calibrated fixed rep count
	// (200ms when 0).
	MinTime time.Duration
	// Samples is how many fixed-work samples each measurement takes
	// (DefaultSamples when 0); min/median/stddev summarize them.
	Samples int
	// Reps pins the per-sample repetition count, bypassing calibration
	// (useful for exactly reproducible runs).
	Reps int
	// Solvers and Datasets override the defaults when non-empty.
	Solvers  []string
	Datasets []string
}

// DefaultSamples is the per-measurement sample count when PerfConfig.Samples
// is zero.
const DefaultSamples = 5

// PerfEntry is one (solver, dataset) cell of the throughput baseline.
type PerfEntry struct {
	Solver          string  `json:"solver"`
	Dataset         string  `json:"dataset"`
	RawBytes        int     `json:"raw_bytes"`
	CompressedBytes int     `json:"compressed_bytes"`
	Ratio           float64 `json:"ratio"`
	// CTPMBps / DTPMBps are end-to-end codec compression and decompression
	// throughput in MB/s (10^6 bytes), the paper's CTP/DTP — taken from the
	// fastest fixed-work sample (least interference from the rest of the
	// machine).
	CTPMBps float64 `json:"ctp_mbps"`
	DTPMBps float64 `json:"dtp_mbps"`
	// Median and standard deviation across the fixed-work samples expose
	// how noisy the run was (absent in baselines recorded before fixed-work
	// sampling).
	CTPMedianMBps float64 `json:"ctp_median_mbps,omitempty"`
	CTPStddevMBps float64 `json:"ctp_stddev_mbps,omitempty"`
	DTPMedianMBps float64 `json:"dtp_median_mbps,omitempty"`
	DTPStddevMBps float64 `json:"dtp_stddev_mbps,omitempty"`
	// CompressAllocs / DecompressAllocs are steady-state heap allocations
	// per full-stream codec call with a reused core.Codec.
	CompressAllocs   float64 `json:"compress_allocs"`
	DecompressAllocs float64 `json:"decompress_allocs"`
}

// OverheadEntry quantifies the observability layer's cost on the codec hot
// path for one dataset: wall time per full-stream compression call with the
// layer disabled, with telemetry recording, and with structured tracing
// (flight recorder, no JSONL sink).
//
// All three modes run the same fixed repetition count (calibrated once on
// the disabled mode) so they do equal work, and each mode is summarized by
// the minimum across samples — the estimator least contaminated by GC and
// scheduler interference. The earlier one-stretch mean measurement could
// rank tracing "faster" than disabled on a noisy machine; min-of-fixed-work
// cannot, short of a genuine speedup.
type OverheadEntry struct {
	Dataset  string `json:"dataset"`
	RawBytes int    `json:"raw_bytes"`
	// Reps and Samples record the fixed-work shape shared by the modes
	// (absent in baselines recorded before fixed-work sampling).
	Reps    int `json:"reps,omitempty"`
	Samples int `json:"samples,omitempty"`
	// *NsPerOp are the per-mode minimums across samples.
	DisabledNsPerOp  float64 `json:"disabled_ns_per_op"`
	TelemetryNsPerOp float64 `json:"telemetry_ns_per_op"`
	TracingNsPerOp   float64 `json:"tracing_ns_per_op"`
	// Median/stddev across samples, per mode (absent in old baselines).
	DisabledMedianNsPerOp  float64 `json:"disabled_median_ns_per_op,omitempty"`
	DisabledStddevNsPerOp  float64 `json:"disabled_stddev_ns_per_op,omitempty"`
	TelemetryMedianNsPerOp float64 `json:"telemetry_median_ns_per_op,omitempty"`
	TelemetryStddevNsPerOp float64 `json:"telemetry_stddev_ns_per_op,omitempty"`
	TracingMedianNsPerOp   float64 `json:"tracing_median_ns_per_op,omitempty"`
	TracingStddevNsPerOp   float64 `json:"tracing_stddev_ns_per_op,omitempty"`
	// TelemetryRatio and TracingRatio summarize the per-round paired ratios
	// telemetry÷disabled and tracing÷disabled. A round times the three
	// modes back to back, so its ratio cancels drift slower than one round,
	// which the per-mode spreads above do not (absent in old baselines).
	TelemetryRatio *PairedRatio `json:"telemetry_ratio,omitempty"`
	TracingRatio   *PairedRatio `json:"tracing_ratio,omitempty"`
}

// TracingOverheadPct is the tracing-enabled slowdown relative to disabled,
// in percent (negative values mean measurement noise exceeded the cost).
func (o OverheadEntry) TracingOverheadPct() float64 {
	if o.DisabledNsPerOp <= 0 {
		return 0
	}
	return 100 * (o.TracingNsPerOp - o.DisabledNsPerOp) / o.DisabledNsPerOp
}

// PerfBaseline is the machine-readable result the benchperf command writes
// to BENCH_throughput.json and CI sanity-checks.
type PerfBaseline struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the live runtime.GOMAXPROCS(0) at measurement time —
	// recorded separately from NumCPU because a capped runtime (cgroup
	// quota, GOMAXPROCS env) makes the two diverge, and multi-core rows are
	// only trustworthy against the effective value (absent in baselines
	// recorded before multi-core measurement).
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Elements   int         `json:"elements_per_dataset"`
	Entries    []PerfEntry `json:"entries"`
	// Overhead is the observability-layer cost measurement (absent in
	// baselines recorded before the tracing layer existed).
	Overhead *OverheadEntry `json:"observability_overhead,omitempty"`
	// Multicore is the parallel-scaling section (absent in baselines
	// recorded before the pipeline was measured).
	Multicore *MulticoreBaseline `json:"multicore,omitempty"`
}

// ThroughputBaseline measures end-to-end compression/decompression
// throughput and steady-state allocation counts for every configured
// (solver, dataset) pair, reusing one core.Codec per pair the way the
// parallel pipeline's workers do.
func ThroughputBaseline(cfg PerfConfig) (*PerfBaseline, error) {
	n := elemCount(cfg.N)
	solvers := cfg.Solvers
	if len(solvers) == 0 {
		solvers = PerfSolvers
	}
	datasets := cfg.Datasets
	if len(datasets) == 0 {
		datasets = PerfDatasets
	}
	base := &PerfBaseline{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Elements:   n,
	}
	for _, ds := range datasets {
		spec, ok := datagen.ByName(ds)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown dataset %q", ds)
		}
		raw := spec.GenerateBytes(n)
		for _, sv := range solvers {
			entry, err := measurePair(sv, ds, raw, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", sv, ds, err)
			}
			base.Entries = append(base.Entries, entry)
		}
	}
	return base, nil
}

func measurePair(sv, ds string, raw []byte, cfg PerfConfig) (PerfEntry, error) {
	opts := core.Options{Solver: sv}
	var codec core.Codec
	enc, err := codec.Compress(raw, opts)
	if err != nil {
		return PerfEntry{}, err
	}
	dec, err := codec.Decompress(enc)
	if err != nil {
		return PerfEntry{}, err
	}
	if len(dec) != len(raw) {
		return PerfEntry{}, fmt.Errorf("round trip lost bytes: %d != %d", len(dec), len(raw))
	}
	entry := PerfEntry{
		Solver:          sv,
		Dataset:         ds,
		RawBytes:        len(raw),
		CompressedBytes: len(enc),
		Ratio:           float64(len(raw)) / float64(len(enc)),
	}
	compress := func() error {
		_, err := codec.Compress(raw, opts)
		return err
	}
	decompress := func() error {
		_, err := codec.Decompress(enc)
		return err
	}
	// Compression and decompression differ in speed, so each direction gets
	// its own calibrated rep count; min/median/stddev come from the same
	// fixed-work samples either way.
	mbps := func(nsPerOp float64) float64 {
		if nsPerOp <= 0 {
			return 0
		}
		return float64(len(raw)) / nsPerOp * 1e9 / 1e6
	}
	reps, samples, err := fixedShape(cfg, compress)
	if err != nil {
		return PerfEntry{}, err
	}
	cm, err := measureFixed(reps, samples, compress)
	if err != nil {
		return PerfEntry{}, err
	}
	entry.CTPMBps = mbps(cm.Min())
	entry.CTPMedianMBps = mbps(cm.Median())
	if med := cm.Median(); med > 0 {
		entry.CTPStddevMBps = entry.CTPMedianMBps * cm.Stddev() / med
	}

	reps, samples, err = fixedShape(cfg, decompress)
	if err != nil {
		return PerfEntry{}, err
	}
	dm, err := measureFixed(reps, samples, decompress)
	if err != nil {
		return PerfEntry{}, err
	}
	entry.DTPMBps = mbps(dm.Min())
	entry.DTPMedianMBps = mbps(dm.Median())
	if med := dm.Median(); med > 0 {
		entry.DTPStddevMBps = entry.DTPMedianMBps * dm.Stddev() / med
	}
	entry.CompressAllocs = allocsPerRun(3, func() {
		if _, err := codec.Compress(raw, opts); err != nil {
			panic(err)
		}
	})
	entry.DecompressAllocs = allocsPerRun(3, func() {
		if _, err := codec.Decompress(enc); err != nil {
			panic(err)
		}
	})
	return entry, nil
}

// overheadRounds is the least number of interleaved rounds MeasureOverhead
// takes. A full-stream call on a default-size dataset lasts tens of
// milliseconds, so a sample is one call and the rounds must supply the
// resolution: 25 per-round ratios give quartiles that mean something.
const overheadRounds = 25

// MeasureOverhead times the codec with the observability layer off, with
// telemetry recording, and with tracing, on the first configured dataset.
// All three modes run the same calibrated fixed rep count per sample, so the
// comparison is work-for-work rather than whatever-fit-in-the-window. Each
// mode reports through its own context, so the measurement shares no state
// with other codec users.
func MeasureOverhead(cfg PerfConfig) (*OverheadEntry, error) {
	n := elemCount(cfg.N)
	ds := PerfDatasets[0]
	if len(cfg.Datasets) > 0 {
		ds = cfg.Datasets[0]
	}
	spec, ok := datagen.ByName(ds)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", ds)
	}
	raw := spec.GenerateBytes(n)
	var codec core.Codec
	opts := core.Options{}
	compressIn := func(ctx context.Context) func() error {
		return func() error {
			_, err := codec.CompressCtx(ctx, raw, opts)
			return err
		}
	}
	bg := context.Background()
	reps, samples, err := fixedShape(cfg, compressIn(bg))
	if err != nil {
		return nil, err
	}
	rounds := max(samples, overheadRounds)
	out := &OverheadEntry{Dataset: ds, RawBytes: len(raw), Reps: reps, Samples: rounds}

	// The modes are interleaved round by round — every round takes one
	// fixed-work sample of each mode back to back, starting with a
	// different mode each round — so slow drift (thermal throttling,
	// background load) hits all three equally instead of biasing whichever
	// block ran while the machine was busy. Sequential blocks are how the
	// old measurement ranked tracing "faster" than disabled.
	modes := []struct {
		op func() error
		m  *Measurement
	}{
		{compressIn(bg), &Measurement{Reps: reps}},
		{compressIn(obs.With(bg, obs.New(telemetry.NewRegistry(), nil))), &Measurement{Reps: reps}},
		{compressIn(obs.With(bg, obs.New(nil, trace.New(trace.Config{})))), &Measurement{Reps: reps}},
	}
	for round := 0; round <= rounds; round++ {
		for k := range modes {
			mode := modes[(round+k)%len(modes)]
			s, err := measureFixed(reps, 1, mode.op)
			if err != nil {
				return nil, err
			}
			// Round 0 is warm-up: it pages in code paths and steadies the
			// allocator, and its timings are discarded.
			if round > 0 {
				mode.m.SamplesN = append(mode.m.SamplesN, s.SamplesN[0])
			}
		}
	}
	disabled, withTelem, withTrace := *modes[0].m, *modes[1].m, *modes[2].m
	out.DisabledNsPerOp = disabled.Min()
	out.DisabledMedianNsPerOp = disabled.Median()
	out.DisabledStddevNsPerOp = disabled.Stddev()
	out.TelemetryNsPerOp = withTelem.Min()
	out.TelemetryMedianNsPerOp = withTelem.Median()
	out.TelemetryStddevNsPerOp = withTelem.Stddev()
	out.TracingNsPerOp = withTrace.Min()
	out.TracingMedianNsPerOp = withTrace.Median()
	out.TracingStddevNsPerOp = withTrace.Stddev()
	out.TelemetryRatio = pairedRatio(withTelem, disabled)
	out.TracingRatio = pairedRatio(withTrace, disabled)
	return out, nil
}

// PairedRatio summarizes per-round ratios of one mode's sample to the
// disabled mode's sample of the same round.
type PairedRatio struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// pairedRatio summarizes a's samples over b's, round by round.
func pairedRatio(a, b Measurement) *PairedRatio {
	r := Measurement{SamplesN: make([]float64, len(a.SamplesN))}
	for i := range a.SamplesN {
		r.SamplesN[i] = a.SamplesN[i] / b.SamplesN[i]
	}
	return &PairedRatio{Median: r.Quantile(0.5), Q1: r.Quantile(0.25), Q3: r.Quantile(0.75)}
}

// Measurement is the result of sampled fixed-work timing: Samples runs of
// exactly Reps calls each, summarized by per-sample mean ns/op.
type Measurement struct {
	Reps     int
	SamplesN []float64 // per-sample ns/op
}

// Min is the fastest sample — the estimator least contaminated by external
// interference, since noise only ever adds time.
func (m Measurement) Min() float64 {
	min := math.Inf(1)
	for _, v := range m.SamplesN {
		if v < min {
			min = v
		}
	}
	return min
}

// Median is the middle sample (mean of the middle two for even counts).
func (m Measurement) Median() float64 { return m.Quantile(0.5) }

// Quantile is the q-quantile of the samples, interpolated linearly between
// the two nearest ranks.
func (m Measurement) Quantile(q float64) float64 {
	s := append([]float64(nil), m.SamplesN...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// Stddev is the sample standard deviation across samples.
func (m Measurement) Stddev() float64 {
	n := len(m.SamplesN)
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range m.SamplesN {
		mean += v
	}
	mean /= float64(n)
	ss := 0.0
	for _, v := range m.SamplesN {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// calibrateReps sizes a fixed repetition count so one sample lasts roughly
// targetSample, from a single timed call.
func calibrateReps(targetSample time.Duration, op func() error) (int, error) {
	start := time.Now()
	if err := op(); err != nil {
		return 0, err
	}
	per := time.Since(start)
	if per <= 0 {
		per = time.Nanosecond
	}
	reps := int(targetSample / per)
	if reps < 1 {
		reps = 1
	}
	return reps, nil
}

// measureFixed runs samples batches of exactly reps calls each and reports
// per-sample mean ns/op. Fixed work per sample is what makes samples — and
// measurement modes sharing one rep count — comparable.
func measureFixed(reps, samples int, op func() error) (Measurement, error) {
	m := Measurement{Reps: reps, SamplesN: make([]float64, 0, samples)}
	for s := 0; s < samples; s++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := op(); err != nil {
				return m, err
			}
		}
		m.SamplesN = append(m.SamplesN, float64(time.Since(start).Nanoseconds())/float64(reps))
	}
	return m, nil
}

// fixedShape resolves the (reps, samples) measurement shape from config:
// pinned reps when given, otherwise calibrated so one sample ≈
// minTime/samples.
func fixedShape(cfg PerfConfig, op func() error) (reps, samples int, err error) {
	samples = cfg.Samples
	if samples <= 0 {
		samples = DefaultSamples
	}
	minTime := cfg.MinTime
	if minTime <= 0 {
		minTime = 200 * time.Millisecond
	}
	reps = cfg.Reps
	if reps <= 0 {
		reps, err = calibrateReps(minTime/time.Duration(samples), op)
	}
	return reps, samples, err
}

// allocsPerRun mirrors testing.AllocsPerRun (single-threaded, warm-up call,
// mallocs averaged over runs) without pulling package testing into the
// library import graph.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// Check validates a baseline the way CI does: every configured cell present,
// every ratio and throughput finite and positive.
func (b *PerfBaseline) Check() error {
	if b.GoVersion == "" || b.GOOS == "" || b.GOARCH == "" || b.NumCPU <= 0 {
		return fmt.Errorf("experiments: baseline missing environment metadata")
	}
	if len(b.Entries) == 0 {
		return fmt.Errorf("experiments: baseline has no entries")
	}
	for _, e := range b.Entries {
		if e.Solver == "" || e.Dataset == "" {
			return fmt.Errorf("experiments: entry missing solver/dataset: %+v", e)
		}
		for name, v := range map[string]float64{
			"ratio": e.Ratio, "ctp_mbps": e.CTPMBps, "dtp_mbps": e.DTPMBps,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("experiments: %s/%s: %s = %v not finite and positive",
					e.Solver, e.Dataset, name, v)
			}
		}
		if e.RawBytes <= 0 || e.CompressedBytes <= 0 {
			return fmt.Errorf("experiments: %s/%s: sizes not populated", e.Solver, e.Dataset)
		}
		if e.CompressAllocs < 0 || e.DecompressAllocs < 0 {
			return fmt.Errorf("experiments: %s/%s: negative alloc counts", e.Solver, e.Dataset)
		}
		// Sample statistics are optional (old baselines), but when present
		// they must be coherent: finite, non-negative spread, and a median
		// no faster than the best sample.
		for name, pair := range map[string][2]float64{
			"ctp": {e.CTPMedianMBps, e.CTPStddevMBps},
			"dtp": {e.DTPMedianMBps, e.DTPStddevMBps},
		} {
			median, stddev := pair[0], pair[1]
			if median == 0 && stddev == 0 {
				continue
			}
			best := e.CTPMBps
			if name == "dtp" {
				best = e.DTPMBps
			}
			if math.IsNaN(median) || math.IsInf(median, 0) || median <= 0 ||
				math.IsNaN(stddev) || math.IsInf(stddev, 0) || stddev < 0 {
				return fmt.Errorf("experiments: %s/%s: %s sample stats not finite", e.Solver, e.Dataset, name)
			}
			if median > best*1.0001 {
				return fmt.Errorf("experiments: %s/%s: %s median %.2f exceeds best sample %.2f",
					e.Solver, e.Dataset, name, median, best)
			}
		}
	}
	if o := b.Overhead; o != nil {
		if o.Dataset == "" || o.RawBytes <= 0 {
			return fmt.Errorf("experiments: overhead entry missing dataset/size: %+v", o)
		}
		for name, v := range map[string]float64{
			"disabled_ns_per_op":  o.DisabledNsPerOp,
			"telemetry_ns_per_op": o.TelemetryNsPerOp,
			"tracing_ns_per_op":   o.TracingNsPerOp,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("experiments: overhead %s = %v not finite and positive", name, v)
			}
		}
		// Fixed-work runs: the per-mode minimum can never beat the median.
		for name, pair := range map[string][2]float64{
			"disabled":  {o.DisabledNsPerOp, o.DisabledMedianNsPerOp},
			"telemetry": {o.TelemetryNsPerOp, o.TelemetryMedianNsPerOp},
			"tracing":   {o.TracingNsPerOp, o.TracingMedianNsPerOp},
		} {
			min, median := pair[0], pair[1]
			if median != 0 && min > median*1.0001 {
				return fmt.Errorf("experiments: overhead %s min %.0fns exceeds its median %.0fns", name, min, median)
			}
		}
		for name, r := range map[string]*PairedRatio{"telemetry": o.TelemetryRatio, "tracing": o.TracingRatio} {
			if r != nil && !(r.Q1 > 0 && r.Q1 <= r.Median && r.Median <= r.Q3 && !math.IsInf(r.Q3, 0)) {
				return fmt.Errorf("experiments: overhead %s ratio quartiles incoherent: %+v", name, *r)
			}
		}
	}
	if b.Multicore != nil {
		if err := b.Multicore.Check(); err != nil {
			return err
		}
	}
	return nil
}

// MarshalIndent renders the baseline as the committed JSON form.
func (b *PerfBaseline) MarshalIndent() ([]byte, error) {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// LoadBaseline parses a BENCH_throughput.json payload.
func LoadBaseline(data []byte) (*PerfBaseline, error) {
	var b PerfBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("experiments: parse baseline: %w", err)
	}
	return &b, nil
}
