package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/pipeline"
)

// MulticoreEntry is one (dataset, workers) cell of the parallel-scaling
// baseline: pipeline compression goodput at a given worker count, plus its
// speedup and parallel efficiency relative to the same dataset's 1-worker
// row.
type MulticoreEntry struct {
	Dataset  string `json:"dataset"`
	Workers  int    `json:"workers"`
	RawBytes int    `json:"raw_bytes"`
	// CompressMBps is end-to-end pipeline.Compress goodput in MB/s (10^6
	// bytes), taken from the fastest fixed-work sample.
	CompressMBps float64 `json:"compress_mbps"`
	// Speedup is CompressMBps over the dataset's workers=1 CompressMBps;
	// Efficiency is Speedup/Workers (1.0 = perfect linear scaling).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// MulticoreBaseline is the parallel-scaling section of the committed
// benchmark baseline. Requested worker counts and the effective GOMAXPROCS
// are both recorded, so a row claiming 4-way parallelism on a 1-core
// machine is visibly overhead-bound rather than silently misleading.
type MulticoreBaseline struct {
	// GOMAXPROCS is the live runtime.GOMAXPROCS(0) at measurement time —
	// the parallelism the rows could actually exploit.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Elements   int `json:"elements_per_dataset"`
	// WorkerCounts are the requested pipeline widths, ascending.
	WorkerCounts []int            `json:"worker_counts"`
	Entries      []MulticoreEntry `json:"entries"`
}

// MulticoreWorkerCounts is the ladder the baseline measures: 1, 2, 4, and
// NumCPU, deduplicated and ascending (on a 4-core machine that is 1/2/4; on
// one core just 1/2/4 with the upper rungs overhead-bound).
func MulticoreWorkerCounts() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	out := make([]int, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// MeasureMulticore measures pipeline compression goodput for every dataset
// in cfg.Datasets (all 20 Table III datasets when empty) across the worker
// ladder. The container is worker-invariant, so every row compresses to
// byte-identical output and the comparison is pure scheduling.
func MeasureMulticore(cfg PerfConfig) (*MulticoreBaseline, error) {
	n := elemCount(cfg.N)
	datasets := cfg.Datasets
	if len(datasets) == 0 {
		datasets = datagen.Names()
	}
	solver := "zlib"
	if len(cfg.Solvers) > 0 {
		solver = cfg.Solvers[0]
	}
	base := &MulticoreBaseline{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Elements:     n,
		WorkerCounts: MulticoreWorkerCounts(),
	}
	for _, ds := range datasets {
		spec, ok := datagen.ByName(ds)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown dataset %q", ds)
		}
		raw := spec.GenerateBytes(n)
		// Chunk small enough that even the smallest test inputs split into
		// more chunks than the ladder's widest rung, so every worker has work.
		copts := core.Options{Solver: solver, ChunkBytes: len(raw)/(2*base.WorkerCounts[len(base.WorkerCounts)-1]) + 8}
		var baseMBps float64
		for _, w := range base.WorkerCounts {
			popts := pipeline.Options{Core: copts, Workers: w}
			compress := func() error {
				_, err := pipeline.Compress(raw, popts)
				return err
			}
			if err := compress(); err != nil {
				return nil, fmt.Errorf("experiments: %s workers=%d: %w", ds, w, err)
			}
			reps, samples, err := fixedShape(cfg, compress)
			if err != nil {
				return nil, err
			}
			m, err := measureFixed(reps, samples, compress)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s workers=%d: %w", ds, w, err)
			}
			entry := MulticoreEntry{Dataset: ds, Workers: w, RawBytes: len(raw)}
			if min := m.Min(); min > 0 {
				entry.CompressMBps = float64(len(raw)) / min * 1e9 / 1e6
			}
			if w == 1 {
				baseMBps = entry.CompressMBps
			}
			if baseMBps > 0 {
				entry.Speedup = entry.CompressMBps / baseMBps
				entry.Efficiency = entry.Speedup / float64(w)
			}
			base.Entries = append(base.Entries, entry)
		}
	}
	return base, nil
}

// entry returns the (dataset, workers) cell, or nil.
func (b *MulticoreBaseline) entry(ds string, w int) *MulticoreEntry {
	for i := range b.Entries {
		e := &b.Entries[i]
		if e.Dataset == ds && e.Workers == w {
			return e
		}
	}
	return nil
}

// datasets lists the distinct dataset names present, in first-seen order.
func (b *MulticoreBaseline) datasets() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range b.Entries {
		if !seen[e.Dataset] {
			seen[e.Dataset] = true
			out = append(out, e.Dataset)
		}
	}
	return out
}

// Check validates the baseline structurally: every (dataset, workers) cell
// present with finite positive goodput, a workers=1 row per dataset, and
// speedup/efficiency consistent with the goodput ratios.
func (b *MulticoreBaseline) Check() error {
	if b.GOMAXPROCS <= 0 || b.NumCPU <= 0 {
		return fmt.Errorf("experiments: multicore baseline missing cpu metadata")
	}
	if len(b.WorkerCounts) == 0 || b.WorkerCounts[0] != 1 {
		return fmt.Errorf("experiments: multicore worker ladder %v must start at 1", b.WorkerCounts)
	}
	if len(b.Entries) == 0 {
		return fmt.Errorf("experiments: multicore baseline has no entries")
	}
	for _, ds := range b.datasets() {
		var base float64
		for _, w := range b.WorkerCounts {
			e := b.entry(ds, w)
			if e == nil {
				return fmt.Errorf("experiments: multicore cell %s/workers=%d missing", ds, w)
			}
			if math.IsNaN(e.CompressMBps) || math.IsInf(e.CompressMBps, 0) || e.CompressMBps <= 0 {
				return fmt.Errorf("experiments: %s/workers=%d: goodput %v not finite and positive", ds, w, e.CompressMBps)
			}
			if w == 1 {
				base = e.CompressMBps
			}
			want := e.CompressMBps / base
			if base <= 0 || math.Abs(e.Speedup-want) > 0.01*want {
				return fmt.Errorf("experiments: %s/workers=%d: speedup %.3f inconsistent with goodput ratio %.3f",
					ds, w, e.Speedup, want)
			}
		}
	}
	return nil
}

// CheckScaling enforces the parallel-efficiency floor, adaptively to the
// machine the baseline was taken on:
//
//   - With real parallelism available (GOMAXPROCS > 1), the widest rung must
//     reach ≥ 1.5× speedup on at least half the datasets — a regression in
//     shard scheduling or a new serial bottleneck fails here.
//   - On one core (GOMAXPROCS == 1) no speedup is physically possible, so
//     the check inverts: extra workers may only cost bounded overhead —
//     every workers>1 row must keep ≥ 60% of its dataset's 1-worker goodput.
func (b *MulticoreBaseline) CheckScaling() error {
	if err := b.Check(); err != nil {
		return err
	}
	widest := b.WorkerCounts[len(b.WorkerCounts)-1]
	if b.GOMAXPROCS == 1 {
		for _, e := range b.Entries {
			if e.Workers > 1 && e.Speedup < 0.60 {
				return fmt.Errorf("experiments: %s/workers=%d: parallel overhead ate %.0f%% of 1-worker goodput on a 1-core machine",
					e.Dataset, e.Workers, 100*(1-e.Speedup))
			}
		}
		return nil
	}
	target := math.Min(1.5, float64(b.GOMAXPROCS))
	ok := 0
	ds := b.datasets()
	for _, d := range ds {
		if e := b.entry(d, widest); e != nil && e.Speedup >= target {
			ok++
		}
	}
	if ok*2 < len(ds) {
		return fmt.Errorf("experiments: only %d/%d datasets reach %.1fx speedup at %d workers (GOMAXPROCS %d)",
			ok, len(ds), target, widest, b.GOMAXPROCS)
	}
	return nil
}
