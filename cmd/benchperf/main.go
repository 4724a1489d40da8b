// Command benchperf measures end-to-end codec throughput (the paper's
// CTP/DTP) and steady-state allocation counts per solver on the three
// representative datasets, plus multi-core pipeline scaling (goodput,
// speedup, efficiency per dataset across a 1/2/4/NumCPU worker ladder), and
// writes the machine-readable baseline that is committed as
// BENCH_throughput.json.
//
// Usage:
//
//	benchperf                         # print baseline to stdout
//	benchperf -o BENCH_throughput.json
//	benchperf -n 262144 -mintime 500ms
//	benchperf -precond                # compare preconditioner selection modes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"primacy/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchperf: ")
	n := flag.Int("n", 0, "elements per dataset (0 = default)")
	minTime := flag.Duration("mintime", 200*time.Millisecond, "target cumulative wall time per measurement (sizes the calibrated rep count)")
	samples := flag.Int("samples", 0, "fixed-work samples per measurement (0 = default)")
	reps := flag.Int("reps", 0, "pin the per-sample rep count instead of calibrating")
	out := flag.String("o", "", "write baseline JSON to this file (stdout when empty)")
	precondMode := flag.Bool("precond", false, "compare preconditioner selection modes (fixed/apriori/aposteriori) over all datasets instead of measuring the throughput baseline")
	precondSolver := flag.String("precond-solver", "zlib", "solver for the -precond comparison")
	noMulticore := flag.Bool("no-multicore", false, "skip the multi-core pipeline scaling measurement")
	mcN := flag.Int("multicore-n", 0, "elements per dataset for the multi-core section (0 = same as -n)")
	flag.Parse()

	if *precondMode {
		runPrecond(*n, *precondSolver, *out)
		return
	}

	cfg := experiments.PerfConfig{
		N:       *n,
		MinTime: *minTime,
		Samples: *samples,
		Reps:    *reps,
	}
	base, err := experiments.ThroughputBaseline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	base.Overhead, err = experiments.MeasureOverhead(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !*noMulticore {
		mcCfg := cfg
		if *mcN > 0 {
			mcCfg.N = *mcN
		}
		// The multi-core section sweeps all 20 datasets across the worker
		// ladder; it reuses the throughput run's sampling shape.
		base.Multicore, err = experiments.MeasureMulticore(mcCfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := base.Check(); err != nil {
		log.Fatal(err)
	}
	data, err := base.MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	for _, e := range base.Entries {
		fmt.Printf("%-6s %-12s ratio %5.2f  CTP %7.2f MB/s (med %7.2f ±%5.2f)  DTP %7.2f MB/s (med %7.2f ±%5.2f)  allocs %.0f/%.0f\n",
			e.Solver, e.Dataset, e.Ratio,
			e.CTPMBps, e.CTPMedianMBps, e.CTPStddevMBps,
			e.DTPMBps, e.DTPMedianMBps, e.DTPStddevMBps,
			e.CompressAllocs, e.DecompressAllocs)
	}
	if mc := base.Multicore; mc != nil {
		fmt.Printf("multi-core pipeline scaling (GOMAXPROCS %d, %d elements/dataset, workers %v):\n",
			mc.GOMAXPROCS, mc.Elements, mc.WorkerCounts)
		for _, e := range mc.Entries {
			fmt.Printf("  %-16s workers %2d  %8.2f MB/s  speedup %5.2fx  efficiency %4.0f%%\n",
				e.Dataset, e.Workers, e.CompressMBps, e.Speedup, 100*e.Efficiency)
		}
	}
	if o := base.Overhead; o != nil {
		fmt.Printf("observability overhead (%s, %d reps x %d samples, min/median±stddev ms/op):\n", o.Dataset, o.Reps, o.Samples)
		fmt.Printf("  disabled  %.2f / %.2f ±%.3f\n", o.DisabledNsPerOp/1e6, o.DisabledMedianNsPerOp/1e6, o.DisabledStddevNsPerOp/1e6)
		fmt.Printf("  telemetry %.2f / %.2f ±%.3f\n", o.TelemetryNsPerOp/1e6, o.TelemetryMedianNsPerOp/1e6, o.TelemetryStddevNsPerOp/1e6)
		fmt.Printf("  tracing   %.2f / %.2f ±%.3f (%+.1f%% vs disabled)\n",
			o.TracingNsPerOp/1e6, o.TracingMedianNsPerOp/1e6, o.TracingStddevNsPerOp/1e6, o.TracingOverheadPct())
		for _, r := range []struct {
			name string
			r    *experiments.PairedRatio
		}{{"telemetry", o.TelemetryRatio}, {"tracing", o.TracingRatio}} {
			if r.r != nil {
				fmt.Printf("  %-9s ÷ disabled, paired by round: median %.4f (quartiles %.4f–%.4f)\n", r.name, r.r.Median, r.r.Q1, r.r.Q3)
			}
		}
	}
}

// runPrecond runs the selection-mode comparison and prints a per-dataset
// table (or writes the JSON report when -o is set).
func runPrecond(n int, solver, out string) {
	cmp, err := experiments.ComparePrecond(experiments.PrecondConfig{N: n, Solver: solver})
	if err != nil {
		log.Fatal(err)
	}
	if out != "" {
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("preconditioner selection (%s, %d elements/dataset):\n", cmp.Solver, cmp.Elements)
	for _, e := range cmp.Entries {
		fmt.Printf("%-16s", e.Dataset)
		for _, m := range e.Modes {
			fmt.Printf("  %s %6.4f (%6.1f MB/s)", m.Mode, m.Ratio, m.CTPMBps)
		}
		if a := e.Result("aposteriori"); a != nil && len(a.TransformChunks) > 0 {
			fmt.Printf("  picks %v", a.TransformChunks)
		}
		fmt.Println()
	}
}
