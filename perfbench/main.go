// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output, and prints its metrics as
// the last line of standard output:
//
//	perfbench --workload bulk --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload again with spans around the calls into each layer and prints
// the per-layer metrics. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// args are the command-line settings every workload sees.
type args struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spec     string // BENCHMARK.json, which names the metrics
	primacyd string // path of the primacyd binary (daemon, archive)
	work     string // scratch directory for daemon data and results
}

// result is what a workload run produced.
type result struct {
	attempted, failed int
	mismatches        int      // outputs that differed from what was expected
	accounting        []string // traced-run identities that did not close
	e2e               map[string]float64
	layers            map[string]float64
	raw               map[string]any // per-operation series, saved with the run
	tr                *tracer
}

// check records the outcome of an output comparison made outside the
// counted operations (the traced passes).
func (r *result) check(ok bool) {
	if !ok {
		r.mismatches++
	}
}

// checkSum records an accounting identity whose two sides must agree.
func (r *result) checkSum(name string, want, got float64) {
	if math.Abs(want-got) > 1e-6*math.Max(1, math.Abs(want)) {
		r.accounting = append(r.accounting, fmt.Sprintf("%s: %.9g != %.9g", name, got, want))
	}
}

var workloads = map[string]func(args, map[string]any) (*result, error){
	"bulk": func(a args, env map[string]any) (*result, error) {
		return runCodec(codecConfig{solver: "zlib"}, a, env)
	},
	"small-chunk": func(a args, env map[string]any) (*result, error) {
		return runCodec(codecConfig{solver: "lzo", chunk: 16 << 10}, a, env)
	},
	"daemon":  runDaemon,
	"archive": runArchive,
}

func main() {
	runtime.GOMAXPROCS(2)
	var a args
	var traceN int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&a.workload, "workload", "", "bulk, small-chunk, daemon or archive")
	fs.Int64Var(&a.seed, "seed", 1, "workload seed")
	fs.IntVar(&a.seconds, "seconds", 20, "measured time per run, seconds")
	fs.IntVar(&traceN, "trace", 0, "1 for the traced run with per-layer metrics")
	fs.StringVar(&a.spec, "spec", "BENCHMARK.json", "benchmark definition naming the metrics")
	fs.StringVar(&a.primacyd, "primacyd", "", "primacyd binary")
	fs.StringVar(&a.work, "work", ".bench_build", "scratch directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	a.trace = traceN == 1
	run, ok := workloads[a.workload]
	if !ok || a.seconds < 1 || (traceN != 0 && traceN != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", a.workload, a.seconds, traceN)
		os.Exit(2)
	}
	// Daemons started by a run are stopped on any exit path, signals too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()
	code := 0
	if err := execute(run, a); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", a.workload, err)
		code = 1
	}
	stopAll()
	os.Exit(code)
}

func execute(run func(args, map[string]any) (*result, error), a args) error {
	sp, err := loadSpec(a.spec)
	if err != nil {
		return err
	}
	env := map[string]any{
		"workload":   a.workload,
		"seed":       a.seed,
		"seconds":    a.seconds,
		"trace":      a.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	env["calibration_ms"] = calibrate()
	steal0, total0 := cpuJiffies()
	res, err := run(a, env)
	if err != nil {
		return err
	}
	// The share of CPU time the hypervisor gave to other guests during the
	// run: on a shared VM, the first thing to check when numbers jump.
	if steal1, total1 := cpuJiffies(); total1 > total0 {
		env["steal_frac"] = (steal1 - steal0) / (total1 - total0)
	}
	if res.e2e != nil {
		res.e2e["ok_frac"] = float64(res.attempted-res.failed) / float64(max(res.attempted, 1))
	}
	defs, values := sp.EndToEnd, res.e2e
	if a.trace {
		defs, values = sp.PerLayer, res.layers
	}
	metrics := map[string]any{}
	for name := range values {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
			return fmt.Errorf("metric %s is not in %s", name, a.spec)
		}
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !a.trace {
			return fmt.Errorf("metric %s not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	correct := res.mismatches == 0 && len(res.accounting) == 0
	for _, msg := range res.accounting {
		fmt.Fprintf(os.Stderr, "perfbench: accounting does not close: %s\n", msg)
	}
	if res.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d outputs differed from the expected bytes\n", res.mismatches)
	}
	if err := saveRun(a, env, metrics, res); err != nil {
		return err
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	fmt.Println(string(out))
	return nil
}

// calibrate times a fixed job that does not touch the program: a 4Mi-step
// integer hash walk that fills 32 MiB, then eight copies of it. It returns
// the median of three runs in ms. The VM's speed drifts by a third or more
// over minutes without showing as steal, mostly in memory-bound work; this
// number lets runs taken at different times be told apart.
func calibrate() float64 {
	src, dst := make([]uint64, 4<<20), make([]uint64, 4<<20)
	var ms []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		x := uint64(88172645463325252)
		for j := range src {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			src[j] = x
		}
		for range 8 {
			copy(dst, src)
		}
		ms = append(ms, time.Since(t).Seconds()*1e3)
	}
	return median(ms)
}

// saveRun writes the run's environment and metrics, and its spans when
// traced, under <work>/results.
func saveRun(a args, env map[string]any, metrics map[string]any, res *result) error {
	dir := filepath.Join(a.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v", a.workload, a.seed, a.trace))
	blob, err := json.MarshalIndent(map[string]any{"env": env, "metrics": metrics, "raw": res.raw}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", blob, 0o644); err != nil {
		return err
	}
	if res.tr != nil {
		return res.tr.writeJSONL(base + ".spans.jsonl")
	}
	return nil
}
