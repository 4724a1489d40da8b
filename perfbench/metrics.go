package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json that names the reported metrics.
//
// A run with --trace 0 reports every end_to_end metric, on every workload.
// Each workload has a write operation and a read operation:
//
//	bulk, small-chunk  pipeline.Compress / pipeline.Decompress of a dataset
//	daemon             POST /v1/compress / POST /v1/decompress
//	archive            POST /v1/archive/put / GET /v1/archive/get
//
// A run with --trace 1 reports every per_layer metric, on every workload; a
// layer the workload does not exercise reads 0 there.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics", path)
	}
	return &s, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mbps is the median throughput of operations that each move n raw bytes,
// given their latencies in ms.
func mbps(n int, latMs []float64) float64 {
	return float64(n) / 1e3 / median(latMs)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
