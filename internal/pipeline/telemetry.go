package pipeline

import (
	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// pipeMetrics bundles the parallel runner's telemetry handles, looked up
// once per call from the call's observer.
type pipeMetrics struct {
	shards       *telemetry.Counter
	shardErrors  *telemetry.Counter
	shardSeconds *telemetry.Histogram
}

var pipeBundle = obs.NewBundle(func(r *telemetry.Registry) *pipeMetrics {
	return &pipeMetrics{
		shards:       r.Counter("primacy_pipeline_shards_total", "Shards processed (compress or decompress)."),
		shardErrors:  r.Counter("primacy_pipeline_shard_errors_total", "Shards that failed or panicked."),
		shardSeconds: r.Histogram("primacy_pipeline_shard_seconds", "Per-shard processing time, including admission wait.", nil),
	}
})
