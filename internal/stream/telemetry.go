package stream

import (
	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// streamMetrics bundles the streaming adapters' telemetry handles, looked up
// once per reader or writer from its context's observer.
type streamMetrics struct {
	// Writer side.
	segments *telemetry.Counter
	segBytes *telemetry.Counter
	segRaw   *telemetry.Counter
	segSecs  *telemetry.Histogram
	// Salvage-reader side.
	salvageFaults *telemetry.Counter
	resyncs       *telemetry.Counter
}

var streamBundle = obs.NewBundle(func(r *telemetry.Registry) *streamMetrics {
	return &streamMetrics{
		segments:      r.Counter("primacy_stream_segments_total", "Segments emitted by stream writers."),
		segBytes:      r.Counter("primacy_stream_segment_bytes_total", "Compressed segment bytes emitted (payload, not framing)."),
		segRaw:        r.Counter("primacy_stream_raw_bytes_total", "Raw bytes consumed into emitted segments."),
		segSecs:       r.Histogram("primacy_stream_segment_seconds", "Per-segment compress-and-write time, including admission wait.", nil),
		salvageFaults: r.Counter("primacy_stream_salvage_faults_total", "Faults recorded by salvage readers."),
		resyncs:       r.Counter("primacy_stream_salvage_resyncs_total", "Resync scans performed by salvage readers."),
	}
})
