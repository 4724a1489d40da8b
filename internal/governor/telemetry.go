package governor

import (
	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// metrics bundles the governor's telemetry handles. A governor takes its
// bundle once, from the observer it is built with, so Acquire and Release
// always move the same gauges; with no registry every handle is nil.
type metrics struct {
	// acquires counts successful admissions; blocked counts the subset that
	// had to queue; cancelled counts waits abandoned via context.
	acquires  *telemetry.Counter
	blocked   *telemetry.Counter
	cancelled *telemetry.Counter
	// waitSeconds observes how long blocked Acquire calls queued — the
	// admission-wait component of end-to-end latency under load.
	waitSeconds *telemetry.Histogram
	// queueDepth, inFlight, and inFlightBytes are delta-tracked gauges, so
	// several governors sharing one registry aggregate correctly.
	queueDepth    *telemetry.Gauge
	inFlight      *telemetry.Gauge
	inFlightBytes *telemetry.Gauge
}

var bundle = obs.NewBundle(func(r *telemetry.Registry) *metrics {
	return &metrics{
		acquires:      r.Counter("primacy_governor_acquires_total", "Admissions granted."),
		blocked:       r.Counter("primacy_governor_blocked_total", "Acquires that queued before admission."),
		cancelled:     r.Counter("primacy_governor_cancelled_total", "Queued acquires abandoned by context cancellation."),
		waitSeconds:   r.Histogram("primacy_governor_wait_seconds", "Queue time of blocked acquires.", nil),
		queueDepth:    r.Gauge("primacy_governor_queue_depth", "Acquires currently queued."),
		inFlight:      r.Gauge("primacy_governor_inflight", "Admissions currently held."),
		inFlightBytes: r.Gauge("primacy_governor_inflight_bytes", "Bytes of input currently admitted."),
	}
})
