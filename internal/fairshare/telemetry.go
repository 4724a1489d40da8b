package fairshare

import (
	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// metrics bundles the admitter's telemetry handles. An admitter takes its
// bundle once, from Config.Observer, so Acquire and Release always move the
// same gauges; with no registry every handle is nil.
type metrics struct {
	// admitted counts successful admissions; blocked the subset that had to
	// queue; cancelled waits abandoned via context.
	admitted  *telemetry.Counter
	blocked   *telemetry.Counter
	cancelled *telemetry.Counter
	// rejected counts arrivals bounced by a full tenant queue; shed counts
	// queued waiters dropped by shed-oldest under global overflow.
	rejected *telemetry.Counter
	shed     *telemetry.Counter
	// waitSeconds observes how long blocked Acquire calls queued.
	waitSeconds *telemetry.Histogram
	// queueDepth, inFlight, and inFlightBytes are delta-tracked gauges.
	queueDepth    *telemetry.Gauge
	inFlight      *telemetry.Gauge
	inFlightBytes *telemetry.Gauge
}

var bundle = obs.NewBundle(func(r *telemetry.Registry) *metrics {
	return &metrics{
		admitted:      r.Counter("primacy_fairshare_admitted_total", "Admissions granted."),
		blocked:       r.Counter("primacy_fairshare_blocked_total", "Acquires that queued before admission."),
		cancelled:     r.Counter("primacy_fairshare_cancelled_total", "Queued acquires abandoned by context cancellation."),
		rejected:      r.Counter("primacy_fairshare_rejected_total", "Arrivals rejected by a full tenant queue."),
		shed:          r.Counter("primacy_fairshare_shed_total", "Queued waiters dropped by shed-oldest under global overflow."),
		waitSeconds:   r.Histogram("primacy_fairshare_wait_seconds", "Queue time of blocked acquires.", nil),
		queueDepth:    r.Gauge("primacy_fairshare_queue_depth", "Acquires currently queued."),
		inFlight:      r.Gauge("primacy_fairshare_inflight", "Admissions currently held."),
		inFlightBytes: r.Gauge("primacy_fairshare_inflight_bytes", "Bytes of input currently admitted."),
	}
})
