package retry

import (
	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// metrics bundles the retry layer's telemetry handles, looked up per
// operation from the context's observer.
type metrics struct {
	// attempts counts every operation try; retries counts the tries that
	// followed a transient failure (a retry storm shows up here first).
	attempts *telemetry.Counter
	retries  *telemetry.Counter
	// exhausted counts operations that failed with a retryable error after
	// the attempt budget ran out.
	exhausted *telemetry.Counter
	// backoffSeconds observes each backoff delay as it is taken.
	backoffSeconds *telemetry.Histogram
}

var bundle = obs.NewBundle(func(r *telemetry.Registry) *metrics {
	return &metrics{
		attempts:       r.Counter("primacy_retry_attempts_total", "Operation tries, including first attempts."),
		retries:        r.Counter("primacy_retry_retries_total", "Tries re-run after a transient failure."),
		exhausted:      r.Counter("primacy_retry_exhausted_total", "Operations abandoned after the attempt budget."),
		backoffSeconds: r.Histogram("primacy_retry_backoff_seconds", "Backoff delay before each retry.", nil),
	}
})
