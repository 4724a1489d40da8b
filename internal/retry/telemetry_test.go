package retry

import (
	"context"
	"errors"
	"testing"
	"time"

	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// A retried-then-successful op must count every attempt, every retry, and
// every backoff sleep; an exhausted policy must count the exhaustion.
func TestRetryTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	p := Policy{Attempts: 3, Backoff: time.Millisecond, Sleep: func(time.Duration) {}}
	fails := 2
	err := p.Do(ctx, func() error {
		if fails > 0 {
			fails--
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}

	snap := reg.Snapshot()
	if v, _ := snap.Counter("primacy_retry_attempts_total"); v != 3 {
		t.Errorf("attempts_total = %d, want 3", v)
	}
	if v, _ := snap.Counter("primacy_retry_retries_total"); v != 2 {
		t.Errorf("retries_total = %d, want 2", v)
	}
	if h, ok := snap.Histogram("primacy_retry_backoff_seconds"); !ok || h.Count != 2 {
		t.Errorf("backoff count = %d, want 2", h.Count)
	}
	if v, _ := snap.Counter("primacy_retry_exhausted_total"); v != 0 {
		t.Errorf("exhausted_total = %d, want 0", v)
	}

	if err := p.Do(ctx, func() error { return errors.New("always") }); err == nil {
		t.Fatal("exhausted Do succeeded")
	}
	if v, _ := reg.Snapshot().Counter("primacy_retry_exhausted_total"); v != 1 {
		t.Errorf("exhausted_total after failure = %d, want 1", v)
	}
}
