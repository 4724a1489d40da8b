package governor

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilGovernorAdmitsEverything(t *testing.T) {
	var g *Governor
	if err := g.Acquire(context.Background(), 1<<40); err != nil {
		t.Fatal(err)
	}
	g.Release(1 << 40)
	if n, b := g.InFlight(); n != 0 || b != 0 {
		t.Fatalf("nil governor reports in-flight work: %d, %d", n, b)
	}
	if g.Waiting() != 0 {
		t.Fatal("nil governor reports waiters")
	}
}

func TestZeroValueGovernorUnlimited(t *testing.T) {
	g := &Governor{}
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := g.Acquire(ctx, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := g.InFlight(); n != 100 {
		t.Fatalf("in-flight = %d, want 100", n)
	}
	for i := 0; i < 100; i++ {
		g.Release(1 << 30)
	}
}

func TestMemoryBudgetBlocks(t *testing.T) {
	g := New(100, 0, nil)
	ctx := context.Background()
	if err := g.Acquire(ctx, 60); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx, 40); err != nil {
		t.Fatal(err)
	}
	// 100/100 used: the next acquire must queue until a release.
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx, 50) }()
	waitFor(t, func() bool { return g.Waiting() == 1 })
	select {
	case <-done:
		t.Fatal("acquire admitted over budget")
	default:
	}
	g.Release(60)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, b := g.InFlight(); b != 90 {
		t.Fatalf("in-flight bytes = %d, want 90", b)
	}
	g.Release(40)
	g.Release(50)
}

func TestConcurrencyCapBlocks(t *testing.T) {
	g := New(0, 2, nil)
	ctx := context.Background()
	if err := g.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx, 1) }()
	waitFor(t, func() bool { return g.Waiting() == 1 })
	g.Release(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	g.Release(1)
	g.Release(1)
}

func TestFIFOOrder(t *testing.T) {
	// A large waiter queued first must not be starved by small requests that
	// would fit: admission is strictly arrival-ordered.
	g := New(100, 0, nil)
	ctx := context.Background()
	if err := g.Acquire(ctx, 100); err != nil {
		t.Fatal(err)
	}
	acquire := func(bytes int64) chan struct{} {
		ch := make(chan struct{})
		go func() {
			if err := g.Acquire(ctx, bytes); err != nil {
				t.Error(err)
			}
			close(ch)
		}()
		return ch
	}
	first := acquire(80)
	waitFor(t, func() bool { return g.Waiting() == 1 })
	second := acquire(30)
	waitFor(t, func() bool { return g.Waiting() == 2 })
	g.Release(100)
	// Only the head of the queue fits (80); the small request behind it must
	// NOT jump the line even though 30 would fit on its own.
	<-first
	if g.Waiting() != 1 {
		t.Fatalf("%d waiters after head admission, want 1", g.Waiting())
	}
	if _, b := g.InFlight(); b != 80 {
		t.Fatalf("in-flight bytes = %d, want 80 — small request jumped the queue", b)
	}
	g.Release(80)
	<-second
	g.Release(30)
}

func TestAcquireCancellation(t *testing.T) {
	g := New(10, 0, nil)
	bg := context.Background()
	if err := g.Acquire(bg, 10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx, 5) }()
	waitFor(t, func() bool { return g.Waiting() == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
	}
	if g.Waiting() != 0 {
		t.Fatal("cancelled waiter left in queue")
	}
	// The abandoned request must not leak capacity.
	g.Release(10)
	if n, b := g.InFlight(); n != 0 || b != 0 {
		t.Fatalf("capacity leaked: %d admissions, %d bytes", n, b)
	}
}

func TestAcquireOnDoneContext(t *testing.T) {
	g := New(100, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Acquire(ctx, 1); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n, b := g.InFlight(); n != 0 || b != 0 {
		t.Fatalf("done-context acquire took capacity: %d, %d", n, b)
	}
}

func TestOversizedRequestClamped(t *testing.T) {
	// A request larger than the whole budget is admitted (alone) rather than
	// deadlocking; Release applies the same clamp so accounting stays exact.
	g := New(100, 0, nil)
	ctx := context.Background()
	if err := g.Acquire(ctx, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if _, b := g.InFlight(); b != 100 {
		t.Fatalf("clamped weight = %d, want 100", b)
	}
	g.Release(1_000_000)
	if n, b := g.InFlight(); n != 0 || b != 0 {
		t.Fatalf("asymmetric clamp leaked capacity: %d, %d", n, b)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release without acquire did not panic")
		}
	}()
	New(100, 0, nil).Release(10)
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelWhileQueuedStormLeaksNothing(t *testing.T) {
	// A storm of waiters cancelled while queued — racing concurrent grants —
	// must leave the governor with zero waiters, zero reserved capacity, and
	// zero leaked goroutines, and later acquires must succeed immediately.
	before := runtime.NumGoroutine()
	g := New(100, 2, nil)
	bg := context.Background()

	// Fill the budget so every subsequent acquire queues.
	if err := g.Acquire(bg, 100); err != nil {
		t.Fatal(err)
	}

	const waiters = 64
	var wg sync.WaitGroup
	var admitted, cancelled atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			go func() {
				time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
				cancel()
			}()
			if err := g.Acquire(ctx, 10); err == nil {
				admitted.Add(1)
				time.Sleep(time.Millisecond)
				g.Release(10)
			} else if err == context.Canceled {
				cancelled.Add(1)
			} else {
				t.Errorf("unexpected acquire error: %v", err)
			}
		}()
	}
	// Churn grants underneath the cancellations so grant-vs-cancel races
	// actually happen.
	for i := 0; i < 20; i++ {
		g.Release(100)
		time.Sleep(500 * time.Microsecond)
		if err := g.Acquire(bg, 100); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	g.Release(100)

	if admitted.Load()+cancelled.Load() != waiters {
		t.Fatalf("accounting: %d admitted + %d cancelled != %d waiters",
			admitted.Load(), cancelled.Load(), waiters)
	}
	if g.Waiting() != 0 {
		t.Fatalf("%d waiters left queued after the storm", g.Waiting())
	}
	if n, b := g.InFlight(); n != 0 || b != 0 {
		t.Fatalf("capacity leaked: %d admissions, %d bytes", n, b)
	}
	// The governor still works: a fresh full-budget acquire admits at once.
	ctx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := g.Acquire(ctx, 100); err != nil {
		t.Fatalf("post-storm acquire: %v", err)
	}
	g.Release(100)

	// No goroutine may outlive its cancelled waiter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
