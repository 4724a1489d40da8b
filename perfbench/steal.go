package main

import (
	"sort"
	"sync"
	"time"
)

// stealWindow is the resolution of the steal monitor. At 100 jiffies a
// second and 2 CPUs, half a second resolves steal in 1% steps.
const stealWindow = 500 * time.Millisecond

// stealMonitor records, per window of wall time, the share of CPU time the
// hypervisor gave to other guests. On a shared VM that share comes and goes
// in bursts of seconds and, while it lasts, stretches every latency the
// benchmark measures by far more than any change to the program would. The
// workloads use it to take their statistics from the calmer part of their
// operations (see calmer); every operation still runs, is checked and counts
// in attempted and failed.
type stealMonitor struct {
	t0   time.Time
	mu   sync.Mutex
	frac []float64 // steal share of window i
	stop chan struct{}
	done chan struct{}
}

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{t0: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(stealWindow)
		defer tick.Stop()
		s0, t0 := cpuJiffies()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			s1, t1 := cpuJiffies()
			f := 0.0
			if t1 > t0 {
				f = (s1 - s0) / (t1 - t0)
			}
			m.mu.Lock()
			m.frac = append(m.frac, f)
			m.mu.Unlock()
			s0, t0 = s1, t1
		}
	}()
	return m
}

func (m *stealMonitor) close() {
	close(m.stop)
	<-m.done
}

// over returns the highest steal share of the windows that [start, end]
// overlaps; windows not yet closed count as the last closed one.
func (m *stealMonitor) over(start, end time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.frac) == 0 {
		return 0
	}
	last := len(m.frac) - 1
	lo := min(int(start.Sub(m.t0)/stealWindow), last)
	hi := min(int(end.Sub(m.t0)/stealWindow), last)
	s := 0.0
	for i := max(lo, 0); i <= hi; i++ {
		s = max(s, m.frac[i])
	}
	return s
}

// stealFloor is the steal share below which an operation always counts as
// calm: two jiffies of a window, about the counter's resolution. Dropping
// operations over less would only thin the sample.
const stealFloor = 0.02

// calmer reports which operations, given the steal each one saw, belong to
// the calmer share q of them: those at or below the steal of the operation
// at rank q, or at or below stealFloor. Ties and the floor keep more than
// that share; with little steal every operation is kept.
func calmer(steal []float64, q float64) []bool {
	keep := make([]bool, len(steal))
	if len(steal) == 0 {
		return keep
	}
	s := append([]float64(nil), steal...)
	sort.Float64s(s)
	cut := max(s[int(q*float64(len(s)-1))], stealFloor)
	for i, v := range steal {
		keep[i] = v <= cut
	}
	return keep
}
