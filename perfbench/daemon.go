package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"primacy/internal/pipeline"
)

// Daemon workload settings. The nominal rate sits well under the capacity
// of a 2-vCPU machine, so its latencies are those of a lightly loaded
// service. The ladder's 6% rungs are finer than any bound max_rps could get.
const (
	bodyBytes      = 128 << 10 // one request body: 16Ki doubles, one codec chunk
	nominalRate    = 200.0     // requests per second for the latency metrics
	latencyLimitMs = 25.0      // median latency limit a ladder rung must meet
	ladderLo       = 100.0     // lowest ladder rung, requests per second
	ladderStep     = 1.06      // ratio between adjacent rungs
	ladderRungs    = 40        // highest rung ≈ 970 requests per second
	cacheBytes     = 64 << 20  // primacyd result cache
	hotBodies      = 24        // hot set: 3 MiB, well inside the cache
	hotFrac        = 0.20      // share of compress requests from the hot set
	compressFrac   = 0.70      // compress share; the rest decompress
	maxConns       = 2         // connections to the daemon
	stealRetry     = 0.05      // steal share above which a failed rung is probed again
	poolBytes      = 12 << 20  // cut into 96 base bodies of 128 KiB
)

// daemonDatasets feed the request bodies. One dataset keeps service times
// alike, so latency percentiles do not straddle datasets of different cost.
var daemonDatasets = []string{"msg_sweep3d"}

// tenants share the load 60/25/15 and carry the same fair-share weights.
var tenants = []struct {
	name   string
	share  float64
	weight int
}{{"t60", 0.60, 12}, {"t25", 0.25, 5}, {"t15", 0.15, 3}}

// ladder returns the fixed rate ladder, in requests per second.
func ladder() []float64 {
	out := make([]float64, ladderRungs)
	r := ladderLo
	for i := range out {
		out[i] = math.Round(r*10) / 10
		r *= ladderStep
	}
	return out
}

func daemonFlags() []string {
	w := ""
	for i, t := range tenants {
		if i > 0 {
			w += ","
		}
		w += fmt.Sprintf("%s=%d", t.name, t.weight)
	}
	return []string{"-cache-bytes", fmt.Sprint(cacheBytes), "-tenant-weights", w}
}

// load is the open-loop generator's state shared across phases.
type load struct {
	d      *daemon
	client *http.Client
	pool   [][]byte // base bodies; the first hotBodies are the hot set
	seq    atomic.Int64
	keep   bool // keep each request's body and container, for the replay

	mu   sync.Mutex
	ring []returned // recent compress responses, for decompress requests
	next int
}

// returned is a container the daemon sent back, with the body it encodes.
type returned struct {
	container, body []byte
}

// arrival is one scheduled request.
type arrival struct {
	due      time.Duration // offset from the phase start
	compress bool
	hot      int     // hot-set index, or -1 for a unique body
	pick     float64 // which returned container a decompress uses
	tenant   string
}

// outcome is what happened to one request.
type outcome struct {
	a               arrival
	due, sent, done time.Time
	status          int
	ok              bool // status 200 and the response checked out
	cache           string
	raw, stored     int    // raw bytes and container bytes of the request
	body, container []byte // kept until checked; for the replay when load.keep is set
}

// schedule draws a Poisson arrival sequence of the given rate and length.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []arrival {
	var out []arrival
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		a := arrival{due: time.Duration(t * float64(time.Second)), hot: -1, pick: rng.Float64()}
		a.compress = rng.Float64() < compressFrac
		if a.compress && rng.Float64() < hotFrac {
			a.hot = rng.Intn(hotBodies)
		}
		u := rng.Float64()
		for _, tn := range tenants {
			a.tenant = tn.name
			if u -= tn.share; u < 0 {
				break
			}
		}
		out = append(out, a)
	}
}

// body returns the request body for a compress arrival: a hot-set body as
// is, or a base body made unique by overwriting its first element with a
// per-request value, so unique traffic never hits the cache.
func (l *load) body(a arrival) []byte {
	if a.hot >= 0 {
		return l.pool[a.hot]
	}
	n := l.seq.Add(1)
	base := l.pool[int(n)%len(l.pool)]
	b := append([]byte(nil), base...)
	binary.LittleEndian.PutUint64(b, math.Float64bits(1e9+float64(n)))
	return b
}

// run sends the arrivals open loop over at most maxConns connections: each
// request goes out at its due time or, when both connections are busy, as
// soon as one frees up. Latency is measured from the due time.
func (l *load) run(ctx context.Context, arr []arrival) []outcome {
	out := make([]outcome, len(arr))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				due := start.Add(arr[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				out[i] = l.send(ctx, arr[i], due)
			}
		}()
	}
	wg.Wait()
	// Every compress response must decode, locally, to the body sent.
	for i := range out {
		o := &out[i]
		if o.a.compress && o.status == http.StatusOK {
			dec, err := pipeline.Decompress(o.container, pipeline.Options{})
			o.ok = err == nil && bytes.Equal(dec, o.body)
			if !l.keep {
				o.body, o.container = nil, nil
			}
		}
	}
	return out
}

// send issues one request and checks the response.
func (l *load) send(ctx context.Context, a arrival, due time.Time) outcome {
	path := "/v1/compress"
	var body, payload []byte
	if !a.compress {
		l.mu.Lock()
		if len(l.ring) == 0 {
			a.compress = true // nothing returned yet to decompress
		} else {
			r := l.ring[int(a.pick*float64(len(l.ring)))]
			body, payload = r.body, r.container
			path = "/v1/decompress"
		}
		l.mu.Unlock()
	}
	if a.compress {
		body = l.body(a)
		payload = body
	}
	o := outcome{a: a, due: due, raw: len(body)}
	if l.keep && !a.compress {
		o.body, o.container = body, payload
	}
	o.sent = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.d.base+path, bytes.NewReader(payload))
	if err != nil {
		o.done = time.Now()
		return o
	}
	req.Header.Set("X-Primacy-Tenant", a.tenant)
	resp, err := l.client.Do(req)
	if err != nil {
		o.done = time.Now()
		return o
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Primacy-Cache")
	if err != nil || resp.StatusCode != http.StatusOK {
		return o
	}
	if a.compress {
		// The container is checked once the phase is over (see run), so
		// the check's CPU time does not compete with the daemon's.
		o.stored = len(got)
		o.body, o.container = body, got
		if a.hot < 0 {
			l.mu.Lock()
			if len(l.ring) < 64 {
				l.ring = append(l.ring, returned{got, body})
			} else {
				l.ring[l.next] = returned{got, body}
				l.next = (l.next + 1) % len(l.ring)
			}
			l.mu.Unlock()
		}
	} else {
		o.ok = bytes.Equal(got, body)
	}
	return o
}

// tally adds a phase's requests to the result: every request is attempted,
// every refused, failed or wrong one failed.
func tally(res *result, outs []outcome) {
	for _, o := range outs {
		res.attempted++
		if !o.ok {
			res.failed++
			if o.status == http.StatusOK {
				res.mismatches++
			}
		}
	}
}

// latencies splits due-time latencies (ms) of the successful requests keep
// selects by operation.
func latencies(outs []outcome, keep []bool) (write, read []float64) {
	for i, o := range outs {
		if !o.ok || !keep[i] {
			continue
		}
		ms := o.done.Sub(o.due).Seconds() * 1e3
		if o.a.compress {
			write = append(write, ms)
		} else {
			read = append(read, ms)
		}
	}
	return write, read
}

// rungPasses reports whether a ladder rung met the limit: the median
// due-time latency (failed requests count as over the limit) within
// latencyLimitMs, and a backlog that did not grow — the last tenth of the
// rung's requests went out on time, as a median.
func rungPasses(outs []outcome) bool {
	if len(outs) == 0 {
		return false
	}
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = math.Inf(1)
		if o.ok {
			lat[i] = o.done.Sub(o.due).Seconds() * 1e3
		}
	}
	if median(lat) > latencyLimitMs {
		return false
	}
	tail := outs[len(outs)-max(1, len(outs)/10):]
	late := make([]float64, len(tail))
	for i, o := range tail {
		late[i] = o.sent.Sub(o.due).Seconds() * 1e3
	}
	return median(late) <= latencyLimitMs
}

func runDaemon(a args, env map[string]any) (*result, error) {
	res := &result{}
	l := &load{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
	}}}
	defer l.client.CloseIdleConnections()
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if l.d != nil {
			l.d.stop()
		}
		runtime.GC()
		t := time.Now()
		d, err := startDaemon(a.primacyd, daemonFlags()...)
		if err != nil {
			return nil, err
		}
		l.d = d
		sets, err := genDatasets(daemonDatasets, poolBytes, a.seed)
		if err != nil {
			return nil, err
		}
		l.pool = l.pool[:0]
		for _, s := range sets {
			for off := 0; off+bodyBytes <= len(s); off += bodyBytes {
				l.pool = append(l.pool, s[off:off+bodyBytes])
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer l.d.stop()
	rng := rand.New(rand.NewSource(a.seed))

	lad := ladder()
	env["body_bytes"] = bodyBytes
	env["datasets"] = daemonDatasets
	env["solver"] = "zlib"
	env["chunk_bytes"] = effectiveChunk(0)
	env["nominal_rps"] = nominalRate
	env["ladder_rps"] = lad
	env["latency_limit_ms"] = latencyLimitMs
	env["cache_bytes"] = cacheBytes
	env["connections"] = maxConns
	env["mix"] = map[string]float64{"compress": compressFrac, "decompress": 1 - compressFrac, "hot_of_compress": hotFrac}

	ctx := context.Background()
	nominal := time.Duration(float64(a.seconds) * 0.55 * float64(time.Second))
	if a.trace {
		nominal = time.Duration(a.seconds) * time.Second / 2
	}
	mon := startStealMonitor()
	defer mon.close()
	// Warm-up fills the cache's hot set and the codec pools.
	tally(res, l.run(ctx, schedule(rng, nominalRate, time.Second)))

	outs := l.run(ctx, schedule(rng, nominalRate, nominal))
	tally(res, outs)
	steal := make([]float64, len(outs))
	for i, o := range outs {
		steal[i] = mon.over(o.due, o.done)
	}
	keep := calmer(steal, 0.5)
	wl, rl := latencies(outs, keep)
	var rawU, stored float64
	for i, o := range outs {
		// The ratio counts unique bodies only: they cycle evenly through
		// the pool, while hot-set picks depend on the seed.
		if o.ok && keep[i] && o.a.compress && o.a.hot < 0 {
			rawU += float64(o.raw)
			stored += float64(o.stored)
		}
	}

	if a.trace {
		res.layers, res.tr = traceDaemon(ctx, l, rng, nominal, outs, res)
		return res, nil
	}

	// Ladder: binary search for the highest rung that meets the limit. A
	// rung that fails while the hypervisor steals more than stealRetry of
	// the CPU is probed again, up to twice, so a burst of steal does not end
	// the search low.
	probe := time.Duration(float64(a.seconds)*0.45*float64(time.Second)) / 8
	var probes []map[string]any
	meets := func(i int) bool {
		for try := int64(0); try < 3; try++ {
			time.Sleep(100 * time.Millisecond)
			rng := rand.New(rand.NewSource(a.seed*1000 + int64(i)*3 + try))
			start := time.Now()
			o := l.run(ctx, schedule(rng, lad[i], probe))
			tally(res, o)
			pass, st := rungPasses(o), mon.over(start, time.Now())
			probes = append(probes, map[string]any{"rps": lad[i], "pass": pass, "requests": len(o), "steal": st})
			if pass || st <= stealRetry {
				return pass
			}
		}
		return false
	}
	lo, hi := -1, len(lad)
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	env["ladder_probes"] = probes
	if lo < 0 {
		return nil, fmt.Errorf("no ladder rung met the %v ms limit", latencyLimitMs)
	}
	res.e2e = map[string]float64{
		"setup_s":      median(setups),
		"peak_rss_mb":  peakRSSMB(l.d.cmd.Process.Pid),
		"write_mbps":   mbps(bodyBytes, wl),
		"read_mbps":    mbps(bodyBytes, rl),
		"write_p50_ms": median(wl),
		"read_p50_ms":  median(rl),
		"ratio":        rawU / stored,
		"max_rps":      lad[lo],
	}
	env["p99_ms"] = map[string]float64{"write": quantile(wl, 0.99), "read": quantile(rl, 0.99)}
	env["requests_nominal"] = len(outs)
	type point struct {
		DueS      float64 `json:"due_s"`
		LatencyMs float64 `json:"latency_ms"`
		LateMs    float64 `json:"late_ms"`
		Compress  bool    `json:"compress"`
		Steal     float64 `json:"steal"`
	}
	var series []point
	for i, o := range outs {
		if o.ok {
			series = append(series, point{o.due.Sub(outs[0].due).Seconds(), o.done.Sub(o.due).Seconds() * 1e3, o.sent.Sub(o.due).Seconds() * 1e3, o.a.compress, steal[i]})
		}
	}
	env["requests_kept"] = len(wl) + len(rl)
	res.raw = map[string]any{"requests": series}
	return res, nil
}

// traceDaemon runs a second nominal phase with spans and daemon-side
// counters, then replays the codec work of its cache misses locally.
//
// Request time, summed from each request's due time, splits into
// gen.late_s (due until sent: the generator waiting for a connection),
// fairshare.wait_s (the daemon's admission queue), server.codec_s (the
// replayed codec calls) and server.unattributed_s (everything else: body
// transfer, cache, HTTP handling, response write).
func traceDaemon(ctx context.Context, l *load, rng *rand.Rand, d time.Duration, untraced []outcome, res *result) (map[string]float64, *tracer) {
	tr := newTracer()
	before, err := l.d.scrape(ctx)
	if err != nil {
		res.accounting = append(res.accounting, "scrape: "+err.Error())
	}
	l.keep = true
	outs := l.run(ctx, schedule(rng, nominalRate, d))
	l.keep = false
	after, err := l.d.scrape(ctx)
	if err != nil {
		res.accounting = append(res.accounting, "scrape: "+err.Error())
	}
	tally(res, outs)
	layers := map[string]float64{}
	var wall, late, reqS, hits, cached float64
	var lateMs []float64
	var misses [][]byte
	for _, o := range outs {
		tr.record("gen.late", o.due, o.sent)
		tr.record("server.request", o.sent, o.done)
		late += o.sent.Sub(o.due).Seconds()
		lateMs = append(lateMs, o.sent.Sub(o.due).Seconds()*1e3)
		reqS += o.done.Sub(o.sent).Seconds()
		wall += o.done.Sub(o.due).Seconds()
		if o.cache != "" {
			cached++
		}
		switch o.cache {
		case "hit":
			hits++
		case "shared":
			layers["server.cache_shared"]++
		case "miss":
			if o.ok && o.a.compress {
				misses = append(misses, o.body)
			}
		}
	}
	// Codec replay: the work each cache miss made the daemon do.
	var codec float64
	for _, o := range outs {
		if o.cache != "miss" || !o.ok {
			continue
		}
		t := time.Now()
		var err error
		if o.a.compress {
			_, err = pipeline.Compress(o.body, pipeline.Options{})
		} else {
			_, err = pipeline.Decompress(o.container, pipeline.Options{})
		}
		tr.record("server.codec", t, time.Now())
		codec += time.Since(t).Seconds()
		res.check(err == nil)
	}
	// Stage breakdown of the compress misses, as for the codec workloads.
	if _, err := attribute(tr, misses, codecConfig{solver: "zlib"}.options(), res); err != nil {
		res.accounting = append(res.accounting, "replay: "+err.Error())
	}
	for k, v := range codecLayers(tr, runtime.GOMAXPROCS(0), res) {
		layers[k] = v
	}
	wait := delta(before, after, "primacyd_queue_wait_seconds_sum")
	layers["fairshare.wait_s"] = wait
	layers["server.work_s"] = delta(before, after, "primacyd_work_seconds_sum")
	layers["fairshare.shed"] = delta(before, after, "primacyd_shed_by_tenant_total")
	layers["server.codec_s"] = codec
	layers["server.unattributed_s"] = reqS - wait - codec
	layers["server.cache_hit_frac"] = hits / math.Max(cached, 1)
	layers["gen.late_s"] = late
	layers["gen.late_p99_ms"] = quantile(lateMs, 0.99)
	layers["bench.traced_wall_s"] = wall
	res.checkSum("daemon", wall, late+wait+codec+layers["server.unattributed_s"])

	var base float64
	for _, o := range untraced {
		base += o.done.Sub(o.due).Seconds()
	}
	layers["bench.trace_overhead_frac"] = (wall/float64(len(outs)))/(base/float64(len(untraced))) - 1
	return layers, tr
}
