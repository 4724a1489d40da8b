package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"primacy/internal/bytesplit"
	"primacy/internal/durable"
)

// Archive workload settings. Every get that follows a put rebuilds the
// tenant's whole archive, so its latency grows with the archive. Left to
// grow through a run, the archives would make the latency series a ramp, and
// its median would weigh only the few seconds in the middle of the run. So
// the puts go round robin over archSlots slots. Each slot holds one tenant
// at a time, and a slot whose tenant reaches archCap entries moves on to a
// fresh tenant. The slots start staggered, preloaded with 1, 3, 5, ... 31
// entries. Any archSlots epochs in a row thus rebuild archives of every
// size, and the series is steady over the run. The run fixes operation
// counts (per second of --seconds), not durations: the same counts give the
// same archive sizes, rebuilds and compactions.
const (
	archSlots        = 16
	archCap          = 32      // entries per tenant before its slot moves on
	archEntryElems   = 1 << 10 // doubles per entry (8 KiB)
	archEpochsPerSec = 80      // epochs (one put each) per second of --seconds
	archGetsPerEpoch = 4       // gets per epoch: one rebuild, three cached
	archCompactEvery = 16      // primacyd -compact-every: twice per tenant
	archPoolBytes    = 2 << 20 // per dataset, cut into entries
	archName         = "field" // entry name; entries differ by step

	// archCalmShare is the share of operations, those that saw the least
	// steal, the statistics come from. A run has thousands, so a quarter
	// still gives hundreds of writes; under steal in most windows a half
	// would still keep stretched ones.
	archCalmShare = 0.25
)

// archEntry is one archived value set and where it lives.
type archEntry struct {
	slot   int
	tenant string
	step   int
	raw    []byte
}

// archState is one prepared store: a data directory preloaded with entries
// and a daemon serving it.
type archState struct {
	d     *daemon
	dir   string
	pool  [][]byte
	mu    sync.Mutex
	acked [archSlots][]archEntry // entries of each slot's tenant a get may ask for
	raw   int                    // raw bytes archived
}

// prepareArchive preloads a fresh data directory through the durable store
// and starts a daemon on it, which recovers the store at start-up.
func prepareArchive(a args, rep int, seed int64) (*archState, error) {
	dir, err := filepath.Abs(filepath.Join(a.work, fmt.Sprintf("archive-%d-%d", os.Getpid(), rep)))
	if err != nil {
		return nil, err
	}
	os.RemoveAll(dir)
	st, err := preload(dir, seed)
	if err == nil {
		st.d, err = startDaemon(a.primacyd, "-data-dir", dir, "-compact-every", fmt.Sprint(archCompactEvery))
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return st, nil
}

// archPreloaded is how many entries slot s holds before the run.
func archPreloaded(s int) int { return 1 + s*archCap/archSlots }

// preload writes each slot's first entries into a durable store at dir.
func preload(dir string, seed int64) (*archState, error) {
	sets, err := genDatasets(codecDatasets, archPoolBytes, seed)
	if err != nil {
		return nil, err
	}
	st := &archState{dir: dir}
	for _, s := range sets {
		for off := 0; off+archEntryElems*8 <= len(s); off += archEntryElems * 8 {
			st.pool = append(st.pool, s[off:off+archEntryElems*8])
		}
	}
	store, _, err := durable.Open(dir, durable.Options{CompactEvery: archCompactEvery})
	if err != nil {
		return nil, err
	}
	for s := 0; s < archSlots; s++ {
		for n := 0; n < archPreloaded(s); n++ {
			e := st.slotEntry(s, n)
			vals, err := bytesplit.BytesToFloat64s(e.raw)
			if err == nil {
				err = store.Put(context.Background(), e.tenant, archName, e.step, vals, 0)
			}
			if err != nil {
				store.Close()
				return nil, err
			}
			st.add(e)
		}
	}
	return st, store.Close()
}

// slotEntry is the n-th entry ever archived through slot s, preloaded ones
// included: tenant n/archCap of the slot, step n%archCap.
func (st *archState) slotEntry(s, n int) archEntry {
	return archEntry{
		slot:   s,
		tenant: fmt.Sprintf("arch%d-%d", s, n/archCap),
		step:   n % archCap,
		raw:    st.pool[(n*archSlots+s)%len(st.pool)],
	}
}

// entry is the entry epoch i puts: slots round robin.
func (st *archState) entry(i int) archEntry {
	s := i % archSlots
	return st.slotEntry(s, archPreloaded(s)+i/archSlots)
}

// add records an acknowledged entry. The first entry of a fresh tenant
// replaces the slot's old tenant.
func (st *archState) add(e archEntry) {
	st.mu.Lock()
	if e.step == 0 {
		st.acked[e.slot] = st.acked[e.slot][:0]
	}
	st.acked[e.slot] = append(st.acked[e.slot], e)
	st.raw += len(e.raw)
	st.mu.Unlock()
}

func (st *archState) close() {
	st.d.stop()
	os.RemoveAll(st.dir)
}

// archOp is one timed archive operation.
type archOp struct {
	put, ok, rebuild bool
	raw              int
	start, done      time.Time
}

// loop runs the closed loop in epochs. Epoch i opens with a get for the
// slot that epoch i-1 wrote, which rebuilds that tenant's archive. Then the
// writer puts entry i (fsync on) while the reader issues the epoch's other
// gets, for slots whose archive is current and not being written, so they
// read the cached archive. Each get asks for a random acknowledged entry and
// is checked against the values put. Rebuild counts and archive sizes are
// thus the same on every run, and a put never races a rebuild, whose CPU
// time would otherwise decide the put's latency. A warm-up get per slot
// builds every archive first.
func (st *archState) loop(epochs int, seed int64) []archOp {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(seed))
	get := func(s int, rebuild bool) archOp {
		st.mu.Lock()
		e := st.acked[s][rng.Intn(len(st.acked[s]))]
		st.mu.Unlock()
		op := archOp{rebuild: rebuild, raw: len(e.raw), start: time.Now()}
		url := fmt.Sprintf("%s/v1/archive/get?name=%s&step=%d", st.d.base, archName, e.step)
		status, got := call(client, http.MethodGet, url, e.tenant, nil)
		op.done = time.Now()
		op.ok = status == http.StatusOK && bytes.Equal(got, e.raw)
		return op
	}
	ops := make([]archOp, 0, epochs*(1+archGetsPerEpoch)+archSlots)
	for s := 0; s < archSlots; s++ {
		ops = append(ops, get(s, true))
	}
	warm := len(ops)
	for i := 0; i < epochs; i++ {
		e := st.entry(i)
		if i > 0 {
			ops = append(ops, get((e.slot+archSlots-1)%archSlots, true))
		}
		var put archOp
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			put = archOp{put: true, raw: len(e.raw), start: time.Now()}
			url := fmt.Sprintf("%s/v1/archive/put?name=%s&step=%d", st.d.base, archName, e.step)
			status, _ := call(client, http.MethodPost, url, e.tenant, e.raw)
			put.done = time.Now()
			put.ok = status == http.StatusOK
		}()
		for k := 1; k < archGetsPerEpoch; k++ {
			ops = append(ops, get((e.slot+1+rng.Intn(archSlots-1))%archSlots, false))
		}
		wg.Wait()
		if put.ok {
			st.add(e)
		}
		ops = append(ops, put)
	}
	return ops[warm:]
}

// call issues one request as tenant and returns the status and body.
func call(client *http.Client, method, url, tenant string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil
	}
	req.Header.Set("X-Primacy-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, got
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}

func runArchive(a args, env map[string]any) (*result, error) {
	res := &result{}
	var st *archState
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t := time.Now()
		var err error
		if st, err = prepareArchive(a, i, a.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	epochs := archEpochsPerSec * a.seconds
	env["slots"] = archSlots
	env["entries_per_tenant"] = archCap
	preloaded := 0
	for s := 0; s < archSlots; s++ {
		preloaded += archPreloaded(s)
	}
	env["preloaded_entries"] = preloaded
	env["entry_bytes"] = archEntryElems * 8
	env["puts"] = epochs
	env["gets"] = epochs * archGetsPerEpoch
	env["compact_every"] = archCompactEvery
	env["fsync"] = true
	env["solver"] = "zlib"

	if a.trace {
		// The untraced loop gives the overhead baseline; the traced one
		// runs on a fresh store prepared the same way.
		base := st.loop(epochs, a.seed)
		tallyOps(res, base)
		st.close()
		var err error
		if st, err = prepareArchive(a, setupReps, a.seed); err != nil {
			return nil, err
		}
		defer st.close()
		res.layers, res.tr = traceArchive(st, epochs, a.seed, base, res)
		return res, nil
	}
	defer st.close()

	mon := startStealMonitor()
	ops := st.loop(epochs, a.seed)
	mon.close()
	tallyOps(res, ops)
	steal := make([]float64, len(ops))
	for i, op := range ops {
		steal[i] = mon.over(op.start, op.done)
	}
	keep := calmer(steal, archCalmShare)
	// A write is a put and the get that next rebuilds its tenant's archive:
	// the time until the entry can be read from a fresh archive. A put alone
	// is well under a millisecond, mostly fsync and HTTP, and on a 2-vCPU
	// VM its median moved by 1.7x between runs with nothing else changed.
	// Reads are the gets served from a cached archive.
	var wl, rl, puts []float64
	var put *archOp
	for i := range ops {
		op := &ops[i]
		ms := op.done.Sub(op.start).Seconds() * 1e3
		ok := op.ok && keep[i]
		switch {
		case op.put:
			put = nil
			if ok {
				put = op
				puts = append(puts, ms)
			}
		case op.rebuild:
			if ok && put != nil {
				wl = append(wl, put.done.Sub(put.start).Seconds()*1e3+ms)
			}
		case ok:
			rl = append(rl, ms)
		}
	}
	// The loop's rate is its operations per epoch over the median epoch
	// time of the calmer quarter of the epochs. An epoch runs from its first
	// operation's start to its put's or last get's end.
	var spans, epochSteal []float64
	var from, to time.Time
	for _, op := range ops {
		if from.IsZero() || op.start.Before(from) {
			from = op.start
		}
		if op.done.After(to) {
			to = op.done
		}
		if op.put {
			spans = append(spans, to.Sub(from).Seconds())
			epochSteal = append(epochSteal, mon.over(from, to))
			from, to = time.Time{}, time.Time{}
		}
	}
	var epochKept []float64
	for i, k := range calmer(epochSteal, archCalmShare) {
		if k {
			epochKept = append(epochKept, spans[i])
		}
	}
	env["ops_kept"] = len(puts) + len(wl) + len(rl)
	env["epochs_kept"] = len(epochKept)
	env["p99_ms"] = map[string]float64{"write": quantile(wl, 0.99), "read": quantile(rl, 0.99)}
	env["put_p50_ms"] = median(puts)
	res.raw = map[string]any{"write_ms": wl, "read_ms": rl, "put_ms": puts}
	// Measure the data directory once the daemon has drained: by then any
	// compaction in the background has finished.
	rss := peakRSSMB(st.d.cmd.Process.Pid)
	st.d.stop()
	res.e2e = map[string]float64{
		"setup_s":      median(setups),
		"peak_rss_mb":  rss,
		"write_mbps":   mbps(archEntryElems*8, wl),
		"read_mbps":    mbps(archEntryElems*8, rl),
		"write_p50_ms": median(wl),
		"read_p50_ms":  median(rl),
		"ratio":        float64(st.raw) / dirBytes(st.dir),
		"max_rps":      float64(len(ops)) / float64(len(spans)) / median(epochKept),
	}
	return res, nil
}

// tallyOps adds a loop's operations to the result. No refusals are
// expected, so a failed get counts as a wrong answer too.
func tallyOps(res *result, ops []archOp) {
	for _, op := range ops {
		res.attempted++
		if !op.ok {
			res.failed++
			if !op.put {
				res.mismatches++
			}
		}
	}
}

// traceArchive runs the loop with spans and daemon-side counters.
//
// Operation time, summed over puts and gets, splits into durable.put_s
// (puts), archive.build_s (gets that rebuilt the tenant archive) and
// archive.read_s (gets served from the cached archive); the daemon's own
// counters split the same total into fairshare.wait_s, server.work_s and
// server.unattributed_s (transfer and HTTP handling outside the handler).
func traceArchive(st *archState, epochs int, seed int64, base []archOp, res *result) (map[string]float64, *tracer) {
	tr := newTracer()
	ctx := context.Background()
	before, err := st.d.scrape(ctx)
	if err != nil {
		res.accounting = append(res.accounting, "scrape: "+err.Error())
	}
	ops := st.loop(epochs, seed)
	after, err := st.d.scrape(ctx)
	if err != nil {
		res.accounting = append(res.accounting, "scrape: "+err.Error())
	}
	tallyOps(res, ops)
	l := map[string]float64{}
	var wall float64
	for _, op := range ops {
		name := "archive.read"
		switch {
		case op.put:
			name = "durable.put"
		case op.rebuild:
			name = "archive.build"
			l["archive.rebuilds"]++
		}
		tr.record(name, op.start, op.done)
		d := op.done.Sub(op.start).Seconds()
		l[name+"_s"] += d
		wall += d
	}
	route := `route="archive_`
	l["fairshare.wait_s"] = delta(before, after, "primacyd_queue_wait_seconds_sum", route)
	l["server.work_s"] = delta(before, after, "primacyd_work_seconds_sum", route)
	l["server.unattributed_s"] = wall - l["fairshare.wait_s"] - l["server.work_s"]
	l["durable.fsync_s"] = delta(before, after, "primacy_durable_fsync_seconds_sum")
	l["durable.journal_bytes"] = delta(before, after, "primacy_durable_journal_bytes_total")
	l["durable.compactions"] = delta(before, after, "primacy_durable_compactions_total")
	st.d.stop() // drain, so background compaction has finished
	l["durable.disk_bytes_per_raw"] = dirBytes(st.dir) / float64(st.raw)
	l["bench.traced_wall_s"] = wall
	res.checkSum("archive ops", wall, l["durable.put_s"]+l["archive.build_s"]+l["archive.read_s"])
	res.checkSum("archive daemon", wall, l["fairshare.wait_s"]+l["server.work_s"]+l["server.unattributed_s"])
	var b float64
	for _, op := range base {
		b += op.done.Sub(op.start).Seconds()
	}
	l["bench.trace_overhead_frac"] = wall/b - 1
	return l, tr
}
