package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"testing"
	"time"

	"primacy/internal/pipeline"
)

func TestMetricNamesAndUnits(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, d := range append(sp.EndToEnd, sp.PerLayer...) {
		if !valid.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, valid)
		}
		if d.Unit == "" {
			t.Errorf("metric %s has no unit", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing from end_to_end")
	}
}

func TestSameSeedSameInputsAndRatio(t *testing.T) {
	const n = 256 << 10
	gen := func(seed int64) ([][]byte, float64) {
		in, err := genDatasets(codecDatasets, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		var raw, stored int
		res := &result{}
		for _, b := range in {
			tm, err := roundTrip(b, codecConfig{solver: "zlib"}.options(), res)
			if err != nil {
				t.Fatal(err)
			}
			raw += len(b)
			stored += tm.stored
		}
		if res.mismatches != 0 {
			t.Fatalf("%d round trips did not match", res.mismatches)
		}
		return in, float64(raw) / float64(stored)
	}
	a, ra := gen(7)
	b, rb := gen(7)
	c, _ := gen(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("dataset %s differs between two runs of seed 7", codecDatasets[i])
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("dataset %s is the same for seeds 7 and 8", codecDatasets[i])
		}
	}
	if ra != rb {
		t.Errorf("ratio %v != %v for the same seed", ra, rb)
	}
	s1 := schedule(rand.New(rand.NewSource(7)), nominalRate, time.Second)
	s2 := schedule(rand.New(rand.NewSource(7)), nominalRate, time.Second)
	if !slices.Equal(s1, s2) {
		t.Error("daemon schedule differs for the same seed")
	}
}

// TestOpenLoopStall drives the generator against a handler that stalls
// every request: because the loop is open, requests keep falling due, so
// due-time latency and generator lateness both grow against a handler that
// answers at once.
func TestOpenLoopStall(t *testing.T) {
	run := func(stall time.Duration) (latP99, lateP99 float64) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var body bytes.Buffer
			body.ReadFrom(r.Body)
			time.Sleep(stall)
			out, err := pipeline.Compress(body.Bytes(), pipeline.Options{})
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write(out)
		}))
		defer srv.Close()
		pool, err := genDatasets(codecDatasets[:1], 8*(32<<10), 1)
		if err != nil {
			t.Fatal(err)
		}
		l := &load{d: &daemon{base: srv.URL}, client: srv.Client()}
		for off := 0; off < len(pool[0]); off += 32 << 10 {
			l.pool = append(l.pool, pool[0][off:off+32<<10])
		}
		arr := schedule(rand.New(rand.NewSource(1)), 100, time.Second)
		for i := range arr {
			arr[i].compress, arr[i].hot = true, i%len(l.pool)
		}
		outs := l.run(context.Background(), arr)
		var lat, late []float64
		for _, o := range outs {
			if !o.ok {
				t.Fatalf("request failed or mismatched (status %d)", o.status)
			}
			lat = append(lat, o.done.Sub(o.due).Seconds()*1e3)
			late = append(late, o.sent.Sub(o.due).Seconds()*1e3)
		}
		return quantile(lat, 0.99), quantile(late, 0.99)
	}
	fastLat, fastLate := run(0)
	slowLat, slowLate := run(50 * time.Millisecond)
	t.Logf("p99 latency %.1f -> %.1f ms, generator late p99 %.1f -> %.1f ms", fastLat, slowLat, fastLate, slowLate)
	if slowLat < fastLat+200 || slowLate < fastLate+200 {
		t.Errorf("stall did not show: latency p99 %.1f -> %.1f ms, late p99 %.1f -> %.1f ms", fastLat, slowLat, fastLate, slowLate)
	}
}
