package server

import (
	"bytes"
	"math/rand"
	"net/http"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/pipeline"
)

// TestCompressBytesIdenticalAcrossWorkerCounts is the regression test backing
// the cache-key fix: compressed output must not depend on the configured
// worker count, so dropping Workers from the result-cache key can never serve
// bytes another worker config would not have produced.
func TestCompressBytesIdenticalAcrossWorkerCounts(t *testing.T) {
	raw := testData(30_000, 11)
	var want []byte
	for i, w := range []int{1, 2, 4, 9} {
		_, ts := newTestServer(t, Config{Workers: w, ChunkBytes: 16 * 1024})
		resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: compress: %d %s", w, resp.StatusCode, enc)
		}
		if i == 0 {
			want = enc
			continue
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("workers=%d produced different container bytes than workers=1", w)
		}
	}
}

// TestCompressCacheKeyOmitsWorkers pins the key shape: two keys for the same
// tenant, body and options are equal by construction (no worker component),
// so a worker-config change between restarts cannot orphan warm entries.
func TestCompressCacheKeyOmitsWorkers(t *testing.T) {
	body := testData(100, 3)
	opts := core.Options{Solver: "zlib", ChunkBytes: 4096}
	if cacheKey("t", "c", opts, body) != cacheKey("t", "c", opts, body) {
		t.Fatal("cache key is not a pure function of tenant, op, options, and content")
	}
	if cacheKey("t", "c", opts, body) == cacheKey("u", "c", opts, body) {
		t.Fatal("cache key is not tenant-scoped")
	}
}

// crc32cCollision finds two distinct 64-byte bodies with one CRC32C by a
// seeded birthday search (about 2^16-2^17 tries).
func crc32cCollision(t *testing.T) (a, b []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	seen := map[uint32][]byte{}
	for i := 0; i < 1<<20; i++ {
		body := make([]byte, 64)
		rng.Read(body)
		sum := checksum.Sum(body)
		if prev, ok := seen[sum]; ok && !bytes.Equal(prev, body) {
			return prev, body
		}
		seen[sum] = body
	}
	t.Fatal("no CRC32C collision found")
	return nil, nil
}

// TestCacheKeyResistsCRCCollision: bodies of equal length and equal CRC32C
// are different cache entries. Once keyed by CRC32C plus length, the second
// of two such bodies was served the first one's container — across tenants
// too. Both the other tenant and the same tenant must get a miss and a
// container of their own data.
func TestCacheKeyResistsCRCCollision(t *testing.T) {
	a, b := crc32cCollision(t)
	_, ts := newTestServer(t, Config{})
	resp, enc := post(t, ts.URL+"/v1/compress", a, map[string]string{HeaderTenant: "alice"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice compress: %d %s", resp.StatusCode, enc)
	}
	for _, tenant := range []string{"mallory", "alice"} {
		resp, enc := post(t, ts.URL+"/v1/compress", b, map[string]string{HeaderTenant: tenant})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s compress: %d %s", tenant, resp.StatusCode, enc)
		}
		if got := resp.Header.Get(HeaderCache); got != "miss" {
			t.Fatalf("%s: cache = %q for a colliding body, want miss", tenant, got)
		}
		dec, err := pipeline.Decompress(enc, pipeline.Options{})
		if err != nil || !bytes.Equal(dec, b) {
			t.Fatalf("%s received a container that does not decode to its own body (err %v)", tenant, err)
		}
	}
}

// TestDecompressCacheContentOnlyAcrossOptionVariants: the decompress cache is
// addressed by content alone, so two requests for the same container with
// different (irrelevant-to-decode) query options must share one entry AND
// both return the correct plaintext — a stale-hit collision would surface
// here as wrong bytes on the second variant.
func TestDecompressCacheContentOnlyAcrossOptionVariants(t *testing.T) {
	_, ts := newTestServer(t, Config{ChunkBytes: 8 * 1024})
	raw := testData(10_000, 5)
	resp, enc := post(t, ts.URL+"/v1/compress", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, enc)
	}

	resp, dec := post(t, ts.URL+"/v1/decompress?solver=lzo", enc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress variant 1: %d %s", resp.StatusCode, dec)
	}
	if resp.Header.Get(HeaderCache) != "miss" {
		t.Fatalf("variant 1 cache = %q, want miss", resp.Header.Get(HeaderCache))
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("variant 1 returned wrong plaintext")
	}

	resp, dec2 := post(t, ts.URL+"/v1/decompress?solver=bzlib", enc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress variant 2: %d %s", resp.StatusCode, dec2)
	}
	if resp.Header.Get(HeaderCache) != "hit" {
		t.Fatalf("variant 2 cache = %q, want hit (content-only key)", resp.Header.Get(HeaderCache))
	}
	if !bytes.Equal(dec2, raw) {
		t.Fatal("variant 2 served stale/wrong plaintext from the shared entry")
	}
}
