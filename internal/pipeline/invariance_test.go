package pipeline

import (
	"bytes"
	"fmt"
	"testing"

	"primacy/internal/core"
	"primacy/internal/faultinject"
	"primacy/internal/precond"
)

// TestCompressMatchesSequentialCore is the single-writer guarantee: the
// pipeline's container equals core.Compress of the same input byte for
// byte, at every worker count, for both precisions, every preconditioner
// selection mode, both index modes, and with degraded chunks.
func TestCompressMatchesSequentialCore(t *testing.T) {
	panicky, err := faultinject.NewPanicky("pipeline-identity-panic", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	panicky.PanicEvery = 1 // every chunk degrades, whatever worker runs it
	type config struct {
		name string
		opts core.Options
	}
	var configs []config
	for _, prec := range []core.Precision{core.Float64, core.Float32} {
		for _, sel := range []precond.SelectionMode{precond.Fixed, precond.APriori, precond.APosteriori} {
			for _, idx := range []core.IndexMode{core.IndexPerChunk, core.IndexReuse} {
				configs = append(configs, config{
					name: fmt.Sprintf("prec%d/sel%d/index%d", prec, sel, idx),
					opts: core.Options{ChunkBytes: 4 << 10, Precision: prec, IndexMode: idx,
						Precond: core.PrecondOptions{Selection: sel}},
				})
			}
		}
	}
	configs = append(configs, config{"degraded", core.Options{ChunkBytes: 4 << 10, Solver: "pipeline-identity-panic"}})
	// 4100 elements: 8 full float64 chunks plus a partial one.
	raw := shardTestData(4100, 5)
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			want, stats, err := core.CompressWithStats(raw, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.opts.Solver != "" && stats.DegradedChunks != stats.Chunks {
				t.Fatalf("%d of %d chunks degraded, want all", stats.DegradedChunks, stats.Chunks)
			}
			for _, w := range []int{1, 2, 4, 7, 64} {
				got, err := Compress(raw, Options{Core: c.opts, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%d workers: pipeline output differs from core.Compress", w)
				}
			}
			dec, err := Decompress(want, Options{Workers: 4})
			if err != nil || !bytes.Equal(dec, raw) {
				t.Fatalf("round trip: %v", err)
			}
		})
	}
}

// TestDefaultOutputBytesWorkerInvariant is the end-to-end version with
// default options: containers compressed at different worker counts must be
// byte-identical.
func TestDefaultOutputBytesWorkerInvariant(t *testing.T) {
	raw := testData(40_000)
	var want []byte
	for i, w := range []int{1, 2, 5, 16} {
		opts := Options{Workers: w, Core: core.Options{ChunkBytes: 16 << 10}}
		enc := roundTrip(t, raw, opts)
		if i == 0 {
			want = enc
			continue
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("%d workers produced different bytes than 1 worker", w)
		}
	}
}

// TestPooledCodecOutputStable guards the codec pool: back-to-back calls that
// reuse warmed scratch arenas must keep emitting byte-identical containers.
func TestPooledCodecOutputStable(t *testing.T) {
	raw := testData(20_000)
	opts := Options{Workers: 2, Core: core.Options{ChunkBytes: 8 << 10}}
	first := roundTrip(t, raw, opts)
	for i := 0; i < 3; i++ {
		if again := roundTrip(t, raw, opts); !bytes.Equal(again, first) {
			t.Fatalf("call %d diverged after pool reuse", i+2)
		}
	}
}
