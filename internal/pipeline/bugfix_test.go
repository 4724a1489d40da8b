package pipeline

import (
	"context"
	"errors"
	"testing"

	"primacy/internal/core"
)

// Every unit of work the pipeline schedules is one chunk of the effective
// chunk size, so interior units hold only full chunks and parallelism never
// manufactures runt chunks at unit seams.
func TestDefaultShardBytesIsChunkMultiple(t *testing.T) {
	cases := []struct {
		name       string
		chunkBytes int
		elemBytes  int
		total      int
	}{
		{"default_chunk", 0, 8, 50 << 20},
		{"small_chunk", 8 << 10, 8, 10*(8<<10) + 8},
		{"odd_chunk", 100001, 8, 3 << 20}, // effective chunk 100000 after elem rounding
		{"float32", 4 << 10, 4, 1<<20 + 4},
		{"tiny_input", 8 << 10, 8, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.Options{ChunkBytes: tc.chunkBytes}
			if tc.elemBytes == 4 {
				opts.Precision = core.Float32
			}
			chunk := tc.chunkBytes
			if chunk == 0 {
				chunk = 3 << 20
			}
			chunk -= chunk % tc.elemBytes
			enc, err := core.NewEncoder(context.Background(), make([]byte, tc.total), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < enc.NumChunks(); i++ {
				start, end, err := enc.ChunkRange(i)
				if err != nil {
					t.Fatal(err)
				}
				if n := end - start; n != chunk && (i != enc.NumChunks()-1 || n > chunk) {
					t.Fatalf("unit %d of %d holds %d bytes, effective chunk is %d", i, enc.NumChunks(), n, chunk)
				}
			}
		})
	}
}

// End to end: with an input that does not divide evenly by workers, every
// interior chunk of the container must be full — only the final chunk may
// be partial.
func TestInteriorShardsHoldFullChunks(t *testing.T) {
	const chunk = 8 << 10
	opts := Options{Workers: 3, Core: core.Options{ChunkBytes: chunk}}
	// 10.5 chunks: not a multiple of the worker count either.
	raw := testData((10*chunk + chunk/2) / 8)
	enc := roundTrip(t, raw, opts)
	r, err := core.NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() != 11 {
		t.Fatalf("%d chunks, want 11", r.NumChunks())
	}
	for i := 0; i < r.NumChunks()-1; i++ {
		if start, end, _ := r.ChunkRange(i); end-start != chunk {
			t.Fatalf("interior chunk %d holds %d bytes", i, end-start)
		}
	}
}

// A chunk size the reader could not decode is refused before any work,
// even for an input far smaller than one chunk.
func TestCompressRejectsOversizedChunk(t *testing.T) {
	_, err := Compress(testData(4), Options{Core: core.Options{ChunkBytes: core.MaxChunkBytes + 8}})
	if !errors.Is(err, core.ErrChunkTooLarge) {
		t.Fatalf("Compress error = %v, want core.ErrChunkTooLarge", err)
	}
	if _, err := Compress(testData(4), Options{Core: core.Options{ChunkBytes: core.MaxChunkBytes}}); err != nil {
		t.Fatalf("MaxChunkBytes rejected: %v", err)
	}
}
