package primacy

import (
	"bytes"
	"context"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestFacadeRoundTrip(t *testing.T) {
	spec, ok := DatasetByName("flash_velx")
	if !ok {
		t.Fatal("dataset missing")
	}
	values := spec.Generate(20_000)
	enc, err := CompressFloat64s(values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressFloat64s(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(values) {
		t.Fatalf("count %d != %d", len(dec), len(values))
	}
	for i := range values {
		if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestFacadeStats(t *testing.T) {
	spec, _ := DatasetByName("obs_temp")
	raw := spec.GenerateBytes(20_000)
	enc, stats, err := CompressWithStats(raw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ratio() <= 1 {
		t.Fatalf("ratio %v", stats.Ratio())
	}
	dec, dstats, err := DecompressWithStats(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("round trip mismatch")
	}
	if dstats.RawBytes != len(raw) {
		t.Fatalf("dstats raw bytes %d", dstats.RawBytes)
	}
}

func TestFacadeParallel(t *testing.T) {
	spec, _ := DatasetByName("msg_lu")
	raw := spec.GenerateBytes(60_000)
	opts := ParallelOptions{Workers: 4, Core: Options{ChunkBytes: 32 << 10}}
	enc, err := ParallelCompress(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ParallelDecompress(enc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("parallel round trip mismatch")
	}
}

func TestFacadeModelAndSim(t *testing.T) {
	p := ModelParams{
		ChunkBytes: 3 << 20, Alpha1: 0.25, Alpha2: 0.1,
		SigmaHo: 0.2, SigmaLo: 0.6, Rho: 8,
		Theta: 600e6, MuWrite: 12e6, MuRead: 200e6,
		TPrec: 800e6, TComp: 60e6, TDecomp: 200e6,
	}
	null, err := p.WriteNoCompression()
	if err != nil {
		t.Fatal(err)
	}
	prim, err := p.WritePRIMACY()
	if err != nil {
		t.Fatal(err)
	}
	if prim.Throughput <= null.Throughput {
		t.Fatal("model: PRIMACY should win on slow disk")
	}
	sim, err := SimulateWrite(SimConfig{
		Rho: 8, Timesteps: 2, ChunkBytes: 3 << 20,
		CompressedFraction: 0.8, CodecBps: 60e6, PrecBps: 800e6,
		NetworkBps: 600e6, DiskBps: 12e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Throughput <= 0 {
		t.Fatal("sim produced no throughput")
	}
}

func TestFacadeDatasets(t *testing.T) {
	if len(Datasets()) != 20 {
		t.Fatalf("expected 20 datasets")
	}
	values := []float64{1, 2, 3, 4}
	perm := PermuteValues(values, 1)
	if len(perm) != 4 {
		t.Fatal("permute length")
	}
}

// Property: the public API round-trips arbitrary data.
func TestQuickFacade(t *testing.T) {
	f := func(values []float64) bool {
		enc, err := CompressFloat64s(values, Options{})
		if err != nil {
			return false
		}
		dec, err := DecompressFloat64s(enc)
		if err != nil || len(dec) != len(values) {
			return false
		}
		for i := range values {
			if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeStreaming(t *testing.T) {
	spec, _ := DatasetByName("num_brain")
	raw := spec.GenerateBytes(30_000)
	var sink bytes.Buffer
	w, err := NewStreamWriter(&sink, Options{ChunkBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(raw); pos += 10_000 {
		end := pos + 10_000
		if end > len(raw) {
			end = len(raw)
		}
		if _, err := w.Write(raw[pos:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := io.ReadAll(NewStreamReader(bytes.NewReader(sink.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("stream round trip mismatch")
	}
}

func TestFacadeFloat32(t *testing.T) {
	values := []float32{1.5, -2.25, 3e10, 0}
	for i := 0; i < 500; i++ {
		values = append(values, float32(i)*1.25)
	}
	enc, err := CompressFloat32s(values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressFloat32s(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Float32bits(dec[i]) != math.Float32bits(values[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestFacadeChunkReader(t *testing.T) {
	spec, _ := DatasetByName("msg_sp")
	raw := spec.GenerateBytes(20_000)
	enc, err := Compress(raw, Options{ChunkBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.RawBytes() != len(raw) || r.NumChunks() < 2 {
		t.Fatalf("framing: %d bytes, %d chunks", r.RawBytes(), r.NumChunks())
	}
	chunk, err := r.DecodeChunk(1)
	if err != nil {
		t.Fatal(err)
	}
	s, e, err := r.ChunkRange(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chunk, raw[s:e]) {
		t.Fatal("random access mismatch")
	}
}

func TestFacadeArchive(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewArchiveWriter(&buf, Options{ChunkBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1, 2, 3, math.Pi}
	for i := 0; i < 500; i++ {
		values = append(values, float64(i)*0.25)
	}
	if err := w.PutFloat64s("density", 0, values); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewArchiveReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.GetFloat64s(context.Background(), "density", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Float64bits(got[i]) != math.Float64bits(values[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}
