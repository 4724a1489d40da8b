package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/core"
	"primacy/internal/faultinject"
)

// readFixture reads a committed legacy fixture. The PRP files were written
// by the PRP writer before it was removed; they are decoded, never rebuilt.
func readFixture(t testing.TB, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestV1ContainerDecodes proves pre-checksum parallel containers still
// decompress byte-identically after the v2 format bump.
func TestV1ContainerDecodes(t *testing.T) {
	raw := readFixture(t, "v1", "raw.bin")
	enc := readFixture(t, "v1", "container.prp")
	if string(enc[:4]) != magicV1 {
		t.Fatalf("fixture magic %q, want v1", enc[:4])
	}
	dec, err := Decompress(enc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("v1 parallel container did not decompress byte-identically")
	}
}

// TestV2ContainersDecode: the PRP2 fixtures — 4 shards of 4 chunks, and 2
// shards of APriori-preconditioned PRM3 containers — decode
// byte-identically, and verify and salvage clean.
func TestV2ContainersDecode(t *testing.T) {
	raw := readFixture(t, "v2", "raw.bin")
	for _, name := range []string{"multichunk.prp", "apriori.prp"} {
		enc := readFixture(t, "v2", name)
		if string(enc[:4]) != magicV2 {
			t.Fatalf("%s: magic %q, want v2", name, enc[:4])
		}
		dec, err := Decompress(enc, Options{Workers: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(dec, raw) {
			t.Fatalf("%s did not decompress byte-identically", name)
		}
		sal, rep, err := DecompressSalvage(context.Background(), enc, Options{})
		if err != nil || !rep.Clean() || !bytes.Equal(sal, raw) {
			t.Fatalf("%s: salvage err=%v report=%v", name, err, rep)
		}
	}
}

// TestEveryBitFlipDetected: any single-bit flip in a v2 parallel container
// must error, never decode silently wrong.
func TestEveryBitFlipDetected(t *testing.T) {
	raw := readFixture(t, "v2", "raw.bin")
	enc := readFixture(t, "v2", "multichunk.prp")
	for bit := 0; bit < len(enc)*8; bit++ {
		dec, err := Decompress(faultinject.FlipBit(enc, bit), Options{})
		if err == nil {
			if !bytes.Equal(dec, raw) {
				t.Fatalf("bit flip %d decoded silently to wrong data", bit)
			}
			t.Fatalf("bit flip %d went completely undetected", bit)
		}
	}
}

// TestCorruptionBattery: the shared mutator battery must never panic the
// decoder or yield silently wrong output.
func TestCorruptionBattery(t *testing.T) {
	raw := readFixture(t, "v2", "raw.bin")
	enc := readFixture(t, "v2", "multichunk.prp")
	for _, m := range faultinject.Battery(enc, 13, 7) {
		dec, err := Decompress(m.Data, Options{})
		if err == nil && !bytes.Equal(dec, raw) {
			t.Fatalf("%s: decoded silently to wrong data", m.Name)
		}
	}
}

// TestSalvageCorruptShard: with one shard damaged, salvage recovers the
// rest (the damaged shard itself degrades to its intact chunks).
func TestSalvageCorruptShard(t *testing.T) {
	const shardBytes = 2048 // the fixture's shard size
	raw := readFixture(t, "v2", "raw.bin")
	enc := readFixture(t, "v2", "multichunk.prp")
	shards, offsets, err := splitShards(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) < 3 {
		t.Fatalf("want ≥3 shards, got %d", len(shards))
	}
	// Flip a bit in the middle of shard 1's payload.
	mid := offsets[1] + len(shards[1])/2
	mut := faultinject.FlipBit(enc, mid*8)
	if _, err := Decompress(mut, Options{}); err == nil {
		t.Fatal("strict decode accepted corrupt shard")
	}
	dec, rep, err := DecompressSalvage(context.Background(), mut, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("salvage reported clean")
	}
	// All of shard 0 and shard 2+ must be present verbatim.
	shard0, err := core.Decompress(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dec, shard0) {
		t.Fatal("salvage lost shard 0")
	}
	tail := raw[2*shardBytes:]
	if !bytes.HasSuffix(dec, tail) {
		t.Fatal("salvage lost the shards after the corrupt one")
	}
}

// TestVerify flags corrupt containers and passes clean ones.
func TestVerify(t *testing.T) {
	enc := readFixture(t, "v2", "multichunk.prp")
	rep, err := Verify(context.Background(), enc)
	if err != nil || !rep.Clean() {
		t.Fatalf("clean container flagged: %v / %v", err, rep)
	}
	rep, err = Verify(context.Background(), faultinject.FlipBit(enc, len(enc)/2*8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupt container reported clean")
	}
}

// TestShardCountClaimFailsFast: a tiny container claiming millions of
// shards must be rejected before any allocation proportional to the claim.
func TestShardCountClaimFailsFast(t *testing.T) {
	enc := []byte("PRP2\xff\xff\xff\x00" + "tiny")
	if _, err := Decompress(enc, Options{}); err == nil {
		t.Fatal("absurd shard count accepted")
	}
}

// TestChunkCRCCheckedBeforeDecode: a flipped chunk CRC in a PRM container
// fails the whole call before any worker starts decoding.
func TestChunkCRCCheckedBeforeDecode(t *testing.T) {
	reg, _, ctx := observed()
	raw := testData(4096)
	enc, err := Compress(raw, Options{Core: core.Options{ChunkBytes: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk records follow the header (26 bytes plus the solver name) in
	// frames of u32 length | u32 CRC32C | record; flip the last chunk's CRC.
	pos := 26 + int(enc[9])
	for i := 0; i < r.NumChunks()-1; i++ {
		pos += 8 + int(binary.LittleEndian.Uint32(enc[pos:]))
	}
	before, _ := reg.Snapshot().Counter("primacy_pipeline_shards_total")
	mut := bytes.Clone(enc)
	mut[pos+4] ^= 1
	_, err = DecompressCtx(ctx, mut, Options{Workers: 4})
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("err = %v, want a chunk checksum failure", err)
	}
	if after, _ := reg.Snapshot().Counter("primacy_pipeline_shards_total"); after != before {
		t.Fatalf("%d chunks reached a worker before the CRC failed", after-before)
	}
}

// withChunkClaims rewrites every chunk's raw length claim in the PRM
// container enc to claim bytes, with the header total and every CRC
// recomputed, so the result passes the framing and checksum walk and only
// decoding can expose it.
func withChunkClaims(t *testing.T, enc []byte, claim uint32) []byte {
	t.Helper()
	mut := bytes.Clone(enc)
	// Header: magic, 6 flag bytes, solver name, u64 total, u32 chunk
	// bytes, u32 CRC32C of everything before it.
	hdrEnd := 26 + int(mut[9])
	var total uint64
	for pos := hdrEnd; pos < len(mut); {
		l := int(binary.LittleEndian.Uint32(mut[pos:]))
		rec := mut[pos+8 : pos+8+l]
		binary.LittleEndian.PutUint32(rec, claim)
		binary.LittleEndian.PutUint32(mut[pos+4:], checksum.Sum(rec))
		total += uint64(claim)
		pos += 8 + l
	}
	binary.LittleEndian.PutUint64(mut[hdrEnd-16:], total)
	binary.LittleEndian.PutUint32(mut[hdrEnd-4:], checksum.Sum(mut[:hdrEnd-4]))
	r, err := core.NewChunkReader(mut)
	if err != nil {
		t.Fatalf("claims container rejected before decode: %v", err)
	}
	if r.RawBytes() != int(total) {
		t.Fatalf("claims container decodes to %d bytes, want %d", r.RawBytes(), total)
	}
	return mut
}

// TestChunkClaimsFailFast: a CRC-valid PRM container whose chunk raw length
// claims sum far beyond its size fails at its first chunk, parallel or
// sequential, without allocating what it claims. Claims are unverified
// until a chunk decodes, so they must never size a buffer on their own.
func TestChunkClaimsFailFast(t *testing.T) {
	raw := testData(1 << 17)
	enc, err := Compress(raw, Options{Core: core.Options{ChunkBytes: 64 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, claim := range []uint32{32 << 20, core.MaxChunkBytes} {
		mut := withChunkClaims(t, enc, claim)
		decoders := map[string]func() ([]byte, error){
			"pipeline": func() ([]byte, error) { return Decompress(mut, Options{Workers: 2}) },
			"core":     func() ([]byte, error) { return core.Decompress(mut) },
		}
		for name, decode := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decode()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, core.ErrCorrupt) {
				t.Fatalf("%s, %d-byte claims: err = %v, want ErrCorrupt", name, claim, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
				t.Fatalf("%s, %d-byte claims: allocated %d MiB for a %d KiB container",
					name, claim, alloc>>20, len(mut)>>10)
			}
		}
	}
}

// TestTrailingBytes: bytes after a PRM container are ignored, as
// core.Decompress ignores them; a legacy PRP container must end where its
// last shard does.
func TestTrailingBytes(t *testing.T) {
	raw := testData(5_000)
	enc, err := Compress(raw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail := append(bytes.Clone(enc), 1, 2, 3)
	dec, err := Decompress(tail, Options{Workers: 3})
	if err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("PRM with trailing bytes: err=%v, equal=%v", err, bytes.Equal(dec, raw))
	}
	if _, err := core.Decompress(tail); err != nil {
		t.Fatalf("core.Decompress disagrees: %v", err)
	}
	legacy := append(readFixture(t, "v2", "multichunk.prp"), 1, 2, 3)
	if _, err := Decompress(legacy, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("PRP2 with trailing bytes: err = %v, want ErrCorrupt", err)
	}
}
