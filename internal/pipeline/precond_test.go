package pipeline

import (
	"bytes"
	"context"
	"testing"
)

// TestPrecondV3ShardSalvageResync: preconditioned shards embed v3 (PRM3)
// containers, which must round-trip through the parallel path and — after a
// framing fault destroys the first shard's frame header and container magic —
// still be findable by the lenient resync scan, which locks onto embedded
// container magics.
func TestPrecondV3ShardSalvageResync(t *testing.T) {
	const shardBytes = 4096 // the fixture's shard size
	raw := readFixture(t, "v2", "raw.bin")
	enc := readFixture(t, "v2", "apriori.prp")
	dec, err := Decompress(enc, Options{})
	if err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("round trip: %v", err)
	}
	if !bytes.Contains(enc, []byte("PRM3")) {
		t.Fatal("preconditioned shards did not produce v3 containers")
	}
	rep, err := Verify(context.Background(), enc)
	if err != nil || !rep.Clean() {
		t.Fatalf("verify: err=%v report=%v", err, rep)
	}
	// Flip the first shard's frame header (len+CRC at offset 8) and the
	// embedded container magic behind it: resync can only recover the rest by
	// scanning for the next shard's PRM3 payload.
	mut := append([]byte(nil), enc...)
	for i := 8; i < 20; i++ {
		mut[i] ^= 0xFF
	}
	out, rep, err := DecompressSalvage(context.Background(), mut, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("report clean despite destroyed shard frame")
	}
	if want := raw[shardBytes:]; !bytes.Equal(out, want) {
		t.Fatalf("salvage recovered %d bytes, want the %d after the damaged shard",
			len(out), len(want))
	}
}
