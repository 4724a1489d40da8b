package pipeline

import (
	"bytes"
	"context"
	"testing"

	"primacy/internal/core"
	"primacy/internal/precond"
)

// FuzzDecompress drives the strict decoder, the salvage decoder, and the
// verifier over arbitrary bytes. None may panic, hang, or allocate
// proportionally to claimed (rather than actual) sizes; and whenever the
// strict decoder accepts an input, salvage must agree with it exactly.
func FuzzDecompress(f *testing.F) {
	raw := testData(64)
	for _, opts := range []core.Options{
		{ChunkBytes: 256},
		{ChunkBytes: 256, Precond: core.PrecondOptions{Selection: precond.APriori}},
		{ChunkBytes: 256, IndexMode: core.IndexReuse},
	} {
		enc, err := Compress(raw, Options{Core: opts})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(readFixture(f, "v2", "multichunk.prp"))
	f.Add([]byte(magicV1))
	f.Add([]byte(magicV2))
	f.Add([]byte("PRP2\x02\x00\x00\x00\x08\x00\x00\x00xxxxPRM2"))
	f.Add([]byte("PRP1\xff\xff\xff\xfftiny"))
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := Options{Workers: 2}
		dec, err := Decompress(data, opts)
		sal, rep, serr := DecompressSalvage(context.Background(), data, opts)
		if err == nil {
			if serr != nil {
				t.Fatalf("strict decode accepted input but salvage errored: %v", serr)
			}
			if !rep.Clean() {
				t.Fatalf("strict decode accepted input but salvage reported: %v", rep)
			}
			if !bytes.Equal(dec, sal) {
				t.Fatal("strict and salvage decode disagree on a valid input")
			}
		}
		if vrep, verr := Verify(context.Background(), data); err == nil && (verr != nil || !vrep.Clean()) {
			t.Fatalf("strict decode accepted input but Verify flagged it: %v / %v", verr, vrep)
		}
	})
}
