package archive

import (
	"bytes"
	"context"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
)

// FuzzDecompress drives the archive reader, verifier, and salvage scanner
// over arbitrary bytes. None may panic, hang, or allocate proportionally to
// claimed (rather than actual) sizes.
func FuzzDecompress(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, core.Options{ChunkBytes: 1024})
	if err != nil {
		f.Fatal(err)
	}
	spec, _ := datagen.ByName("flash_velx")
	if err := w.PutFloat64s("temp", 0, spec.Generate(100)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(magicV1))
	f.Add([]byte(magicV2))
	f.Add([]byte("PAR2" + "PAE2\x04\x00temp\x01\x00\x00\x00xxxxxxxxcccc" +
		"\x10\x00\x00\x00\x00\x00\x00\x00PAR2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		if r, err := NewReader(bytes.NewReader(data), size); err == nil {
			for _, name := range r.Variables() {
				for _, step := range r.Steps(name) {
					_, _ = r.GetFloat64s(context.Background(), name, step)
				}
			}
		}
		if _, err := Verify(context.Background(), bytes.NewReader(data), size); err != nil {
			t.Fatalf("Verify must report via the CorruptionReport, got error: %v", err)
		}
		if r, _, err := OpenSalvage(bytes.NewReader(data), size); err == nil {
			for _, name := range r.Variables() {
				for _, step := range r.Steps(name) {
					_, _ = r.GetFloat64s(context.Background(), name, step)
				}
			}
		}
	})
}
