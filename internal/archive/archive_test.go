package archive

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
)

// writeSample builds an archive with two variables over three steps.
func writeSample(ctx context.Context, t *testing.T) ([]byte, map[string][][]float64) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterCtx(ctx, &buf, core.Options{ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][][]float64{}
	for _, name := range []string{"temperature", "velocity_x"} {
		spec, _ := datagen.ByName("flash_velx")
		for step := 0; step < 3; step++ {
			s := spec
			s.Seed += int64(step) + int64(len(name))
			values := s.Generate(4_000)
			if err := w.PutFloat64s(name, step, values); err != nil {
				t.Fatal(err)
			}
			data[name] = append(data[name], values)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), data
}

func TestArchiveRoundTrip(t *testing.T) {
	blob, data := writeSample(context.Background(), t)
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEntries() != 6 {
		t.Fatalf("entries = %d", r.NumEntries())
	}
	vars := r.Variables()
	if len(vars) != 2 || vars[0] != "temperature" || vars[1] != "velocity_x" {
		t.Fatalf("variables = %v", vars)
	}
	for name, steps := range data {
		gotSteps := r.Steps(name)
		if len(gotSteps) != 3 {
			t.Fatalf("%s steps = %v", name, gotSteps)
		}
		for step, want := range steps {
			got, err := r.GetFloat64s(context.Background(), name, step)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, step, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s@%d: %d values", name, step, len(got))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s@%d value %d mismatch", name, step, i)
				}
			}
		}
	}
}

func TestArchiveNotFound(t *testing.T) {
	blob, _ := writeSample(context.Background(), t)
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetFloat64s(context.Background(), "pressure", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := r.GetFloat64s(context.Background(), "temperature", 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if steps := r.Steps("pressure"); len(steps) != 0 {
		t.Fatalf("steps for unknown variable: %v", steps)
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutFloat64s("", 0, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := w.PutFloat64s("v", -1, nil); err == nil {
		t.Fatal("negative step accepted")
	}
	if err := w.PutFloat64s("v", 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.PutFloat64s("v", 0, []float64{2}); err == nil {
		t.Fatal("duplicate entry accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("Close should be idempotent")
	}
	if err := w.PutFloat64s("w", 0, nil); err == nil {
		t.Fatal("put after close accepted")
	}
}

func TestEmptyArchive(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEntries() != 0 || len(r.Variables()) != 0 {
		t.Fatal("empty archive has entries")
	}
}

func TestReaderCorrupt(t *testing.T) {
	blob, _ := writeSample(context.Background(), t)
	cases := map[string][]byte{
		"empty":       {},
		"tiny":        []byte("PAR1"),
		"bad head":    append([]byte("XXXX"), blob[4:]...),
		"bad trailer": append(append([]byte{}, blob[:len(blob)-4]...), 'X', 'X', 'X', 'X'),
		"cut toc":     blob[:len(blob)-20],
		"zero offset": zeroTrailerOffset(blob),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data), int64(len(data))); err == nil {
			t.Errorf("%s: corrupt archive accepted", name)
		}
	}
}

func zeroTrailerOffset(blob []byte) []byte {
	mut := append([]byte(nil), blob...)
	for i := len(mut) - 12; i < len(mut)-4; i++ {
		mut[i] = 0
	}
	return mut
}

func TestPayloadBitFlipDetected(t *testing.T) {
	blob, _ := writeSample(context.Background(), t)
	// Flip a byte inside a zlib stream (its Adler-32 must catch it). Find
	// the first zlib header (0x78 0x9C) and damage well inside the stream.
	target := -1
	for i := 4; i < len(blob)-64; i++ {
		if blob[i] == 0x78 && blob[i+1] == 0x9C {
			target = i + 16
			break
		}
	}
	if target < 0 {
		t.Skip("no zlib stream marker found")
	}
	mut := append([]byte(nil), blob...)
	mut[target] ^= 0xFF
	r, err := NewReader(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err) // TOC is intact
	}
	anyErr := false
	for _, name := range r.Variables() {
		for _, step := range r.Steps(name) {
			if _, err := r.GetFloat64s(context.Background(), name, step); err != nil {
				anyErr = true
			}
		}
	}
	if !anyErr {
		t.Fatal("zlib payload corruption never surfaced")
	}
}
