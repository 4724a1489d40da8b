package archive

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/faultinject"
	"primacy/internal/precond"
)

// TestPrecondV3ArchiveSalvageRebuild: preconditioned entries embed v3 (PRM3)
// containers. Strict reads must round-trip them, and with the TOC destroyed
// the salvage scanner — which rebuilds the TOC by scanning for entry and
// container magics — must recognize the v3 magic and recover every entry.
func TestPrecondV3ArchiveSalvageRebuild(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, core.Options{
		ChunkBytes: 2048,
		Precond:    core.PrecondOptions{Selection: precond.APriori},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][][]float64{}
	spec, _ := datagen.ByName("flash_velx")
	for _, name := range []string{"temp", "pressure"} {
		for step := 0; step < 2; step++ {
			s := spec
			s.Seed += int64(step) + int64(len(name))
			values := s.Generate(200)
			if err := w.PutFloat64s(name, step, values); err != nil {
				t.Fatal(err)
			}
			data[name] = append(data[name], values)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if !bytes.Contains(blob, []byte("PRM3")) {
		t.Fatal("preconditioned entries did not produce v3 containers")
	}
	if err := readAllEntries(blob, data); err != nil {
		t.Fatalf("strict v3 archive read: %v", err)
	}
	tocOffset := binary.LittleEndian.Uint64(blob[len(blob)-12:])
	mut := faultinject.Truncate(blob, int(tocOffset))
	sal, rep, err := OpenSalvage(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("salvage reported clean despite lost TOC")
	}
	for name, steps := range data {
		for step, want := range steps {
			got, err := sal.GetFloat64s(context.Background(), name, step)
			if err != nil {
				t.Fatalf("%s@%d not recovered from rebuilt TOC: %v", name, step, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s@%d value %d mismatch", name, step, i)
				}
			}
		}
	}
}
