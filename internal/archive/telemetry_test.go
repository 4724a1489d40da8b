package archive

import (
	"bytes"
	"context"
	"testing"

	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// Archive writes and reads must account entries and bytes in both
// directions.
func TestArchiveTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	enc, data := writeSample(ctx, t) // 2 variables x 3 steps
	r, err := NewReader(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var readBytes int64
	for name, steps := range data {
		for step := range steps {
			values, err := r.GetFloat64s(ctx, name, step)
			if err != nil {
				t.Fatalf("GetFloat64s(%s, %d): %v", name, step, err)
			}
			readBytes += int64(len(values) * 8)
		}
	}

	snap := reg.Snapshot()
	if v, _ := snap.Counter("primacy_archive_entries_written_total"); v != 6 {
		t.Errorf("entries_written_total = %d, want 6", v)
	}
	if v, _ := snap.Counter("primacy_archive_entry_bytes_total"); v <= 0 || v >= int64(len(enc)) {
		t.Errorf("entry_bytes_total = %d, want in (0, %d)", v, len(enc))
	}
	if v, _ := snap.Counter("primacy_archive_entries_read_total"); v != 6 {
		t.Errorf("entries_read_total = %d, want 6", v)
	}
	if v, _ := snap.Counter("primacy_archive_read_bytes_total"); v != readBytes {
		t.Errorf("read_bytes_total = %d, want %d", v, readBytes)
	}
}
