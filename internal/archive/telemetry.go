package archive

import (
	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// archMetrics bundles the archive container's telemetry handles, looked up
// once per writer or read from the context's observer.
type archMetrics struct {
	entriesWritten *telemetry.Counter
	entryBytes     *telemetry.Counter
	entriesRead    *telemetry.Counter
	readBytes      *telemetry.Counter
}

var archBundle = obs.NewBundle(func(r *telemetry.Registry) *archMetrics {
	return &archMetrics{
		entriesWritten: r.Counter("primacy_archive_entries_written_total", "Entries appended to archives."),
		entryBytes:     r.Counter("primacy_archive_entry_bytes_total", "Framed entry bytes written to archives."),
		entriesRead:    r.Counter("primacy_archive_entries_read_total", "Entries decoded from archives."),
		readBytes:      r.Counter("primacy_archive_read_bytes_total", "Decompressed bytes returned by archive reads."),
	}
})
