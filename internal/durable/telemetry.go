package durable

import (
	"primacy/internal/obs"
	"primacy/internal/telemetry"
)

// durMetrics bundles the durable store's telemetry handles. A store takes
// its bundle once, from Options.Observer, so recovery inside Open is
// recorded too; with no registry every handle is nil.
type durMetrics struct {
	journalAppends  *telemetry.Counter
	journalBytes    *telemetry.Counter
	fsyncSeconds    *telemetry.Histogram
	journalRepairs  *telemetry.Counter
	compactions     *telemetry.Counter
	compactFailures *telemetry.Counter
	compactSeconds  *telemetry.Histogram
	recoveredEnt    *telemetry.Counter
	replayDups      *telemetry.Counter
	tornTails       *telemetry.Counter
	tornTailBytes   *telemetry.Counter
	salvagedSeals   *telemetry.Counter
	droppedSealed   *telemetry.Counter

	// Per-tenant vectors (bounded cardinality; hot tenants past the cap
	// collapse into the "other" bucket). The unlabeled metrics above stay
	// authoritative for totals; the vectors attribute the same work.
	appendsByTenant *telemetry.CounterVec
	bytesByTenant   *telemetry.CounterVec
	fsyncByTenant   *telemetry.HistogramVec
	compactByTenant *telemetry.CounterVec
}

var bundle = obs.NewBundle(func(r *telemetry.Registry) *durMetrics {
	return &durMetrics{
		journalAppends:  r.Counter("primacy_durable_journal_appends_total", "Put records appended to tenant journals."),
		journalBytes:    r.Counter("primacy_durable_journal_bytes_total", "Framed bytes appended to tenant journals."),
		fsyncSeconds:    r.Histogram("primacy_durable_fsync_seconds", "Wall time of journal fsyncs on the put path.", nil),
		journalRepairs:  r.Counter("primacy_durable_journal_repairs_total", "Journals truncated back to the last durable record after a failed append."),
		compactions:     r.Counter("primacy_durable_compactions_total", "Journal compactions into sealed archive segments."),
		compactFailures: r.Counter("primacy_durable_compact_failures_total", "Compactions abandoned on error (journal remains authoritative)."),
		compactSeconds:  r.Histogram("primacy_durable_compact_seconds", "Wall time of journal compactions.", nil),
		recoveredEnt:    r.Counter("primacy_durable_recovered_entries_total", "Entries loaded at startup recovery (sealed + journal)."),
		replayDups:      r.Counter("primacy_durable_replay_duplicates_total", "Journal records skipped at recovery because the sealed segment already held them."),
		tornTails:       r.Counter("primacy_durable_torn_tails_total", "Journals whose unverifiable tail was truncated at recovery."),
		tornTailBytes:   r.Counter("primacy_durable_torn_tail_bytes_total", "Journal tail bytes truncated at recovery."),
		salvagedSeals:   r.Counter("primacy_durable_salvaged_segments_total", "Sealed segments routed through the archive salvage decoder at recovery."),
		droppedSealed:   r.Counter("primacy_durable_dropped_sealed_total", "Sealed entries unrecoverable even after salvage."),

		appendsByTenant: r.CounterVec("primacy_durable_tenant_journal_appends_total",
			"Journal appends attributed to a tenant.", []string{"tenant"}),
		bytesByTenant: r.CounterVec("primacy_durable_tenant_journal_bytes_total",
			"Framed journal bytes attributed to a tenant.", []string{"tenant"}),
		fsyncByTenant: r.HistogramVec("primacy_durable_tenant_fsync_seconds",
			"Journal fsync wall time on a tenant's put path.", []string{"tenant"}, nil),
		compactByTenant: r.CounterVec("primacy_durable_tenant_compactions_total",
			"Compactions attributed to a tenant, by outcome.", []string{"tenant", "outcome"}),
	}
})
