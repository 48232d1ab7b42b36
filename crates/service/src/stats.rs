//! Service statistics snapshots.

use crate::cache::CacheStats;

/// Cumulative ingestion counters (CSV-directory `register` path). Stage
/// durations accumulate in microseconds so the snapshot stays `Copy`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// CSV-directory registrations performed.
    pub ingests: u64,
    /// Tables loaded across all ingests.
    pub tables: u64,
    /// Rows loaded across all ingests.
    pub rows: u64,
    /// Manifest-pinned joins across all ingests.
    pub joins_pinned: u64,
    /// Discovery-proposed joins across all ingests.
    pub joins_discovered: u64,
    /// Cumulative scan-stage time (µs).
    pub scan_us: u64,
    /// Cumulative infer-stage time (µs).
    pub infer_us: u64,
    /// Cumulative load-stage time (µs).
    pub load_us: u64,
    /// Cumulative discover-stage time (µs).
    pub discover_us: u64,
}

impl IngestStats {
    /// Folds one [`cajade_ingest::IngestReport`] into the totals. All
    /// arithmetic saturates: durations longer than `u64::MAX` µs clamp,
    /// and a report whose discovered-join count exceeds its join list
    /// (impossible today, but nothing in the type enforces it) pins zero
    /// joins rather than wrapping.
    pub fn record(&mut self, report: &cajade_ingest::IngestReport) {
        let us = |d: std::time::Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.ingests = self.ingests.saturating_add(1);
        self.tables = self.tables.saturating_add(report.tables.len() as u64);
        self.rows = self.rows.saturating_add(report.total_rows() as u64);
        let total_joins = report.joins.len() as u64;
        let discovered = (report.discovered_join_count() as u64).min(total_joins);
        self.joins_discovered = self.joins_discovered.saturating_add(discovered);
        self.joins_pinned = self
            .joins_pinned
            .saturating_add(total_joins.saturating_sub(discovered));
        self.scan_us = self.scan_us.saturating_add(us(report.timings.scan));
        self.infer_us = self.infer_us.saturating_add(us(report.timings.infer));
        self.load_us = self.load_us.saturating_add(us(report.timings.load));
        self.discover_us = self.discover_us.saturating_add(us(report.timings.discover));
    }
}

/// One consistent-enough snapshot of the service's counters (each counter
/// is read atomically; the set is not transactional).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Databases currently registered.
    pub databases: usize,
    /// Sessions currently open.
    pub open_sessions: usize,
    /// Sessions opened since construction.
    pub sessions_opened: u64,
    /// Questions answered since construction.
    pub questions_answered: u64,
    /// CSV-directory ingestion counters.
    pub ingest: IngestStats,
    /// Provenance cache counters: one entry per query, weighing its
    /// provenance, enumeration and prepared join graphs.
    pub provenance_cache: CacheStats,
    /// Counters of the prepared join graphs the provenance cache's
    /// entries hold (`entries`, `bytes`: of the resident ones;
    /// `budget_bytes`: the provenance budget they live under).
    pub apt_cache: CacheStats,
    /// Counters of the answers the provenance cache's entries hold, like
    /// `apt_cache`.
    pub answer_cache: CacheStats,
}

impl ServiceStats {
    /// Join graphs an ask mined through a preparation it found (the ask
    /// skipped feature selection, LCA candidates, and fragments): its
    /// lookup hit, or another ask stored the graph while this one derived
    /// the view.
    pub fn prepared_apt_hits(&self) -> u64 {
        self.apt_cache.hits + self.apt_cache.coalesced
    }

    /// Join graphs an ask found unprepared and prepared itself.
    /// (Saturating: the counters of a snapshot are read one by one.)
    pub fn prepared_apt_misses(&self) -> u64 {
        (self.apt_cache.misses).saturating_sub(self.apt_cache.coalesced)
    }

    /// Overall hit rate across the provenance, prepared-graph and answer
    /// lookups (0.0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.provenance_cache.hits + self.apt_cache.hits + self.answer_cache.hits;
        let total =
            hits + self.provenance_cache.misses + self.apt_cache.misses + self.answer_cache.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_stats_fold_reports() {
        use cajade_ingest::{IngestReport, IngestTimings, JoinOrigin, JoinReport, TableReport};
        let report = IngestReport {
            dataset: "d".into(),
            manifest_used: false,
            tables: vec![TableReport {
                name: "t".into(),
                rows: 7,
                columns: 2,
                key: vec![],
                key_pinned: false,
                ragged_rows: 0,
                coerced_nulls: 0,
            }],
            joins: vec![
                JoinReport {
                    condition: "a.x = b.x".into(),
                    origin: JoinOrigin::Pinned,
                    evidence: None,
                },
                JoinReport {
                    condition: "a.y = c.y".into(),
                    origin: JoinOrigin::Discovered,
                    evidence: None,
                },
            ],
            warnings: vec![],
            timings: IngestTimings {
                scan: std::time::Duration::from_micros(10),
                infer: std::time::Duration::from_micros(20),
                load: std::time::Duration::from_micros(30),
                discover: std::time::Duration::from_micros(40),
            },
        };
        let mut s = IngestStats::default();
        s.record(&report);
        s.record(&report);
        assert_eq!(s.ingests, 2);
        assert_eq!(s.rows, 14);
        assert_eq!(s.joins_pinned, 2);
        assert_eq!(s.joins_discovered, 2);
        assert_eq!(s.scan_us, 20);
        assert_eq!(s.discover_us, 80);
    }

    #[test]
    fn ingest_stats_saturate_instead_of_wrapping() {
        use cajade_ingest::{IngestReport, IngestTimings};
        let report = IngestReport {
            dataset: "d".into(),
            manifest_used: false,
            tables: vec![],
            joins: vec![],
            warnings: vec![],
            timings: IngestTimings {
                // > u64::MAX microseconds: must clamp, not truncate.
                scan: std::time::Duration::MAX,
                infer: std::time::Duration::from_micros(1),
                load: std::time::Duration::ZERO,
                discover: std::time::Duration::ZERO,
            },
        };
        let mut s = IngestStats {
            ingests: u64::MAX,
            infer_us: u64::MAX - 1,
            ..IngestStats::default()
        };
        s.record(&report);
        assert_eq!(s.ingests, u64::MAX);
        assert_eq!(s.scan_us, u64::MAX);
        assert_eq!(s.infer_us, u64::MAX);
        // No joins at all: pinned count must stay 0 even if a (buggy)
        // discovered count were reported; here it exercises the
        // `total - discovered` guard path with an empty list.
        assert_eq!(s.joins_pinned, 0);
        assert_eq!(s.joins_discovered, 0);
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(ServiceStats::default().hit_rate(), 0.0);
        let mut s = ServiceStats::default();
        s.provenance_cache.hits = 3;
        s.provenance_cache.misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
