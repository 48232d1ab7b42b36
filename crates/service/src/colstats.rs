//! The service-backed [`ColumnStatsProvider`]: cross-graph shared column
//! statistics.
//!
//! A question over `k` join graphs prepares `k` APTs, and the same
//! context-table column (say `scoring.pts`) appears in many of them.
//! Before this cache each [`cajade_mining::prepare_apt_with`] re-derived
//! that column's quantile bins and fragment boundaries from its own APT
//! rows; now the **first** preparation to touch a column computes its
//! [`ColumnStats`] from the base table — single-flighted, so concurrent
//! per-graph preparations of one ask never duplicate the work — and every
//! later graph (and every later ask, session, or parameter-compatible
//! client) reuses the entry with a pointer clone.
//!
//! Entries are keyed by `(db, epoch, table, column, stats fingerprint)`
//! and live in an LRU cache under their own byte budget
//! ([`crate::ServiceConfig::column_stats_cache_bytes`]). Re-registering a
//! database with different content advances its epoch and sweeps the
//! stale entries, exactly like the provenance/APT/answer caches.

use std::sync::Arc;

use cajade_mining::{
    base_column_stats, ColumnStats, ColumnStatsConfig, ColumnStatsProvider, ReadShare,
};

use crate::keys::ColStatsKey;
use crate::service::{RegisteredDb, ServiceInner};

/// One ask's view of the service column-statistics cache: resolves
/// `(table, column)` against the pinned database snapshot and serves
/// hits/misses through the epoch-keyed LRU. It also carries the ask's
/// [`ReadShare`], when the ask prepares more than one APT: what one
/// graph's preparation read, the next takes from there before this
/// provider is asked for the column's statistics at all.
pub(crate) struct DbColumnStats<'a> {
    pub(crate) inner: &'a ServiceInner,
    pub(crate) reg: &'a RegisteredDb,
    pub(crate) cfg: ColumnStatsConfig,
    pub(crate) fingerprint: u64,
    pub(crate) share: Option<ReadShare>,
}

impl<'a> DbColumnStats<'a> {
    pub(crate) fn new(
        inner: &'a ServiceInner,
        reg: &'a RegisteredDb,
        params: &cajade_core::Params,
        share: Option<ReadShare>,
    ) -> Self {
        let cfg = ColumnStatsConfig::from_params(&params.mining);
        DbColumnStats {
            inner,
            reg,
            fingerprint: cfg.fingerprint(),
            cfg,
            share,
        }
    }
}

impl ColumnStatsProvider for DbColumnStats<'_> {
    fn read_share(&self) -> Option<&ReadShare> {
        self.share.as_ref()
    }

    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
        // Existence check up front so unresolvable columns never occupy a
        // cache key; the computation itself goes through the one shared
        // resolution path (`base_column_stats`).
        let t = self.reg.db.table(table).ok()?;
        t.schema().field_index(column)?;
        let key = ColStatsKey {
            db: self.reg.name.clone(),
            epoch: self.reg.epoch,
            table: table.to_string(),
            column: column.to_string(),
            stats_fingerprint: self.fingerprint,
        };
        let result = self
            .inner
            .column_stats
            .get_or_try_compute::<std::convert::Infallible>(&key, || {
                // Attribute the retained statistics to the cache that
                // holds them (heap-attribution scope taxonomy).
                let _mem = cajade_obs::AllocScope::enter("cache.column_stats");
                let stats = Arc::new(
                    base_column_stats(&self.reg.db, table, column, &self.cfg)
                        .expect("column existence checked above"),
                );
                // Skip retention if the database was re-registered
                // mid-compute — a stale-epoch key would hold budget
                // nothing can look up (same rule as the other caches).
                let bytes = self
                    .inner
                    .epoch_is_current(&self.reg.name, self.reg.epoch)
                    .then(|| stats.approx_bytes() + key.approx_bytes());
                Ok((stats, bytes))
            });
        match result {
            Ok((stats, _hit)) => Some(stats),
            Err(infallible) => match infallible {},
        }
    }
}
