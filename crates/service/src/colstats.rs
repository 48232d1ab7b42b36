//! Column statistics of a registered database, and the
//! [`ColumnStatsProvider`] an ask hands its preparations.
//!
//! A question over `k` join graphs prepares `k` APTs, and the same
//! context-table column (say `scoring.pts`) appears in many of them. Its
//! quantile bins and fragment boundaries ([`ColumnStats`]) are a function
//! of the base column and the service's one statistics configuration, so
//! they hang off the registration they describe: a [`ColumnStatsTable`]
//! holds one once-initialised cell per base column, the **first**
//! preparation to touch a column fills its cell from the base table —
//! concurrent requesters of one column wait for the one computing it — and
//! every later graph, ask and session takes a pointer clone.
//!
//! Nothing sweeps the table: it is dropped with the
//! [`RegisteredDb`] that owns it, so an ask still running on replaced
//! content reads and fills the statistics of the content it pinned, and
//! the new registration starts from empty cells.

use std::sync::{Arc, OnceLock};

use cajade_mining::{
    base_column_stats, ColumnStats, ColumnStatsConfig, ColumnStatsProvider, ReadShare,
};
use cajade_storage::Database;

use crate::service::{RegisteredDb, ServiceInner};

/// One cell per base column of a database, `[table][column]` in catalog
/// order, empty until a preparation first asks for the column.
#[derive(Debug)]
pub(crate) struct ColumnStatsTable(Vec<Vec<OnceLock<Arc<ColumnStats>>>>);

impl ColumnStatsTable {
    pub(crate) fn new(db: &Database) -> Self {
        let empty = |t: &cajade_storage::Table| (0..t.num_columns()).map(|_| OnceLock::new());
        ColumnStatsTable(db.tables().iter().map(|t| empty(t).collect()).collect())
    }

    /// Columns analysed so far.
    pub(crate) fn filled(&self) -> usize {
        let cells = self.0.iter().flatten();
        cells.filter(|cell| cell.get().is_some()).count()
    }
}

/// One ask's [`ColumnStatsProvider`]: the pinned registration's
/// [`ColumnStatsTable`], plus the ask's [`ReadShare`] when it prepares
/// more than one APT — what one graph's preparation read, the next takes
/// from there before this provider is asked for the column's statistics
/// at all.
pub(crate) struct DbColumnStats<'a> {
    inner: &'a ServiceInner,
    reg: &'a RegisteredDb,
    cfg: ColumnStatsConfig,
    pub(crate) share: Option<ReadShare>,
}

impl<'a> DbColumnStats<'a> {
    pub(crate) fn new(
        inner: &'a ServiceInner,
        reg: &'a RegisteredDb,
        share: Option<ReadShare>,
    ) -> Self {
        DbColumnStats {
            inner,
            reg,
            cfg: ColumnStatsConfig::from_params(&inner.params.mining),
            share,
        }
    }
}

impl ColumnStatsProvider for DbColumnStats<'_> {
    fn read_share(&self) -> Option<&ReadShare> {
        self.share.as_ref()
    }

    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
        let db = &self.reg.db;
        let ti = db.table_index(table)?;
        let ci = db.tables()[ti].schema().field_index(column)?;
        let stats = self.reg.column_stats.0[ti][ci].get_or_init(|| {
            // The registration retains them.
            let _mem = cajade_obs::AllocScope::enter("db.column_stats");
            self.inner.obs.column_stats_computed_total.inc();
            // The one resolution + computation path every provider shares.
            Arc::new(base_column_stats(db, table, column, &self.cfg).expect("resolved above"))
        });
        Some(Arc::clone(stats))
    }
}
