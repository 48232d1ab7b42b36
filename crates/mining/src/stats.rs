//! Cross-graph shared column statistics.
//!
//! `prepare_apt` used to re-derive two kinds of per-column statistics for
//! **every** join graph's APT, even though the same context-table column
//! appears in many of them (a question over `k` graphs re-binned
//! `scoring.pts` up to `k` times):
//!
//! * the [`BinSpec`] quantile thresholds / category dictionary the
//!   histogram feature-selection trainer bins with, and
//! * the λ#frag fragment boundaries the refinement BFS draws threshold
//!   predicates from.
//!
//! Both depend only on the **base table column** and a couple of
//! [`MiningParams`] knobs — not on the join graph, the question, or the
//! APT's row multiset. This module defines the seam that lets a caller
//! share them: [`ColumnStatsProvider`] is injected into
//! [`prepare_apt_with`](crate::prepared::prepare_apt_with),
//! [`ColumnStatsTable`] is the one memo of them (the service keeps one per
//! registered database, [`BaseTableStats`] reads one), and the one-shot
//! pipeline wires the [`NoSharedStats`] pass-through (per-APT
//! computation, bit-identical to the historical behaviour).
//!
//! **Deliberate deviation** (documented like the others in
//! [`crate::prepared`]): shared statistics are computed over the base
//! table's rows — one value per tuple — while the per-APT fallback sees
//! the APT's join-fan-out-weighted multiset restricted to provenance.
//! Quantile boundaries and frequency caps can therefore differ between
//! the shared and pass-through paths. Both are faithful readings of the
//! paper's "split the domain of each numerical attribute into λ#frag
//! fragments" (§3.4); the shared reading is what makes multi-graph
//! questions scale sub-linearly in graph count, and it has the side
//! benefit that the same column refines with the same thresholds in every
//! graph.

use std::sync::{Arc, OnceLock};

use cajade_graph::Apt;
use cajade_ml::BinSpec;
use cajade_obs::Counter;
use cajade_storage::{AttrKind, Column, Database};

use crate::featsel::HIST_BINS;
use crate::fragments::quantile_boundaries;
use crate::miner::MiningParams;
use crate::share::ReadShare;

/// Graph- and question-independent statistics of one base-table column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Bin spec for the histogram feature-selection trainer (quantile
    /// thresholds for numeric columns, category dictionary for
    /// categorical ones).
    pub bins: BinSpec,
    /// λ#frag fragment boundaries (empty for categorical columns and for
    /// numeric columns with no finite values).
    pub fragments: Vec<f64>,
}

impl ColumnStats {
    /// Approximate heap footprint for cache byte budgeting.
    pub fn approx_bytes(&self) -> usize {
        self.bins.approx_bytes() + self.fragments.len() * 8 + 32
    }
}

/// The [`MiningParams`] knobs column statistics depend on. Statistics
/// computed under one config must not serve a preparation under another —
/// a different λ#frag means different boundaries — so a provider that
/// keeps them holds one config for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnStatsConfig {
    /// Bin budget of the histogram trainer ([`HIST_BINS`]).
    pub hist_bins: usize,
    /// λ#frag ([`MiningParams::num_frags`]).
    pub num_frags: usize,
}

impl ColumnStatsConfig {
    /// Extracts the stats-relevant knobs from a parameter set: λ#frag,
    /// and the bin budget feature selection always uses ([`HIST_BINS`],
    /// not a mining λ).
    pub fn from_params(params: &MiningParams) -> ColumnStatsConfig {
        ColumnStatsConfig {
            hist_bins: HIST_BINS,
            num_frags: params.num_frags,
        }
    }
}

/// Source of shared per-column statistics, injected into
/// [`prepare_apt_with`](crate::prepared::prepare_apt_with).
///
/// `column_stats` is consulted once per `(table, column)` a preparation
/// touches; returning `None` makes that column fall back to per-APT
/// computation. Implementations are expected to be cheap once a column
/// has been analysed ([`BaseTableStats`]' is a name lookup and a
/// pointer clone) and must be consistent for the lifetime of
/// one preparation — the same column must not answer with different
/// statistics mid-run.
pub trait ColumnStatsProvider: Sync {
    /// Shared statistics of base column `table.column`, or `None` to
    /// compute per-APT.
    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>>;

    /// The share of reads of the ask this provider serves, if it prepares
    /// several APTs of one query and planned one ([`ReadShare::plan`]):
    /// preparations then read a column another of them already read from
    /// there — and ask [`column_stats`](Self::column_stats) only for the
    /// columns they bin themselves. Whatever this returns must have been
    /// planned for the provenance table, the parameters and the question
    /// scope of every preparation the provider is handed to. The default
    /// shares nothing: every preparation reads for itself.
    fn read_share(&self) -> Option<&ReadShare> {
        None
    }
}

/// The pass-through provider: never shares, so every preparation computes
/// its statistics from the APT at hand — the historical (and one-shot
/// pipeline) behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSharedStats;

impl ColumnStatsProvider for NoSharedStats {
    fn column_stats(&self, _table: &str, _column: &str) -> Option<Arc<ColumnStats>> {
        None
    }
}

/// Resolves an APT field to the base `(table, column)` it reads, when
/// that column is shareable. PT fields are not: the provenance table is a
/// σ-filtered projection of the query's FROM tables, so statistics over
/// the full base column would describe rows the PT excludes.
pub fn source_column(apt: &Apt, field: usize) -> Option<(&str, &str)> {
    let f = &apt.fields[field];
    if f.from_pt {
        return None;
    }
    let rel = apt.graph.rel_of(f.node)?;
    Some((rel, f.base_column.as_str()))
}

/// Row cap for computing one column's shared statistics: columns longer
/// than this are read through a fixed stride. Quantile thresholds,
/// fragment boundaries, and category frequency caps are all estimates
/// feeding thresholded decisions, so ~512 evenly spaced rows (16 values
/// per bin at the default 32-bin budget, matching
/// [`cajade_ml::BinSpec::fit_f64`]'s own sampling rule) estimate them as
/// well as millions — and a column's first request stays O(cap) instead
/// of O(table), which is what keeps the first graph of a cold ask from
/// paying more than the per-APT computation it replaces.
pub const STATS_SAMPLE_CAP: usize = 512;

/// Computes the shared statistics of one base-table column (what a
/// [`ColumnStatsProvider`] that keeps them runs once per column).
///
/// Numeric-kind columns get quantile bin thresholds and fragment
/// boundaries over their non-null finite values; categorical-kind columns
/// get a frequency-capped category dictionary and no fragments. NULLs and
/// non-finite floats contribute to neither (they encode to the missing
/// bin downstream). Long columns are read through a stride
/// ([`STATS_SAMPLE_CAP`]), deterministically.
pub fn compute_column_stats(col: &Column, kind: AttrKind, cfg: &ColumnStatsConfig) -> ColumnStats {
    let step = if col.len() > STATS_SAMPLE_CAP {
        col.len().div_ceil(STATS_SAMPLE_CAP)
    } else {
        1
    };
    match kind {
        AttrKind::Numeric => {
            // Non-finite values are routed out by both consumers
            // (`fit_f64` and `quantile_boundaries`); no pre-filter here.
            let vals: Vec<f64> = (0..col.len())
                .step_by(step)
                .filter_map(|r| col.f64_at(r))
                .collect();
            ColumnStats {
                bins: BinSpec::fit_f64(&vals, cfg.hist_bins),
                fragments: quantile_boundaries(vals, cfg.num_frags),
            }
        }
        AttrKind::Categorical => {
            let mut bins = BinSpec::fit_keys(
                (0..col.len()).step_by(step).map(|r| column_cat_key(col, r)),
                cfg.hist_bins,
            );
            if step > 1 {
                // A strided fit can miss real categories; give them a
                // dedicated unknown bin instead of conflating them with
                // missing values at encode time.
                bins.reserve_unknown_bin();
            }
            ColumnStats {
                bins,
                fragments: Vec::new(),
            }
        }
    }
}

/// The dictionary key of one categorical cell, matching the encoding
/// featsel's column reads use: interned string id, raw integer, or float
/// bits.
fn column_cat_key(col: &Column, r: usize) -> Option<u64> {
    match col {
        Column::Int { data, nulls } => (!nulls.is_null(r)).then(|| data[r] as u64),
        Column::Float { data, nulls } => (!nulls.is_null(r)).then(|| data[r].to_bits()),
        Column::Str { data, nulls } => (!nulls.is_null(r)).then(|| data[r].0 as u64),
    }
}

/// Resolves `table.column` in `db` and computes its shared statistics,
/// memoizing nothing; `None` when the table or column does not exist.
/// What a [`ColumnStatsTable`] cell holds once filled.
pub fn base_column_stats(
    db: &Database,
    table: &str,
    column: &str,
    cfg: &ColumnStatsConfig,
) -> Option<ColumnStats> {
    let t = db.table(table).ok()?;
    let ci = t.schema().field_index(column)?;
    Some(compute_column_stats(
        t.column(ci),
        t.schema().fields[ci].kind,
        cfg,
    ))
}

/// The memo of base-column statistics: one once-initialised cell per
/// base column of a database, `[table][column]` in catalog order, empty
/// until a preparation first asks for the column. The first requester
/// fills a cell from the base table, under the `db.column_stats` alloc
/// scope, and bumps the table's counter; concurrent requesters of one
/// column wait for the one computing it, and every later graph, ask and
/// session takes a pointer clone. The service keeps one per registration
/// (its counter is `column_stats_computed_total`); [`BaseTableStats`]
/// reads one.
#[derive(Debug)]
pub struct ColumnStatsTable {
    cells: Vec<Vec<OnceLock<Arc<ColumnStats>>>>,
    cfg: ColumnStatsConfig,
    computed: Arc<Counter>,
}

impl ColumnStatsTable {
    /// Empty cells for every column of `db`, filled under `cfg`; each
    /// fill adds 1 to `computed`.
    pub fn new(db: &Database, cfg: ColumnStatsConfig, computed: Arc<Counter>) -> Self {
        let empty = |t: &cajade_storage::Table| (0..t.num_columns()).map(|_| OnceLock::new());
        ColumnStatsTable {
            cells: db.tables().iter().map(|t| empty(t).collect()).collect(),
            cfg,
            computed,
        }
    }

    /// Columns analysed so far.
    pub fn filled(&self) -> usize {
        let cells = self.cells.iter().flatten();
        cells.filter(|cell| cell.get().is_some()).count()
    }
}

/// The [`ColumnStatsProvider`] over one base [`Database`]: a lookup is a
/// name resolution and a pointer clone of the column's cell in a
/// [`ColumnStatsTable`], which it fills on the column's first request
/// ([`compute_column_stats`]). An unresolvable `(table, column)` answers
/// `None`.
pub struct BaseTableStats<'a> {
    db: &'a Database,
    table: Arc<ColumnStatsTable>,
}

impl<'a> BaseTableStats<'a> {
    /// Provider over `db` with the given stats config, over a fresh
    /// table of its own.
    pub fn new(db: &'a Database, cfg: ColumnStatsConfig) -> Self {
        let table = ColumnStatsTable::new(db, cfg, Arc::default());
        BaseTableStats::over(db, Arc::new(table))
    }

    /// Provider over `db` reading `table`, which must have been made
    /// over `db`'s catalog.
    pub fn over(db: &'a Database, table: Arc<ColumnStatsTable>) -> Self {
        BaseTableStats { db, table }
    }
}

impl ColumnStatsProvider for BaseTableStats<'_> {
    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
        let ti = self.db.table_index(table)?;
        let t = &self.db.tables()[ti];
        let ci = t.schema().field_index(column)?;
        let memo = &self.table;
        let stats = memo.cells.get(ti)?.get(ci)?.get_or_init(|| {
            // The table's owner retains them.
            let _mem = cajade_obs::AllocScope::enter("db.column_stats");
            memo.computed.inc();
            let kind = t.schema().fields[ci].kind;
            Arc::new(compute_column_stats(t.column(ci), kind, &memo.cfg))
        });
        Some(Arc::clone(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cajade_storage::{DataType, Value};

    fn float_col(vals: &[Option<f64>]) -> Column {
        let mut c = Column::new(DataType::Float);
        for v in vals {
            c.push(v.map(Value::Float).unwrap_or(Value::Null), "x")
                .unwrap();
        }
        c
    }

    #[test]
    fn numeric_stats_skip_nulls_and_non_finite() {
        let col = float_col(&[
            Some(1.0),
            None,
            Some(f64::NAN),
            Some(f64::INFINITY),
            Some(f64::NEG_INFINITY),
            Some(3.0),
            Some(2.0),
        ]);
        let cfg = ColumnStatsConfig {
            hist_bins: 8,
            num_frags: 3,
        };
        let stats = compute_column_stats(&col, AttrKind::Numeric, &cfg);
        assert_eq!(stats.fragments, vec![1.0, 2.0, 3.0]);
        match &stats.bins {
            BinSpec::Numeric { thresholds } => assert_eq!(thresholds, &[1.0, 2.0, 3.0]),
            _ => panic!("numeric spec"),
        }
    }

    #[test]
    fn categorical_stats_have_no_fragments() {
        let mut col = Column::new(DataType::Int);
        for v in [1i64, 2, 2, 3] {
            col.push(Value::Int(v), "x").unwrap();
        }
        let cfg = ColumnStatsConfig {
            hist_bins: 8,
            num_frags: 3,
        };
        let stats = compute_column_stats(&col, AttrKind::Categorical, &cfg);
        assert!(stats.fragments.is_empty());
        assert_eq!(stats.bins.num_bins(), 3);
    }

    /// A strided categorical fit can miss real categories; they must
    /// encode to a dedicated unknown bin, not the missing bin.
    #[test]
    fn sampled_categorical_fit_reserves_unknown_bin() {
        use cajade_ml::BinSpec;
        let mut col = Column::new(DataType::Int);
        // Long column whose rare category (value 7, one row) is certain
        // to be skipped by the stride; the bin budget is NOT exceeded,
        // so without the reservation there would be no "other" bin.
        for i in 0..3000i64 {
            col.push(Value::Int(if i == 1 { 7 } else { i % 3 }), "x")
                .unwrap();
        }
        let cfg = ColumnStatsConfig {
            hist_bins: 8,
            num_frags: 3,
        };
        let stats = compute_column_stats(&col, AttrKind::Categorical, &cfg);
        let (split_values, has_other) = match &stats.bins {
            BinSpec::Categorical {
                split_values,
                has_other,
                ..
            } => (*split_values, *has_other),
            _ => panic!("categorical spec"),
        };
        assert!(has_other, "sampled fit must reserve an unknown bin");
        // Encoding the unseen key routes to the reserved bin — distinct
        // from the missing bin.
        let encoded = stats.bins.encode_keys([Some(7u64), None]);
        assert_eq!(encoded.code(0), split_values);
        assert!(!encoded.is_missing(0));
        assert!(encoded.is_missing(1));
    }

    #[test]
    fn base_table_stats_memoizes_and_resolves() {
        let mut db = cajade_storage::Database::new("b");
        db.create_table(
            cajade_storage::SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("x", DataType::Float, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        for i in 0..5i64 {
            db.table_mut("t")
                .unwrap()
                .push_row(vec![Value::Int(i), Value::Float(i as f64)])
                .unwrap();
        }
        let cfg = ColumnStatsConfig {
            hist_bins: 8,
            num_frags: 3,
        };
        let provider = BaseTableStats::new(&db, cfg);
        let a = provider.column_stats("t", "x").unwrap();
        let b = provider.column_stats("t", "x").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request served from the memo");
        assert!(provider.column_stats("t", "nope").is_none());
        assert!(provider.column_stats("nope", "x").is_none());
    }
}
