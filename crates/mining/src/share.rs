//! One ask's share of reads: what the preparations of a multi-graph ask
//! derive from the same rows of the same columns, computed once.
//!
//! The graphs of one enumeration are each other's prefixes, and an APT
//! column is a view — a base column read through a row-id vector
//! ([`cajade_graph::AptColumn`]) — whose vectors the join kernel shares
//! between graphs wherever a step read the same inputs. So "this
//! preparation needs what that one already derived" is a comparison of
//! addresses, on two levels:
//!
//! * per **`pt_row` vector** ([`Apt::pt_row`]): the λ_F1 sample and the
//!   scan order over it, the all-rows scan order, and `filterAttrs`'
//!   training rows with their per-task labels — everything
//!   [`prepare`](crate::prepared::prepare) computes from which provenance
//!   row an APT row extends and from nothing else;
//! * beneath it, per **`(base column, row-id vector)`**: the training
//!   gather of one candidate column, its dictionary and its binned codes
//!   (`featsel::TrainColumn`).
//!
//! Nothing is keyed by a name or by content. Two APTs that merely hold
//! *equal* vectors miss each other, which costs what a preparation cost
//! before there was a share; two that hold the *same* vector cannot
//! differ, so a hit is the very value a miss would have computed, bit for
//! bit. An entry keeps a handle on the vectors and columns whose addresses
//! are in its key, so an address means one thing for as long as the share
//! knows it.
//!
//! # Lifetime
//!
//! A share is **planned** over the APTs about to be prepared
//! ([`ReadShare::plan`]): one pass counts the readers of every key. A key
//! with one reader is dropped from the plan there and then — its reader
//! computes into its own memory, as without a share — and a shared entry
//! is let go of when its last planned reader has taken it. (On NBA most
//! fan-out graphs have a `pt_row` vector of their own; retaining their
//! training columns for nobody would double the ask's resident bytes.) A
//! reader that never arrives — its preparation was cached by a concurrent
//! ask, hit a budget, panicked — only delays the release to the share's own
//! drop, which is the end of the ask's preparation stage.
//!
//! A share serves **one** provenance table, one [`MiningParams`] and one
//! question scope: everything it holds was derived under them. The
//! pipeline's per-graph loop (`cajade_core::pipeline::materialize_and_mine`,
//! a library `explain` and a service ask alike) makes one per call and
//! hands it to `prepare` inside the column-statistics provider
//! ([`ColumnStatsProvider::read_share`]).
//!
//! A value is computed inside its entry's cell by the first reader to
//! need it; readers of the same entry wait for that reader, others proceed.
//! A computation that panics leaves the cell empty, and the next reader
//! computes. Gather and encode are not budget-checked, so a cell is never
//! filled with a truncated value.
//!
//! [`MiningParams`]: crate::miner::MiningParams
//! [`ColumnStatsProvider::read_share`]: crate::stats::ColumnStatsProvider::read_share

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use cajade_graph::{Apt, AptColumn, RowIds};
use cajade_storage::Column;

use crate::engine::ScoreIndex;
use crate::featsel::{TrainColumn, Training};

/// A planned entry and how many of its planned readers have yet to take it.
struct Planned<T> {
    readers_left: usize,
    entry: T,
}

/// Takes `key`'s entry for one reader; the last planned reader takes it
/// out of the plan.
fn take<K: std::hash::Hash + Eq, T: Clone>(
    plan: &Mutex<HashMap<K, Planned<T>>>,
    key: &K,
) -> Option<T> {
    // A plan is only counted down and removed from: valid at every step.
    let mut plan = plan.lock().unwrap_or_else(PoisonError::into_inner);
    let planned = plan.get_mut(key)?;
    planned.readers_left -= 1;
    if planned.readers_left == 0 {
        return plan.remove(key).map(|p| p.entry);
    }
    Some(planned.entry.clone())
}

/// One training column's cell, with the handles that pin its key.
struct ColumnCell {
    column: OnceLock<Arc<TrainColumn>>,
    _base: Arc<Column>,
    _rows: RowIds,
}

/// A scope's planned columns, by `(base column address, row-id vector
/// address)`.
type PlannedColumns = HashMap<(usize, usize), Planned<Arc<ColumnCell>>>;

/// Everything shared by the APTs over one `pt_row` vector.
pub(crate) struct RowScope {
    /// Pins the address the scope is keyed by.
    _pt_row: RowIds,
    /// The λ_F1 scan (all rows at λ_F1 ≥ 1), no column encoded.
    pub sample_scan: OnceLock<ScoreIndex>,
    /// The all-rows scan of the exact re-score, no column encoded.
    pub exact_scan: OnceLock<ScoreIndex>,
    pub training: OnceLock<Arc<Training>>,
    columns: Mutex<PlannedColumns>,
}

impl RowScope {
    /// The planned columns of a scope no reader has yet.
    fn columns_mut(&mut self) -> &mut PlannedColumns {
        // Exclusive access: no lock is taken, and none was ever held.
        let columns = self.columns.get_mut();
        columns.unwrap_or_else(PoisonError::into_inner)
    }
}

fn column_key(col: &AptColumn) -> (usize, usize) {
    (Arc::as_ptr(col.base()) as usize, col.rows().addr())
}

/// One ask's share of reads (module docs).
pub struct ReadShare {
    /// By `pt_row` vector address.
    scopes: Mutex<HashMap<usize, Planned<Arc<RowScope>>>>,
    column_reads: AtomicU64,
    column_reads_computed: AtomicU64,
}

impl ReadShare {
    /// A share for the preparations of `apts` — views over one provenance
    /// table, each about to be prepared once, all with the same parameters
    /// in the same question scope. Preparing an APT that is not among them
    /// through the share is safe and shares nothing.
    pub fn plan<'a>(apts: impl IntoIterator<Item = &'a Apt>) -> ReadShare {
        let apts: Vec<&Apt> = apts.into_iter().collect();
        let mut scopes: HashMap<usize, Planned<RowScope>> = HashMap::new();
        for apt in &apts {
            let scope = scopes.entry(apt.pt_row.addr()).or_insert_with(|| Planned {
                readers_left: 0,
                entry: RowScope {
                    _pt_row: apt.pt_row.clone(),
                    sample_scan: OnceLock::new(),
                    exact_scan: OnceLock::new(),
                    training: OnceLock::new(),
                    columns: Mutex::default(),
                },
            });
            scope.readers_left += 1;
        }
        // An APT alone on its `pt_row` vector shares no column either:
        // columns are counted beneath the scopes that stay.
        scopes.retain(|_, scope| scope.readers_left > 1);
        for apt in &apts {
            let Some(scope) = scopes.get_mut(&apt.pt_row.addr()) else {
                continue;
            };
            let columns = scope.entry.columns_mut();
            for f in apt.pattern_fields() {
                let col = &apt.columns[f];
                let column = columns.entry(column_key(col)).or_insert_with(|| Planned {
                    readers_left: 0,
                    entry: Arc::new(ColumnCell {
                        column: OnceLock::new(),
                        _base: Arc::clone(col.base()),
                        _rows: col.rows().clone(),
                    }),
                });
                column.readers_left += 1;
            }
        }
        let shared = |(addr, mut scope): (usize, Planned<RowScope>)| {
            let columns = scope.entry.columns_mut();
            columns.retain(|_, column| column.readers_left > 1);
            let (readers_left, entry) = (scope.readers_left, Arc::new(scope.entry));
            let scope = Planned {
                readers_left,
                entry,
            };
            (addr, scope)
        };
        ReadShare {
            scopes: Mutex::new(scopes.into_iter().map(shared).collect()),
            column_reads: AtomicU64::new(0),
            column_reads_computed: AtomicU64::new(0),
        }
    }

    /// `(reads, computed)`: the candidate columns the preparations read
    /// through this share so far, and how many of those reads gathered the
    /// column — the others took a gather an earlier reader had left.
    pub fn column_reads(&self) -> (u64, u64) {
        (
            self.column_reads.load(Ordering::Relaxed),
            self.column_reads_computed.load(Ordering::Relaxed),
        )
    }
}

/// One preparation's handle on the share of its ask — or on none: every
/// method then computes what it is asked for, as its first reader would.
pub(crate) struct Reader<'a> {
    share: Option<&'a ReadShare>,
    scope: Option<Arc<RowScope>>,
}

impl<'a> Reader<'a> {
    /// The preparation of `apt` as one reader of `share`: takes the APT's
    /// `pt_row` scope, if it is planned and still has a reader to come.
    pub(crate) fn new(share: Option<&'a ReadShare>, apt: &Apt) -> Self {
        Reader {
            share,
            scope: share.and_then(|share| take(&share.scopes, &apt.pt_row.addr())),
        }
    }

    /// One of the scope's scans, re-labelled for `apt`; `build` without a
    /// scope, or as its first reader.
    pub(crate) fn scan(
        &self,
        apt: &Apt,
        cell: impl FnOnce(&RowScope) -> &OnceLock<ScoreIndex>,
        build: impl FnOnce() -> ScoreIndex,
    ) -> ScoreIndex {
        match &self.scope {
            Some(scope) => cell(scope).get_or_init(build).scan_of(apt),
            None => build(),
        }
    }

    /// The scope's training set; `build` without a scope, or as its first
    /// reader.
    pub(crate) fn training(&self, build: impl FnOnce() -> Training) -> Arc<Training> {
        match &self.scope {
            Some(scope) => Arc::clone(scope.training.get_or_init(|| Arc::new(build()))),
            None => Arc::new(build()),
        }
    }

    /// The training column of `col`: the scope's when the column is
    /// planned under it, `gather`ed otherwise — and by the first reader of
    /// a planned one.
    pub(crate) fn column(
        &self,
        col: &AptColumn,
        gather: impl FnOnce() -> TrainColumn,
    ) -> Arc<TrainColumn> {
        if let Some(share) = self.share {
            share.column_reads.fetch_add(1, Ordering::Relaxed);
        }
        let gather = || {
            if let Some(share) = self.share {
                share.column_reads_computed.fetch_add(1, Ordering::Relaxed);
            }
            Arc::new(gather())
        };
        let planned = self.scope.as_ref();
        match planned.and_then(|scope| take(&scope.columns, &column_key(col))) {
            Some(cell) => Arc::clone(cell.column.get_or_init(gather)),
            None => gather(),
        }
    }
}
