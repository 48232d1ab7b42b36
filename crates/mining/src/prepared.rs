//! Algorithm 1's preparation — everything that happens before a question
//! is scored — and the per-question half that runs on it.
//!
//! [`prepare`] is the one implementation of the preparation phases:
//!
//! * the λ_F1 row sample (seeded RNG) and the scan order of the
//!   [`ScoreIndex`] over it,
//! * `filterAttrs` on that order (+ the ban list and, when enabled, FD
//!   exclusion),
//! * the index's columns — the selected fields only, the ones a pattern
//!   can name — over the sample and, for the exact re-score of the
//!   winners, over all rows,
//! * the LCA candidate pool and each candidate's match bitmap,
//! * numeric fragment boundaries (computed over all APT rows),
//! * the `|num_fields| × λ#frag × 2` refinement predicate bitmaps,
//! * and, empty, their all-rows twins ([`ExactMasks`]): the exact
//!   re-score of the winners fills them as it needs them.
//!
//! It runs in one of two scopes. With `Some(question)` — what
//! [`mine_apt`](crate::miner::mine_apt), and so the library's one-shot
//! `explain`, passes — feature selection, FD exclusion and the λ_pat
//! sample see the questioned tuples' provenance only, as in the paper's
//! §3.1. With `None` ([`prepare_apt`] / [`prepare_apt_with`], the
//! service) they see every output group, so the [`PreparedApt`] depends
//! only on the APT and the parameters: the service caches it next to the
//! materialized APT (§2.4 interactive usage) and a **new** question on a
//! warm APT goes straight to [`mine_prepared`] — recall ranking + the
//! refinement BFS on the bitmap kernel — with [`MiningTimings`] reporting
//! the skipped phases as zero. The scopes mine different explanations;
//! `docs/ARCHITECTURE.md` ("Two scopes, one body") has the measured gap,
//! `paper scope` regenerates it, and
//! `crates/bench/tests/explain_golden.rs` pins both.

use std::fmt;
use std::sync::OnceLock;

use cajade_graph::Apt;
use cajade_ml::sampling::sample_with_cap;
use cajade_obs::faults::{self, Site};
use cajade_obs::{ScopeHandle, Stage};
use cajade_query::ProvenanceTable;

use crate::engine::{Mask, PredBank, ScoreIndex};
use crate::fd::group_determining_fields;
use crate::featsel::FeatureSelection;
use crate::fragments::fragment_boundaries;
use crate::miner::{
    lca_pool, mine_core, run_featsel, sample_and_scan, FieldPred, MiningOutcome, MiningParams,
    MiningTimings,
};
use crate::pattern::{PatValue, Pattern, Pred, PredOp};
use crate::score::{PatternMetrics, Question};
use crate::share::Reader;
use crate::stats::{source_column, ColumnStatsProvider, NoSharedStats};

/// What [`prepare`] leaves for [`mine_prepared`]: with no question given,
/// everything about one `(APT, MiningParams)` pair that is independent of
/// the user question. Owns its data (no borrows of the APT), so it can be
/// cached behind `Arc` alongside the materialized APT.
#[derive(Debug, Clone)]
pub struct PreparedApt {
    /// Feature selection in the preparation's scope (ban list and FD
    /// exclusion already applied).
    pub fs: FeatureSelection,
    /// Columnar index over the λ_F1 sample (every row when sampling is
    /// off), encoding the fields of `fs`.
    pub index: ScoreIndex,
    /// The same fields over all APT rows, for the exact re-score of the
    /// selected top-k; `None` when `index` already scans every row.
    pub exact: Option<ScoreIndex>,
    /// LCA candidate pool with each candidate's precomputed match bitmap
    /// (unranked; ranking is per-question).
    pub pool: Vec<(Pattern, Mask)>,
    /// Fragment boundaries per selected numeric field.
    pub frag: Vec<(usize, Vec<f64>)>,
    /// Refinement predicate bitmaps aligned with `frag`.
    pub bank: PredBank,
    /// The all-rows twins of the pool's and the bank's predicate masks,
    /// over `exact`, each filled by the first re-score that reads it.
    pub exact_masks: ExactMasks,
    /// Wall-clock of the preparation phases (attributed to the ask that
    /// computed them; cache hits report zero).
    pub prep_timings: MiningTimings,
    /// True when a request budget expired mid-preparation and later
    /// phases were skipped (empty pool/fragments). A truncated
    /// preparation is still safe to mine — it just finds fewer (or no)
    /// patterns — but it must **not** be cached for future requests.
    pub truncated: bool,
}

impl PreparedApt {
    /// Approximate heap footprint for cache byte budgeting, with the
    /// [`ExactMasks`] filled so far: the footprint when the preparation was
    /// made, plus [`ExactMasks::filled_bytes`], which grows with every
    /// fill since.
    pub fn approx_bytes(&self) -> usize {
        self.index.approx_bytes()
            + self.exact.as_ref().map_or(0, ScoreIndex::approx_bytes)
            + self.bank.approx_bytes()
            + self.exact_masks.approx_bytes()
            + self
                .pool
                .iter()
                .map(|(p, m)| p.len() * 24 + m.approx_bytes())
                .sum::<usize>()
            + self
                .frag
                .iter()
                .map(|(_, b)| 16 + b.len() * 8)
                .sum::<usize>()
            + self.fs.relevance.len() * 8
            + 256
    }
}

/// Runs every question-independent phase of Algorithm 1 for one APT,
/// computing all column statistics from the APT at hand (the
/// [`NoSharedStats`] pass-through). Multi-graph callers that can share
/// per-column work should use [`prepare_apt_with`].
pub fn prepare_apt(apt: &Apt, pt: &ProvenanceTable, params: &MiningParams) -> PreparedApt {
    prepare_apt_with(apt, pt, params, &NoSharedStats)
}

/// Runs every question-independent phase of Algorithm 1 for one APT,
/// consulting `stats` for shareable per-column statistics.
///
/// Two phases ask the provider, keyed by the base `(table, column)` a
/// context field reads (PT fields never share — see
/// [`source_column`]):
///
/// * histogram feature selection encodes candidate columns through the
///   provider's pre-fitted bin specs instead of re-fitting per APT;
/// * the fragment stage takes the provider's λ#frag boundaries instead
///   of re-sorting the column's APT rows.
///
/// With a caching provider (the service's database-scoped column-stats
/// cache) the same context column is analyzed **once per database epoch**
/// no matter how many join graphs contain it; every later graph's
/// preparation does linear encodes only.
pub fn prepare_apt_with(
    apt: &Apt,
    pt: &ProvenanceTable,
    params: &MiningParams,
    stats: &dyn ColumnStatsProvider,
) -> PreparedApt {
    prepare(apt, pt, params, stats, None)
}

/// The preparation phases of Algorithm 1 for one APT, in the scope of
/// `question` (module docs): `Some` restricts feature selection, FD
/// exclusion and the λ_pat sample to the question's rows, `None` prepares
/// for every question at once.
pub fn prepare(
    apt: &Apt,
    pt: &ProvenanceTable,
    params: &MiningParams,
    stats: &dyn ColumnStatsProvider,
    question: Option<&Question>,
) -> PreparedApt {
    faults::failpoint_infallible(Site::MinePrepare);
    let mut timings = MiningTimings::default();
    // Budget checks sit at the phase boundaries below: a phase either
    // runs to completion or is skipped whole (empty feature selection /
    // candidate pool / fragment list), so a truncated preparation is
    // always internally consistent — it just mines fewer patterns.
    let mut truncated = false;
    let stop_before_phase = |timings: &mut MiningTimings, truncated: &mut bool| -> bool {
        if !*truncated && cajade_obs::budget::stop("prepare") {
            *truncated = true;
            timings.budget_stopped += 1;
        }
        *truncated
    };

    // This preparation as a reader of its ask's share, if the provider has
    // one: what depends on `apt.pt_row` alone — the scans here, the
    // training set in `filterAttrs` — and the candidate columns' training
    // gathers, another graph of the ask may have left there.
    let reader = Reader::new(stats.read_share(), apt);

    // ---- λ_F1 sample + scan order. ---------------------------------------
    // Fixed *before* feature selection, which trains on the index's
    // `(group, PT row)` scan order.
    let index = sample_and_scan(apt, pt, params, &mut timings, &reader);

    // ---- Feature selection, then FD exclusion in the same scope. -------
    let stage = Stage::detail("feature_selection");
    let fs = if stop_before_phase(&mut timings, &mut truncated) {
        FeatureSelection::empty(apt)
    } else {
        let mut fs = run_featsel(apt, pt, params, &index, question, stats, &reader);
        if params.exclude_fd_attrs {
            let fd = group_determining_fields(apt, pt, question);
            fs.num_fields.retain(|f| !fd.contains(f));
            fs.cat_fields.retain(|f| !fd.contains(f));
        }
        fs
    };
    timings.feature_selection = stage.finish();

    // ---- Encode the selected fields. ------------------------------------
    // LCA candidates constrain `cat_fields`, refinements `num_fields`: no
    // pattern names any other, so no other column is copied — once in the
    // sample's scan order and, unless that is every row already, once over
    // all rows for the exact re-score.
    let stage = Stage::detail("score_index");
    let selected: Vec<usize> = fs
        .num_fields
        .iter()
        .chain(&fs.cat_fields)
        .copied()
        .collect();
    let exact = (index.scan_size() != apt.num_rows).then(|| {
        let all_rows = reader.scan(apt, |s| &s.exact_scan, || ScoreIndex::exact(apt, pt));
        all_rows.encode(apt, &selected)
    });
    let index = index.encode(apt, &selected);
    timings.prepare += stage.finish();

    // ---- LCA pool over a λ_pat sample of the scope's rows. -------------
    // Out-of-scope candidates of a question-independent pool simply rank
    // last on recall and fall out of the top-k_cat cut.
    let stage = Stage::detail("gen_pat_cand");
    let (pool, eq_preds) = if stop_before_phase(&mut timings, &mut truncated) {
        (Vec::new(), Vec::new())
    } else {
        // `None`: every row, addressed by position — nothing materialized.
        let scope_rows: Option<Vec<u32>> = question.map(|q| {
            let group_of = |r: &u32| pt.group_of[apt.pt_row[*r as usize] as usize] as usize;
            let rows = (0..apt.num_rows as u32).filter(|r| q.in_scope(group_of(r)));
            rows.collect()
        });
        let lca_rows: Vec<u32> = sample_with_cap(
            scope_rows.as_ref().map_or(apt.num_rows, Vec::len),
            params.lambda_pat_samp,
            params.pat_samp_cap,
            params.seed.wrapping_add(1),
        )
        .into_iter()
        .map(|i| scope_rows.as_ref().map_or(i as u32, |rows| rows[i]))
        .collect();
        lca_pool(apt, &index, &lca_rows, &fs.cat_fields, params)
    };
    timings.gen_pat_cand = stage.finish();

    // ---- Fragment boundaries + refinement predicate bitmaps. ------------
    // Shared boundaries (when the provider has the field's base column)
    // come from one base-table quantile pass per database epoch; the
    // fallback re-derives them from this APT's rows.
    let stage = Stage::detail("fragments");
    let frag: Vec<(usize, Vec<f64>)> = if stop_before_phase(&mut timings, &mut truncated) {
        Vec::new()
    } else {
        fs.num_fields
            .iter()
            .map(|&f| {
                let shared = source_column(apt, f).and_then(|(t, c)| stats.column_stats(t, c));
                let boundaries = match shared {
                    Some(st) => st.fragments.clone(),
                    None => fragment_boundaries(apt, f, params.num_frags),
                };
                (f, boundaries)
            })
            .collect()
    };
    let bank = PredBank::build(&index, &frag);
    let exact_masks = match exact {
        Some(_) => ExactMasks::new(eq_preds, &frag),
        None => ExactMasks::default(),
    };
    timings.prepare += stage.finish();

    // Conservative cache guard: if the budget expired at *any* point
    // during preparation (including inside feature-selection's
    // between-task stop, which this function can't observe directly),
    // the result may differ from an unbudgeted preparation and must not
    // be cached. Expiry is monotone, so checking once here suffices.
    truncated = truncated || cajade_obs::budget::expired();

    PreparedApt {
        fs,
        index,
        exact,
        pool,
        frag,
        bank,
        exact_masks,
        prep_timings: timings,
        truncated,
    }
}

/// The all-rows twin of the masks a preparation keeps for the sample: one
/// write-once slot per predicate a pattern mined on it can hold — `≤` and
/// `≥` per fragment boundary, aligned with [`PreparedApt::frag`] as the
/// [`PredBank`] is, and one per distinct equality predicate of the pool.
/// The exact re-score of the winners ANDs slot masks; the first re-score
/// that reads an empty slot fills it with what [`ScoreIndex::eval_pred`]
/// gives on [`PreparedApt::exact`]. That is a pure function of the
/// preparation, which never changes, so whoever reads a slot reads the
/// same mask, and a preparation answers a question the same before and
/// after its slots are filled. Empty when `exact` is `None`: the sample's
/// metrics are exact then.
#[derive(Clone, Default)]
pub struct ExactMasks {
    /// `[≤, ≥]` per boundary of `frag`, field after field.
    thresholds: Vec<[OnceLock<Mask>; 2]>,
    /// The pool's distinct equality predicates, sorted, each with its slot.
    eq: Vec<(FieldPred, OnceLock<Mask>)>,
    /// The allocation scopes the preparation was made under: what holds
    /// the preparation holds the fills too, and the heap ledger counts
    /// them there.
    scope: ScopeHandle,
}

/// What the exact re-score of one mining call did with the [`ExactMasks`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactMaskWork {
    /// Slots read: one per predicate of every re-scored winner.
    pub reads: u64,
    /// Of those, the slots this call filled; [`ExactMasks::filled_bytes`]
    /// is what the filled slots weigh.
    pub computed: u64,
}

impl ExactMasks {
    /// Empty slots for `eq_preds` — the pool's distinct equality
    /// predicates — and `frag`'s thresholds.
    fn new(eq_preds: Vec<FieldPred>, frag: &[(usize, Vec<f64>)]) -> ExactMasks {
        let mut eq: Vec<_> = (eq_preds.into_iter())
            .map(|key| (key, OnceLock::new()))
            .collect();
        eq.sort_unstable_by_key(|(key, _)| *key);
        let boundaries = frag.iter().map(|(_, b)| b.len()).sum();
        ExactMasks {
            thresholds: (0..boundaries).map(|_| Default::default()).collect(),
            eq,
            scope: cajade_obs::alloc::current_scope(),
        }
    }

    /// Definition-7 metrics of `pattern` over every row of `exact`, in
    /// direction `direction` of `question` (an index into
    /// [`Question::directions`]): the AND of its predicates' slot masks,
    /// filling the empty ones, scored by [`ScoreIndex::score_question`]. A
    /// slot is filled on the calling thread; a fill that panics leaves its
    /// slot empty for the next reader.
    pub(crate) fn rescore(
        &self,
        exact: &ScoreIndex,
        frag: &[(usize, Vec<f64>)],
        pattern: &Pattern,
        question: &Question,
        direction: usize,
        work: &mut ExactMaskWork,
    ) -> PatternMetrics {
        let mut mask = exact.full_mask();
        for (field, pred) in pattern.preds() {
            work.reads += 1;
            let slot = self.slot(exact, frag, *field, pred).get_or_init(|| {
                let filled = self.scope.install(|| exact.eval_pred(*field, pred));
                work.computed += 1;
                filled
            });
            mask.and_assign(slot);
        }
        exact.score_question(&mask, question)[direction]
            .unwrap_or_else(|| panic!("{question:?} has no direction {direction}"))
    }

    /// The slot of `pred` on `field`. A predicate without one is not one a
    /// pattern mined on this preparation can hold: a bug upstream, which
    /// panics with the field's name.
    fn slot(
        &self,
        exact: &ScoreIndex,
        frag: &[(usize, Vec<f64>)],
        field: usize,
        pred: &Pred,
    ) -> &OnceLock<Mask> {
        let slot = match pred.op {
            PredOp::Eq => (self
                .eq
                .binary_search_by_key(&(field, *pred), |(key, _)| *key))
            .ok()
            .map(|i| &self.eq[i].1),
            PredOp::Le | PredOp::Ge => {
                // Where `field`'s boundaries start among the thresholds.
                let mut first = 0;
                frag.iter().find_map(|(f, boundaries)| {
                    if *f != field {
                        first += boundaries.len();
                        return None;
                    }
                    let value = |c: &f64| PatValue::Float(c.to_bits()) == pred.value;
                    let b = boundaries.iter().position(value)?;
                    Some(&self.thresholds[first + b][usize::from(pred.op == PredOp::Ge)])
                })
            }
        };
        slot.unwrap_or_else(|| {
            panic!(
                "ExactMasks: no slot for {pred:?} on field {field} (`{}`)",
                exact.field_name(field)
            )
        })
    }

    fn slots(&self) -> impl Iterator<Item = &OnceLock<Mask>> {
        (self.thresholds.iter().flatten()).chain(self.eq.iter().map(|(_, slot)| slot))
    }

    /// Heap bytes of the masks filled so far.
    pub fn filled_bytes(&self) -> usize {
        self.slots()
            .filter_map(OnceLock::get)
            .map(Mask::approx_bytes)
            .sum()
    }

    /// Approximate heap bytes: the slots and the masks filled so far.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.thresholds.len() * std::mem::size_of::<[OnceLock<Mask>; 2]>()
            + self.eq.len() * std::mem::size_of::<(FieldPred, OnceLock<Mask>)>()
            + self.filled_bytes()
    }
}

/// The scope chain is left out: it names ledgers, not contents.
impl fmt::Debug for ExactMasks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExactMasks")
            .field("thresholds", &self.thresholds)
            .field("eq", &self.eq)
            .finish_non_exhaustive()
    }
}

/// Runs the per-question half of Algorithm 1 on a [`PreparedApt`].
///
/// The returned [`MiningTimings`] cover only the work done *for this
/// question* — feature-selection / candidate-generation / fragment /
/// prepare phases are zero (the caller adds
/// [`PreparedApt::prep_timings`] on the ask that actually computed the
/// preparation).
pub fn mine_prepared(
    prepared: &PreparedApt,
    apt: &Apt,
    pt: &ProvenanceTable,
    question: &Question,
    params: &MiningParams,
) -> MiningOutcome {
    debug_assert!(
        question.directions().iter().all(|&(g, _)| {
            prepared.index.group_size(g) == pt.rows_of_group.get(g).map_or(0, Vec::len)
        }),
        "the preparation was made over another provenance table"
    );
    let mut timings = MiningTimings::default();
    let mut exact_masks = ExactMaskWork::default();
    let (explanations, patterns_evaluated) = mine_core(
        prepared,
        apt,
        question,
        params,
        &mut timings,
        &mut exact_masks,
    );
    MiningOutcome {
        explanations,
        timings,
        patterns_evaluated,
        exact_masks,
    }
}
