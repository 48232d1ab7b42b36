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
//! * the `|num_fields| × λ#frag × 2` refinement predicate bitmaps.
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

use cajade_graph::Apt;
use cajade_ml::sampling::sample_with_cap;
use cajade_obs::Stage;
use cajade_query::ProvenanceTable;

use crate::engine::{Mask, PredBank, ScoreIndex};
use crate::fd::group_determining_fields;
use crate::featsel::FeatureSelection;
use crate::fragments::fragment_boundaries;
use crate::miner::{
    lca_pool, mine_core, run_featsel, sample_and_scan, MiningOutcome, MiningParams, MiningTimings,
};
use crate::pattern::Pattern;
use crate::score::Question;
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
    /// Approximate heap footprint for cache byte budgeting.
    pub fn approx_bytes(&self) -> usize {
        self.index.approx_bytes()
            + self.exact.as_ref().map_or(0, ScoreIndex::approx_bytes)
            + self.bank.approx_bytes()
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
    cajade_obs::faults::failpoint_infallible("mine.prepare");
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
    let pool: Vec<(Pattern, Mask)> = if stop_before_phase(&mut timings, &mut truncated) {
        Vec::new()
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
        prep_timings: timings,
        truncated,
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
    let (explanations, patterns_evaluated) =
        mine_core(prepared, apt, question, params, &mut timings);
    MiningOutcome {
        explanations,
        timings,
        patterns_evaluated,
    }
}
