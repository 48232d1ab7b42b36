//! Question-independent APT preparation (§2.4 interactive usage).
//!
//! In an interactive session the user asks a *sequence* of questions over
//! one query. Most of Algorithm 1's work per APT does not actually depend
//! on the question:
//!
//! * the λ_F1 row sample and its columnar [`ScoreIndex`] (seeded RNG),
//! * numeric fragment boundaries (computed over all APT rows),
//! * the `|num_fields| × λ#frag × 2` refinement predicate bitmaps,
//! * the LCA candidate pool and each candidate's match bitmap,
//! * feature selection — once it is formulated group-globally
//!   ([`select_features_hist_global`](crate::featsel::select_features_hist_global))
//!   instead of per `(t1, t2)` pair.
//!
//! [`prepare_apt`] hoists all of that into a [`PreparedApt`] that the
//! service caches next to the materialized APT, so a **new** question on a
//! warm APT skips the feature-selection / candidate-generation / fragment
//! phases entirely and goes straight to recall ranking + the refinement
//! BFS — both running on the bitmap kernel. Only the per-question scoring
//! runs per ask, and [`MiningTimings`] reports the skipped phases as zero.
//!
//! Deliberate deviations from the per-question
//! [`mine_apt`](crate::miner::mine_apt) flow make
//! this possible (all deterministic, all documented here because they
//! can change which explanations are mined relative to the one-shot
//! path): feature selection is group-global, and the LCA pool is sampled
//! from **all** APT rows rather than the two-point question's scope —
//! out-of-scope candidates simply rank last on recall and fall out of the
//! top-k_cat cut.

use std::time::Instant;

use cajade_graph::Apt;
use cajade_ml::sampling::sample_with_cap;
use cajade_obs::Stage;
use cajade_query::ProvenanceTable;

use crate::engine::{Mask, PredBank, ScoreIndex};
use crate::featsel::FeatureSelection;
use crate::fragments::fragment_boundaries;
use crate::miner::{
    lca_pool, mine_core, run_featsel, sample_and_index, MiningOutcome, MiningParams, MiningTimings,
};
use crate::pattern::Pattern;
use crate::score::Question;
use crate::stats::{source_column, ColumnStatsProvider, NoSharedStats};

/// Everything about one `(APT, MiningParams)` pair that is independent of
/// the user question. Owns its data (no borrows of the APT), so it can be
/// cached behind `Arc` alongside the materialized APT.
#[derive(Debug, Clone)]
pub struct PreparedApt {
    /// Group-global feature selection (ban list already applied).
    pub fs: FeatureSelection,
    /// Columnar index over the λ_F1 sample (exact when sampling is off).
    pub index: ScoreIndex,
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
/// context field gathers (PT fields never share — see
/// [`source_column`]):
///
/// * histogram feature selection encodes candidate columns through the
///   provider's pre-fitted bin specs instead of re-fitting per APT;
/// * the fragment stage takes the provider's λ#frag boundaries instead
///   of re-sorting the column's APT gather.
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

    // ---- λ_F1 sample + columnar index. ---------------------------------
    // Built *before* feature selection, which trains on the index's
    // `(group, PT row)` scan order.
    let index = sample_and_index(apt, pt, params, &mut timings);

    // ---- Feature selection (group-global, cacheable). ------------------
    let stage = Stage::detail("feature_selection");
    let fs = if stop_before_phase(&mut timings, &mut truncated) {
        FeatureSelection {
            num_fields: Vec::new(),
            cat_fields: Vec::new(),
            clusters: Vec::new(),
            relevance: vec![0.0; apt.fields.len()],
        }
    } else {
        run_featsel(apt, pt, params, &index, None, stats)
    };
    timings.feature_selection = stage.finish();

    // ---- LCA pool over an all-rows λ_pat sample, with match bitmaps. ----
    let stage = Stage::detail("gen_pat_cand");
    let pool: Vec<(Pattern, Mask)> = if stop_before_phase(&mut timings, &mut truncated) {
        Vec::new()
    } else {
        let lca_rows: Vec<u32> = sample_with_cap(
            apt.num_rows,
            params.lambda_pat_samp,
            params.pat_samp_cap,
            params.seed.wrapping_add(1),
        )
        .into_iter()
        .map(|i| i as u32)
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
                    None => fragment_boundaries(apt, f, None, params.num_frags),
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
    let mut timings = MiningTimings::default();

    // FD exclusion is inherently question-specific (which attributes
    // restate *these* groups); when enabled it runs per ask against the
    // prepared selection.
    /// Fragment list + bitmap bank rebuilt without FD-excluded fields.
    type FragOverride = (Vec<(usize, Vec<f64>)>, PredBank);
    let mut fs = prepared.fs.clone();
    let mut frag_override: Option<FragOverride> = None;
    if params.exclude_fd_attrs {
        // Question-specific, off by default, and no stage of its own (a
        // warm ask's trace has no preparation spans): lint:allow(single-clock)
        let t0 = Instant::now();
        let fd = crate::fd::group_determining_fields(apt, pt, question);
        fs.num_fields.retain(|f| !fd.contains(f));
        fs.cat_fields.retain(|f| !fd.contains(f));
        if fs.num_fields.len() != prepared.frag.len() {
            // Rebuild the fragment list + bank without the excluded
            // numeric fields (rare path — FD exclusion is off by default).
            let frag: Vec<(usize, Vec<f64>)> = prepared
                .frag
                .iter()
                .filter(|(f, _)| fs.num_fields.contains(f))
                .cloned()
                .collect();
            let bank = PredBank::build(&prepared.index, &frag);
            frag_override = Some((frag, bank));
        }
        timings.feature_selection += t0.elapsed();
    }

    // Candidate seeds: the pooled patterns, minus any touching an
    // FD-excluded categorical field.
    let candidates: Vec<(Pattern, Mask)> = prepared
        .pool
        .iter()
        .filter(|(p, _)| {
            !params.exclude_fd_attrs
                || p.preds()
                    .iter()
                    .all(|(f, _)| fs.cat_fields.contains(f) || fs.num_fields.contains(f))
        })
        .cloned()
        .collect();

    let (frag, bank): (&[(usize, Vec<f64>)], &PredBank) = match &frag_override {
        Some((f, b)) => (f, b),
        None => (&prepared.frag, &prepared.bank),
    };

    let (explanations, patterns_evaluated) = mine_core(
        apt,
        pt,
        question,
        params,
        candidates,
        frag,
        &prepared.index,
        bank,
        &mut timings,
    );

    MiningOutcome {
        explanations,
        timings,
        feature_selection: fs,
        patterns_evaluated,
    }
}
