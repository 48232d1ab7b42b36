//! `MineAPT` — paper Algorithm 1, end to end for one join graph's APT.
//!
//! Phases (each timed; the names match the paper's runtime-breakdown
//! tables, Fig. 7/9):
//!
//! 1. *Feature Selection* — `filterAttrs` (random forest + clustering).
//! 2. *Gen. Pat. Cand.* — LCA over a λ_pat-samp sample (cap 1000 rows,
//!    §5.4), candidates ranked by recall, top k_cat kept.
//! 3. *Sampling for F1* — draw the λ_F1-samp APT row sample.
//! 4. *F-score Calc.* — Definition-7 metrics over the sample.
//! 5. *Refine Patterns* — numeric refinements from λ#frag fragment
//!    boundaries, pruning refinements of patterns whose recall is below
//!    λ_recall (sound by Proposition 3.1), with at most λ_attrNum numeric
//!    predicates per pattern.
//!
//! Final selection is diversity-aware top-k (§3.5) followed by exact
//! re-scoring over every APT row — on the preparation's all-rows
//! [`ScoreIndex`] — so reported supports are exact.
//!
//! The phases are wired once: everything up to the predicate bitmaps in
//! [`prepare`], ranking, scoring and refinement in `mine_core`.
//! [`mine_apt`] is the two run back to back in the question's scope; the
//! fragment-boundary sort of phase 5 happens at preparation and is timed
//! under [`MiningTimings::prepare`].

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use cajade_graph::Apt;
use cajade_ml::sampling::bernoulli_sample;
use cajade_obs::Stage;
use cajade_query::ProvenanceTable;

use crate::diversity::select_top_k_diverse;
use crate::engine::{Mask, ScoreIndex};
use crate::featsel::{all_features, select_features, FeatSelConfig, FeatureSelection, SelAttr};
use crate::lca::lca_candidates;
use crate::pattern::{PatValue, Pattern, Pred, PredOp};
use crate::prepared::{mine_prepared, prepare, PreparedApt};
use crate::score::{PatternMetrics, Question};
use crate::share::Reader;
use crate::stats::{ColumnStatsProvider, NoSharedStats};

/// All tuning knobs of Algorithm 1 (defaults follow Table 1 where the
/// paper lists a value).
#[derive(Debug, Clone)]
pub struct MiningParams {
    /// k: how many explanations to return per join graph.
    pub top_k: usize,
    /// Number of LCA candidates kept after recall ranking (`pickTopK`).
    pub k_cat_patterns: usize,
    /// Limit on categorical attributes per pattern (Algorithm 1's k_cat).
    pub max_cat_attrs: usize,
    /// λ_attrNum: max numeric attributes per pattern (Table 1: 3).
    pub lambda_attr_num: usize,
    /// λ_recall: recall threshold below which patterns are dropped and
    /// their refinements pruned.
    pub lambda_recall: f64,
    /// λ_pat-samp: LCA sample rate (Table 1: 0.1).
    pub lambda_pat_samp: f64,
    /// LCA sample cap in rows (§5.4: 1000).
    pub pat_samp_cap: usize,
    /// λ_F1-samp: F-score sample rate (Table 1: 0.3). `≥ 1.0` disables
    /// sampling.
    pub lambda_f1_samp: f64,
    /// λ#frag: number of fragment boundaries per numeric attribute.
    pub num_frags: usize,
    /// λ#sel-attr (Table 1: 3).
    pub sel_attr: SelAttr,
    /// Enable feature selection (the Fig. 7 "w/o feature sel." column
    /// disables it).
    pub feature_selection: bool,
    /// Attribute-cluster association threshold.
    pub cluster_threshold: f64,
    /// Random-forest size for feature selection.
    pub forest_trees: usize,
    /// Safety cap on evaluated patterns per APT (guards pathological
    /// parameter combinations; generous relative to real workloads).
    pub max_patterns: usize,
    /// Automatically exclude attributes that functionally determine the
    /// output group on this APT (the paper's §6.2/§8 future-work item:
    /// patterns like `season_id = 4` merely restate the grouped season
    /// through an FD). Runs at preparation, after feature selection and
    /// in the preparation's scope: the question's groups for
    /// [`mine_apt`], all groups for a question-independent
    /// [`PreparedApt`]. One extra APT scan per attribute.
    pub exclude_fd_attrs: bool,
    /// Attribute-name substrings to exclude from patterns. CaJaDE is an
    /// interactive tool and the paper curates case-study output by hand
    /// (§6: removing trivial variants; §6.2 notes attributes that merely
    /// restate the group through functional dependencies "cannot be
    /// avoided" automatically) — this knob lets a user ban such
    /// attributes, e.g. `["season__id", "season_name"]` for Q1.
    pub banned_attrs: Vec<String>,
    /// RNG seed (sampling, forest).
    pub seed: u64,
    /// F-score upper-bound pruning in the refinement BFS: a lattice child
    /// is skipped — mask never built,
    /// never scored — when `min(tp_parent, tp_pred)` caps its recall at
    /// ≤ λ_recall in every direction (it could neither be kept nor seed a
    /// keepable refinement, by Proposition 3.1's anti-monotonicity), or,
    /// for `top_k = 1`, when its F-score bound `2·tp_ub/(tp_ub + a1)`
    /// cannot beat the best kept F-score so far. Output-invariant by
    /// construction (property-tested) as long as `max_patterns` does not
    /// bind; [`MiningTimings::ub_pruned_children`] counts the skips.
    pub refine_ub_prune: bool,
}

impl Default for MiningParams {
    fn default() -> Self {
        Self {
            top_k: 10,
            k_cat_patterns: 30,
            max_cat_attrs: 3,
            lambda_attr_num: 3,
            lambda_recall: 0.2,
            lambda_pat_samp: 0.1,
            pat_samp_cap: 1000,
            lambda_f1_samp: 0.3,
            num_frags: 6,
            sel_attr: SelAttr::Count(3),
            feature_selection: true,
            cluster_threshold: 0.9,
            forest_trees: 20,
            max_patterns: 200_000,
            exclude_fd_attrs: false,
            banned_attrs: Vec::new(),
            seed: 0xCA7ADE,
            refine_ub_prune: true,
        }
    }
}

/// Per-phase wall-clock timings (the paper's breakdown rows) plus the
/// refinement-BFS pruning counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MiningTimings {
    /// `Feature Selection` row.
    pub feature_selection: Duration,
    /// `Gen. Pat. Cand.` row.
    pub gen_pat_cand: Duration,
    /// `Sampling for F1` row: the sample draw and its `(group, PT row)`
    /// scan order.
    pub sampling_for_f1: Duration,
    /// `F-score Calc.` row.
    pub fscore_calc: Duration,
    /// `Refine Patterns` row.
    pub refine_patterns: Duration,
    /// Column encoding, fragment boundaries and predicate-bitmap
    /// precomputation (the `ScoreIndex`/`PredBank` build; zero on warm
    /// `PreparedApt` asks).
    pub prepare: Duration,
    /// Lattice children skipped by the F-score upper bound before their
    /// mask was built or scored ([`MiningParams::refine_ub_prune`]).
    pub ub_pruned_children: u64,
    /// Subtrees cut after scoring because the pattern's best recall fell
    /// to ≤ λ_recall (the Proposition-3.1 prune; the pattern itself *was*
    /// evaluated).
    pub recall_pruned_subtrees: u64,
    /// Times a mining phase stopped early because the request budget
    /// expired (see `cajade_obs::budget`). Zero on unbudgeted asks.
    pub budget_stopped: u64,
}

impl MiningTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.feature_selection
            + self.gen_pat_cand
            + self.sampling_for_f1
            + self.fscore_calc
            + self.refine_patterns
            + self.prepare
    }

    /// Accumulates another APT's timings and counters (per-query totals).
    pub fn accumulate(&mut self, other: &MiningTimings) {
        self.feature_selection += other.feature_selection;
        self.gen_pat_cand += other.gen_pat_cand;
        self.sampling_for_f1 += other.sampling_for_f1;
        self.fscore_calc += other.fscore_calc;
        self.refine_patterns += other.refine_patterns;
        self.prepare += other.prepare;
        self.ub_pruned_children += other.ub_pruned_children;
        self.recall_pruned_subtrees += other.recall_pruned_subtrees;
        self.budget_stopped += other.budget_stopped;
    }
}

/// One mined explanation: `(Ω, Φ, (x1,a1), (x2,a2))` of Definition 6,
/// with Ω implied by the APT it was mined from.
#[derive(Debug, Clone)]
pub struct MinedExplanation {
    /// The pattern Φ.
    pub pattern: Pattern,
    /// The primary output tuple (the `[t1]` / `[t2]` marker of Table 4).
    pub primary_group: usize,
    /// The secondary output (None = "all other outputs", single-point).
    pub secondary_group: Option<usize>,
    /// Exact metrics over the full APT (support is `(tp/a1 vs fp/a2)`).
    pub metrics: PatternMetrics,
    /// F-score estimated on the λ_F1-samp sample (what the ranking used).
    pub sampled_f_score: f64,
}

/// Output of [`mine_apt`] and [`mine_prepared`].
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// Top-k explanations in diversity-selection order.
    pub explanations: Vec<MinedExplanation>,
    /// Phase timings.
    pub timings: MiningTimings,
    /// Number of patterns whose metrics were evaluated.
    pub patterns_evaluated: usize,
}

/// Runs Algorithm 1 over one APT for one question: a preparation in the
/// question's own scope (per-APT statistics, nothing shared or kept),
/// mined once.
pub fn mine_apt(
    apt: &Apt,
    pt: &ProvenanceTable,
    question: &Question,
    params: &MiningParams,
) -> MiningOutcome {
    let prepared = prepare(apt, pt, params, &NoSharedStats, Some(question));
    let mut outcome = mine_prepared(&prepared, apt, pt, question, params);
    outcome.timings.accumulate(&prepared.prep_timings);
    outcome
}

/// Phase 3: draws the λ_F1 row sample (all rows at rate ≥ 1.0) and fixes
/// the scan order of the index over it, both under `sampling_for_f1`. No
/// column is encoded yet: which ones is `filterAttrs`' call, and it trains
/// on this order.
pub(crate) fn sample_and_scan(
    apt: &Apt,
    pt: &ProvenanceTable,
    params: &MiningParams,
    timings: &mut MiningTimings,
    reader: &Reader,
) -> ScoreIndex {
    let stage = Stage::detail("sampling_for_f1");
    // The draw reads the APT's row count and the order its `pt_row`: the
    // APTs of an ask over one `pt_row` vector draw and sort once.
    let index = reader.scan(
        apt,
        |scope| &scope.sample_scan,
        || {
            let sample: Option<Vec<u32>> = (params.lambda_f1_samp < 1.0).then(|| {
                bernoulli_sample(apt.num_rows, params.lambda_f1_samp, params.seed)
                    .into_iter()
                    .map(|i| i as u32)
                    .collect()
            });
            match &sample {
                Some(rows) => ScoreIndex::sampled(apt, pt, rows),
                None => ScoreIndex::exact(apt, pt),
            }
        },
    );
    timings.sampling_for_f1 = stage.finish();
    index
}

/// Phase 1's wiring: maps [`MiningParams`] onto a [`FeatSelConfig`],
/// trains in the scope of `question` (see [`select_features_hist`]) on
/// the index's `(group, PT row)` scan order, and applies the
/// `banned_attrs` filter.
pub(crate) fn run_featsel(
    apt: &Apt,
    pt: &ProvenanceTable,
    params: &MiningParams,
    index: &ScoreIndex,
    question: Option<&Question>,
    stats: &dyn ColumnStatsProvider,
    reader: &Reader,
) -> FeatureSelection {
    let featsel_cfg = FeatSelConfig {
        sel_attr: params.sel_attr,
        cluster_threshold: params.cluster_threshold,
        forest_trees: params.forest_trees,
        seed: params.seed,
        ..FeatSelConfig::default()
    };
    let mut fs = if params.feature_selection {
        let order = index.order();
        select_features(apt, pt, order, question, &featsel_cfg, stats, reader)
    } else {
        all_features(apt)
    };
    if !params.banned_attrs.is_empty() {
        let banned = |f: &usize| {
            params
                .banned_attrs
                .iter()
                .any(|b| apt.fields[*f].name.contains(b.as_str()))
        };
        fs.num_fields.retain(|f| !banned(f));
        fs.cat_fields.retain(|f| !banned(f));
    }
    fs
}

/// The LCA candidates over `lca_rows` with at most `max_cat_attrs`
/// predicates, each with its match bitmap (one `eval_pred` per distinct
/// equality predicate). Unranked: ranking is per question.
pub(crate) fn lca_pool(
    apt: &Apt,
    index: &ScoreIndex,
    lca_rows: &[u32],
    cat_fields: &[usize],
    params: &MiningParams,
) -> Vec<(Pattern, Mask)> {
    let mut cat_pats = lca_candidates(apt, lca_rows, cat_fields);
    cat_pats.retain(|p| p.len() <= params.max_cat_attrs);
    let mut eq_memo: HashMap<(usize, Pred), Mask> = HashMap::new();
    cat_pats
        .into_iter()
        .map(|p| {
            let mut m = index.full_mask();
            for (field, pred) in p.preds() {
                let pm = eq_memo
                    .entry((*field, *pred))
                    .or_insert_with(|| index.eval_pred(*field, pred));
                m.and_assign(pm);
            }
            (p, m)
        })
        .collect()
}

/// Candidate ranking + refinement BFS + diversity top-k + exact
/// re-scoring — the per-question half of Algorithm 1, over a preparation
/// in either scope: the pool's unranked categorical seeds with their
/// match bitmaps over the index, and the refinement masks of the bank,
/// aligned with the fragment list.
pub(crate) fn mine_core(
    prepared: &PreparedApt,
    apt: &Apt,
    question: &Question,
    params: &MiningParams,
    timings: &mut MiningTimings,
) -> (Vec<MinedExplanation>, usize) {
    cajade_obs::faults::failpoint_infallible("mine.refine");
    let (index, frag, bank) = (&prepared.index, &prepared.frag, &prepared.bank);
    let directions = question.directions();
    let mut patterns_evaluated = prepared.pool.len();

    // ---- Rank categorical candidates by recall, keep top k_cat. --------
    let stage = Stage::detail("rank_candidates");
    let mut ranked: Vec<(&(Pattern, Mask), f64)> = prepared
        .pool
        .iter()
        .map(|candidate| {
            let best_recall = directions
                .iter()
                .map(|&(t, s)| index.score_mask(&candidate.1, t, s).recall)
                .fold(0.0, f64::max);
            (candidate, best_recall)
        })
        .collect();
    // `total_cmp`: under a NaN recall (degenerate metrics) `partial_cmp`
    // fell back to Equal, which made the top-k_cat cut depend on the
    // incoming candidate order — a silent nondeterminism.
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked.truncate(params.k_cat_patterns);
    timings.fscore_calc += stage.finish();
    // Scoring and refinement interleave below, so the BFS gets one span;
    // the fscore_calc / refine_patterns split stays in `MiningTimings`.
    let bfs_stage = Stage::detail("refine_bfs");

    // ---- Refinement BFS with recall pruning. ---------------------------
    // F-score upper-bound pruning state: the
    // per-direction TP count of every refinement predicate mask, computed
    // once from the PredBank. A child's TP is bounded by
    // `min(tp_parent, tp_pred)` (its mask is the AND of both), so many
    // children can be discarded without building or scoring their mask:
    // if the bound caps recall at ≤ λ_recall in every direction, the
    // child could neither enter the kept set nor — by Proposition 3.1 —
    // seed a refinement that does. With `top_k = 1` the bound also prunes
    // against the best kept F-score so far (`F ≤ 2·tp/(tp + a1)`, i.e.
    // perfect precision and all bounded TPs recalled); with diversity-
    // aware selection of k > 1 patterns a kept-but-low-F pattern can
    // still displace a near-duplicate (§3.5), so the floor only applies
    // when a single pattern is requested. Both rules leave `mine_apt`
    // output bit-identical (property-tested) unless `max_patterns` binds.
    //
    // `pred_tp[fi][bi][op slot][direction]` — aligned with `frag`.
    /// Per-direction `a1` denominators + per-predicate TP counts.
    type UbState = (Vec<usize>, Vec<Vec<[Vec<usize>; 2]>>);
    let ub_state: Option<UbState> = params.refine_ub_prune.then(|| {
        let a1s: Vec<usize> = directions
            .iter()
            .map(|&(primary, _)| index.group_size(primary))
            .collect();
        let pred_tp: Vec<Vec<[Vec<usize>; 2]>> = frag
            .iter()
            .enumerate()
            .map(|(fi, (_, boundaries))| {
                (0..boundaries.len())
                    .map(|bi| {
                        [PredOp::Le, PredOp::Ge].map(|op| {
                            let mask = bank.mask(fi, bi, op);
                            directions
                                .iter()
                                .map(|&(primary, _)| index.tp_of(mask, primary))
                                .collect()
                        })
                    })
                    .collect()
            })
            .collect();
        (a1s, pred_tp)
    });
    // The `top_k = 1` F-score floor: highest kept (sampled) F so far.
    let mut kept_f_floor = f64::NEG_INFINITY;
    // The lattice is enumerated **canonically**: a child only refines
    // fragment fields strictly after its parent's last refined one, so
    // every pattern (seed × subset of fragment fields, one threshold
    // each) is generated exactly once and no deduplication set is needed.
    // This is output-equivalent to generate-and-dedup: a pattern whose
    // canonical parent was recall-pruned has, by the same anti-
    // monotonicity that makes λ_recall pruning sound (Proposition 3.1),
    // recall no higher than that pruned parent in *every* direction — it
    // could never be kept nor seed a keepable refinement. (The argument
    // assumes the `max_patterns` safety cap does not bind: a binding cap
    // truncates the enumeration at a — deterministic — prefix that
    // differs from the dedup-based order.)
    struct TodoItem {
        pat: Pattern,
        mask: Mask,
        /// First fragment-field index this pattern may refine.
        next_fi: usize,
        /// Numeric predicates already on the pattern (λ_attrNum budget).
        numeric_preds: usize,
    }
    let mut todo: VecDeque<TodoItem> = VecDeque::with_capacity(256);
    // The empty pattern seeds numeric-only refinements (pure-context
    // explanations like `salary < 15330435`, Table 4).
    todo.push_back(TodoItem {
        pat: Pattern::empty(),
        mask: index.full_mask(),
        next_fi: 0,
        numeric_preds: 0,
    });
    for ((p, mask), _) in ranked {
        todo.push_back(TodoItem {
            pat: p.clone(),
            mask: mask.clone(),
            next_fi: 0,
            numeric_preds: p.num_numeric_preds(apt),
        });
    }

    // Candidates: (pattern, primary, secondary, sampled metrics).
    let mut kept: Vec<(Pattern, usize, Option<usize>, PatternMetrics)> = Vec::new();

    while let Some(item) = todo.pop_front() {
        if patterns_evaluated >= params.max_patterns {
            break;
        }
        // Cooperative deadline check, rate-limited to amortize the clock
        // read; a break here leaves `kept` as-is, and the diversity
        // selection + exact re-score below still run, so a budgeted ask
        // returns a valid (merely less-refined) diverse top-k.
        if patterns_evaluated.is_multiple_of(64) && cajade_obs::budget::stop("mine.refine") {
            timings.budget_stopped += 1;
            break;
        }
        patterns_evaluated += 1;
        let TodoItem {
            pat,
            mask,
            next_fi,
            numeric_preds,
        } = item;

        // Score in both directions (Algorithm 1 line 11).
        // The per-pattern fscore_calc / refine_patterns split runs inside
        // the one `refine_bfs` stage: lint:allow(single-clock)
        let t_score = Instant::now();
        let mut best_recall = 0.0f64;
        let mut item_tps = [0usize; 2];
        for (d, &(primary, secondary)) in directions.iter().enumerate() {
            let m = index.score_mask(&mask, primary, secondary);
            best_recall = best_recall.max(m.recall);
            item_tps[d] = m.tp;
            if !pat.is_empty() && m.recall > params.lambda_recall {
                kept_f_floor = kept_f_floor.max(m.f_score);
                kept.push((pat.clone(), primary, secondary, m));
            }
        }
        // Second reading of the same split: lint:allow(single-clock)
        let t_mid = Instant::now();
        timings.fscore_calc += t_mid - t_score;

        // Prune refinements when recall already fell below λ_recall
        // (Proposition 3.1: refinement can only lower recall). The empty
        // pattern always has recall 1 and is always refined.
        if best_recall <= params.lambda_recall && !pat.is_empty() {
            timings.recall_pruned_subtrees += 1;
            continue;
        }
        if numeric_preds >= params.lambda_attr_num {
            continue;
        }

        for (fi, (field, boundaries)) in frag.iter().enumerate().skip(next_fi) {
            if !pat.is_free(*field) {
                continue;
            }
            for (bi, &c) in boundaries.iter().enumerate() {
                for op in [PredOp::Le, PredOp::Ge] {
                    // F-score upper bound: discard the child subtree when
                    // `min(tp_parent, tp_pred)` proves it can never be
                    // kept (nor, for top_k = 1, beat the kept-F floor).
                    if let Some((a1s, pred_tp)) = &ub_state {
                        let slot = match op {
                            PredOp::Le => 0,
                            _ => 1,
                        };
                        let tps = &pred_tp[fi][bi][slot];
                        let viable = a1s.iter().enumerate().any(|(d, &a1)| {
                            let tp_ub = item_tps[d].min(tps[d]);
                            let recall_ub = if a1 == 0 {
                                0.0
                            } else {
                                tp_ub as f64 / a1 as f64
                            };
                            if recall_ub <= params.lambda_recall {
                                return false;
                            }
                            if params.top_k == 1 {
                                let f_ub = 2.0 * tp_ub as f64 / (tp_ub + a1) as f64;
                                return f_ub > kept_f_floor;
                            }
                            true
                        });
                        if !viable {
                            timings.ub_pruned_children += 1;
                            continue;
                        }
                    }
                    let refined = pat.refine(
                        *field,
                        Pred {
                            op,
                            value: float_const(c),
                        },
                    );
                    // Incremental refinement: the child's matches are the
                    // parent's AND the threshold's bitmap.
                    todo.push_back(TodoItem {
                        pat: refined,
                        mask: mask.and(bank.mask(fi, bi, op)),
                        next_fi: fi + 1,
                        numeric_preds: numeric_preds + 1,
                    });
                }
            }
        }
        timings.refine_patterns += t_mid.elapsed();
    }
    drop(bfs_stage);

    // ---- Top-k with diversity, then exact re-scoring. -------------------
    let _stage = Stage::detail("select_top_k");
    let items: Vec<(Pattern, f64)> = kept
        .iter()
        .map(|(p, _, _, m)| (p.clone(), m.f_score))
        .collect();
    let selected = select_top_k_diverse(&items, params.top_k);

    // Without an all-rows index the scan already covered every APT row
    // (λ_F1 ≥ 1.0): the "sampled" metrics *are* the exact metrics.
    let _rescore = Stage::detail("exact_rescore");
    let explanations: Vec<MinedExplanation> = selected
        .into_iter()
        .map(|i| {
            let (pat, primary, secondary, sampled) = &kept[i];
            let metrics = match &prepared.exact {
                Some(exact) => exact.score(pat, *primary, *secondary),
                None => *sampled,
            };
            MinedExplanation {
                pattern: pat.clone(),
                primary_group: *primary,
                secondary_group: *secondary,
                metrics,
                sampled_f_score: sampled.f_score,
            }
        })
        .collect();

    (explanations, patterns_evaluated)
}

/// Thresholds are stored as floats; whole values print as integers.
fn float_const(c: f64) -> PatValue {
    PatValue::Float(c.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cajade_graph::{Apt, JoinGraph};
    use cajade_query::{parse_sql, ProvenanceTable};
    use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

    /// Two seasons of games; in s2 the star player scores high. The miner
    /// should find `player=star ∧ pts ≥ θ`-style patterns (the Example-5
    /// shape) from the PT-only APT already containing player columns.
    fn fixture() -> (Database, cajade_query::Query) {
        let mut db = Database::new("m");
        db.create_table(
            SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("season", DataType::Str, AttrKind::Categorical)
                .column("player", DataType::Str, AttrKind::Categorical)
                .column("pts", DataType::Int, AttrKind::Numeric)
                .column("noise", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let s1 = db.intern("s1");
        let s2 = db.intern("s2");
        let star = db.intern("star");
        let other = db.intern("other");
        let mut id = 0i64;
        // Season 1: star scores low (10-14), other scores ~20.
        for i in 0..30i64 {
            id += 1;
            db.table_mut("t")
                .unwrap()
                .push_row(vec![
                    Value::Int(id),
                    Value::Str(s1),
                    Value::Str(if i % 2 == 0 { star } else { other }),
                    Value::Int(if i % 2 == 0 { 10 + i % 5 } else { 20 }),
                    Value::Int((i * 13) % 7),
                ])
                .unwrap();
        }
        // Season 2: star scores high (30-34), other still ~20.
        for i in 0..30i64 {
            id += 1;
            db.table_mut("t")
                .unwrap()
                .push_row(vec![
                    Value::Int(id),
                    Value::Str(s2),
                    Value::Str(if i % 2 == 0 { star } else { other }),
                    Value::Int(if i % 2 == 0 { 30 + i % 5 } else { 20 }),
                    Value::Int((i * 13) % 7),
                ])
                .unwrap();
        }
        let q = parse_sql("SELECT count(*) AS c, season FROM t GROUP BY season").unwrap();
        (db, q)
    }

    fn mine(params: &MiningParams) -> (MiningOutcome, Apt, Database, usize, usize) {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let t1 = pt.find_group(&db, &q, &[("season", "s2")]).unwrap();
        let t2 = pt.find_group(&db, &q, &[("season", "s1")]).unwrap();
        let out = mine_apt(&apt, &pt, &Question::TwoPoint { t1, t2 }, params);
        (out, apt, db, t1, t2)
    }

    fn default_test_params() -> MiningParams {
        MiningParams {
            lambda_pat_samp: 1.0, // tiny fixture: no sampling noise
            lambda_f1_samp: 1.0,
            sel_attr: SelAttr::Count(3),
            ..Default::default()
        }
    }

    #[test]
    fn finds_star_player_pattern() {
        let (out, apt, db, t1, _t2) = mine(&default_test_params());
        assert!(!out.explanations.is_empty());
        // Among the top explanations there must be one with high F-score
        // for t1 constraining pts from below (the star's jump).
        let good = out.explanations.iter().any(|e| {
            e.primary_group == t1
                && e.metrics.f_score > 0.6
                && e.pattern
                    .preds()
                    .iter()
                    .any(|(f, p)| apt.fields[*f].name == "prov_t_pts" && p.op == PredOp::Ge)
        });
        assert!(
            good,
            "explanations: {:?}",
            out.explanations
                .iter()
                .map(|e| (e.pattern.render(&apt, db.pool()), e.metrics.f_score))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn group_by_attribute_never_appears() {
        let (out, apt, _db, _, _) = mine(&default_test_params());
        let season = apt.field_index("prov_t_season").unwrap();
        assert!(out.explanations.iter().all(|e| e.pattern.is_free(season)));
    }

    #[test]
    fn numeric_budget_respected() {
        let mut p = default_test_params();
        p.lambda_attr_num = 1;
        let (out, apt, _db, _, _) = mine(&p);
        assert!(out
            .explanations
            .iter()
            .all(|e| e.pattern.num_numeric_preds(&apt) <= 1));
    }

    #[test]
    fn recall_threshold_filters_candidates() {
        let mut p = default_test_params();
        p.lambda_recall = 0.9; // only very high recall patterns survive
        let (out, _apt, _db, _, _) = mine(&p);
        assert!(out
            .explanations
            .iter()
            .all(|e| e.metrics.recall > 0.9 || e.sampled_f_score == 0.0));
    }

    #[test]
    fn timings_are_populated() {
        let (out, _apt, _db, _, _) = mine(&default_test_params());
        let t = out.timings;
        assert!(t.total() > Duration::ZERO);
        assert!(t.fscore_calc > Duration::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = default_test_params();
        let (a, apt, db, _, _) = mine(&p);
        let (b, _, _, _, _) = mine(&p);
        let ra: Vec<String> = a
            .explanations
            .iter()
            .map(|e| e.pattern.render(&apt, db.pool()))
            .collect();
        let rb: Vec<String> = b
            .explanations
            .iter()
            .map(|e| e.pattern.render(&apt, db.pool()))
            .collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn max_patterns_cap_halts_search() {
        let mut p = default_test_params();
        p.max_patterns = 5;
        let (out, _apt, _db, _, _) = mine(&p);
        assert!(out.patterns_evaluated <= 6);
    }

    #[test]
    fn feature_selection_off_keeps_all_attrs() {
        let mut p = default_test_params();
        p.feature_selection = false;
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let fs = crate::prepared::prepare_apt(&apt, &pt, &p).fs;
        assert_eq!(
            fs.num_fields.len() + fs.cat_fields.len(),
            apt.pattern_fields().len()
        );
    }

    /// Proposition 3.1 as a property: refinement never increases recall.
    #[test]
    fn prop_recall_antimonotone_under_refinement() {
        use crate::score::Scorer;
        use proptest::prelude::*;
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let scorer = Scorer::exact(&apt, &pt);
        let pts = apt.field_index("prov_t_pts").unwrap();
        let noise = apt.field_index("prov_t_noise").unwrap();
        let player = apt.field_index("prov_t_player").unwrap();
        let star = db.lookup_str("star").unwrap();

        let mut runner = proptest::test_runner::TestRunner::deterministic();
        runner
            .run(
                &(0i64..40, 0i64..10, proptest::bool::ANY, proptest::bool::ANY),
                |(thr1, thr2, op1, op2)| {
                    let base = Pattern::from_preds(vec![(
                        player,
                        Pred {
                            op: PredOp::Eq,
                            value: PatValue::Str(star.0),
                        },
                    )]);
                    let r1 = base.refine(
                        pts,
                        Pred {
                            op: if op1 { PredOp::Le } else { PredOp::Ge },
                            value: PatValue::Int(thr1),
                        },
                    );
                    let r2 = r1.refine(
                        noise,
                        Pred {
                            op: if op2 { PredOp::Le } else { PredOp::Ge },
                            value: PatValue::Int(thr2),
                        },
                    );
                    for t in [0usize, 1] {
                        let rec0 = scorer.score(&base, t, Some(1 - t)).recall;
                        let rec1 = scorer.score(&r1, t, Some(1 - t)).recall;
                        let rec2 = scorer.score(&r2, t, Some(1 - t)).recall;
                        prop_assert!(rec1 <= rec0 + 1e-12);
                        prop_assert!(rec2 <= rec1 + 1e-12);
                    }
                    Ok(())
                },
            )
            .unwrap();
    }
}
