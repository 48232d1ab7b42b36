//! Attribute clustering + relevance-based filtering (paper §3.1,
//! `filterAttrs` in Algorithm 1).
//!
//! 1. Train a random forest predicting "does this APT row belong to the
//!    provenance of `t1` (vs. `t2`)?" and rank attributes by
//!    mean-decrease-impurity relevance.
//! 2. Cluster mutually-correlated attributes (VARCLUS substitute, see
//!    `cajade-ml::cluster`) and keep one representative per cluster —
//!    the member with the highest relevance.
//! 3. Keep the λ#sel-attr most relevant representatives.
//!
//! Step 1 reads the candidate columns through the APT view with one bulk
//! typed read each (`AptColumn::read`: typed arrays / interned string
//! ids, no `Value` boxing) in the scoring index's `(group, PT row)` scan
//! order ([`ScoreIndex::order`]), quantile-bins
//! each numeric column **once**, and trains [`HistForest`]s whose
//! per-node split search reads class histograms instead of re-scanning
//! rows. It therefore trains on the λ_F1 sample (the rows the index
//! covers) — the [`MAX_TRAIN_ROWS`] reservoir cap usually dominates either
//! way. `cajade_ml`'s row-rescanning float `RandomForest` remains that
//! crate's reference for the histogram trainer (its
//! `…_on_lossless_binning` tests); no mining run goes through it.
//!
//! [`ScoreIndex::order`]: crate::engine::ScoreIndex::order

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use cajade_graph::{Apt, CellData, Cells};
use cajade_ml::cluster::{cluster_attributes, cluster_representatives};
use cajade_ml::correlation::assoc_matrix;
use cajade_ml::forest::{HistForest, RandomForestConfig};
use cajade_ml::sampling::reservoir_sample;
use cajade_ml::{dense_codes, BinnedColumn, FeatureColumn};
use cajade_obs::Stage;
use cajade_query::ProvenanceTable;
use cajade_storage::AttrKind;

use crate::score::Question;
use crate::share::Reader;
use crate::stats::{source_column, ColumnStatsProvider};

/// λ#sel-attr: how many attributes feature selection keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelAttr {
    /// Keep the top `n` attributes (Table 1's default is 3).
    Count(usize),
    /// Keep the top fraction of attributes (the §3.1 formulation).
    Fraction(f64),
    /// Keep everything (feature selection as pure ranking).
    All,
}

impl SelAttr {
    fn resolve(&self, available: usize) -> usize {
        match self {
            SelAttr::Count(n) => (*n).min(available),
            SelAttr::Fraction(f) => ((available as f64 * f).ceil() as usize).clamp(1, available),
            SelAttr::All => available,
        }
    }
}

/// Result of `filterAttrs`.
#[derive(Debug, Clone)]
pub struct FeatureSelection {
    /// Selected numeric APT fields (`A_num` of Algorithm 1).
    pub num_fields: Vec<usize>,
    /// Selected categorical APT fields (`A_cat`).
    pub cat_fields: Vec<usize>,
    /// Attribute clusters found (over candidate fields).
    pub clusters: Vec<Vec<usize>>,
    /// Per-APT-field forest relevance (0 where not a candidate).
    pub relevance: Vec<f64>,
}

impl FeatureSelection {
    /// No field selected, zero relevance everywhere: what `filterAttrs`
    /// yields for an APT without candidates, or when it is skipped.
    pub fn empty(apt: &Apt) -> Self {
        FeatureSelection {
            num_fields: Vec::new(),
            cat_fields: Vec::new(),
            clusters: Vec::new(),
            relevance: vec![0.0; apt.fields.len()],
        }
    }
}

/// Minimum mutual association for clustering two attributes (VARCLUS's
/// merge threshold).
pub const CLUSTER_THRESHOLD: f64 = 0.9;

/// Cap on training rows (runtime guard; sampled uniformly above it).
pub const MAX_TRAIN_ROWS: usize = 5000;

/// Bin budget per column (numeric quantile bins / retained categorical
/// values). Twice the float reference trainer's per-node threshold cap,
/// since global bins must serve every node.
pub const HIST_BINS: usize = 32;

/// Row cap for the association-matrix estimate (strided subsample over
/// the group-sorted training rows). The matrix only feeds a thresholded
/// clustering decision, so a few hundred rows estimate it as well as
/// thousands. At this cap the `featsel_assoc` span — the pairwise
/// measures, then the clustering — is a quarter of the phase on NBA's
/// few-hundred-row APTs (the measures a fifth) and an eighth on
/// 20 000-row ones (the measures a tenth); ROADMAP item 3 has the
/// measured split.
pub const MAX_ASSOC_ROWS: usize = 512;

/// What a caller chooses of feature selection; everything else is one of
/// this module's constants ([`CLUSTER_THRESHOLD`], [`MAX_TRAIN_ROWS`],
/// [`HIST_BINS`], [`MAX_ASSOC_ROWS`]).
#[derive(Debug, Clone)]
pub struct FeatSelConfig {
    /// λ#sel-attr.
    pub sel_attr: SelAttr,
    /// Number of forest trees.
    pub forest_trees: usize,
    /// Seed for forest + sampling.
    pub seed: u64,
}

impl Default for FeatSelConfig {
    fn default() -> Self {
        Self {
            sel_attr: SelAttr::Count(3),
            forest_trees: 20,
            seed: 0xFEA7,
        }
    }
}

/// The group-global one-vs-rest task plan: up to `MAX_ONE_VS_REST`
/// (currently 4) largest output groups by full `|PT(t)|` (ties by index),
/// the tree budget and per-tree row budget split across tasks — so the
/// ensemble costs about as much as one question-specific forest rather
/// than `tasks ×` that — with `|PT(t)|`-proportional importance weights
/// and per-group seed offsets.
fn one_vs_rest_plan(
    pt: &ProvenanceTable,
    cfg: &FeatSelConfig,
) -> Vec<(usize, f64, RandomForestConfig)> {
    /// Cap on one-vs-rest tasks, so wide group-bys don't multiply cost.
    const MAX_ONE_VS_REST: usize = 4;

    // The largest groups by full |PT(t)| (ties by index, deterministic).
    let mut groups: Vec<(usize, usize)> = pt
        .rows_of_group
        .iter()
        .enumerate()
        .map(|(g, rows)| (g, rows.len()))
        .filter(|&(_, n)| n > 0)
        .collect();
    groups.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    groups.truncate(MAX_ONE_VS_REST);

    let tasks = groups.len().max(1);
    let trees_per_task = (cfg.forest_trees.div_ceil(tasks)).max(2);
    let bootstrap_fraction = 1.0 / tasks as f64;
    let total_weight: f64 = groups.iter().map(|&(_, n)| n as f64).sum();

    groups
        .into_iter()
        .map(|(g, pt_size)| {
            (
                g,
                pt_size as f64 / total_weight.max(1.0),
                RandomForestConfig {
                    num_trees: trees_per_task,
                    bootstrap_fraction,
                    seed: cfg.seed.wrapping_add(g as u64),
                    ..Default::default()
                },
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Histogram-forest `filterAttrs` on encoded columns.
// ---------------------------------------------------------------------

/// What `filterAttrs` derives from one candidate column over the training
/// rows — and what an ask's share keeps per `(base column, row-id
/// vector)` for the other graphs that train on it.
pub(crate) struct TrainColumn {
    /// The gather: numeric values, or dense first-appearance codes.
    pub feature: FeatureColumn,
    /// Categorical gathers: the raw dictionary key behind each dense code.
    pub key_of_code: Vec<u64>,
    /// The gather binned for the histogram trainer, by the first
    /// `featsel_encode` stage that needs it.
    pub binned: OnceLock<BinnedColumn>,
}

/// The training set in one scope: the rows trained on and one `(labels,
/// importance weight, forest config)` per task. A function of the APT's
/// `pt_row` vector, which is what an ask's share keeps it by.
pub(crate) struct Training {
    pub rows: Vec<u32>,
    pub tasks: Vec<(Vec<bool>, f64, RandomForestConfig)>,
}

/// Gathers one APT field over `rows` with one bulk typed read (no `Value`
/// boxing, no per-cell type match): numeric values as-is, categorical
/// cells as first-appearance dense codes.
///
/// For categorical fields `key_of_code` maps each dense code back to the
/// raw dictionary key it stands for (empty for numeric fields) — what
/// [`cajade_ml::BinSpec::encode_dense_keys`] needs to bin the gather
/// through a *shared* spec without re-reading the column.
fn fast_feature_column(apt: &Apt, field: usize, rows: &[u32]) -> TrainColumn {
    let Cells { data, nulls } = apt.columns[field].read(rows);
    let (feature, key_of_code) = match apt.fields[field].kind {
        AttrKind::Numeric => {
            let mut vals: Vec<f64> = match data {
                CellData::Int(v) => v.into_iter().map(|x| x as f64).collect(),
                CellData::Float(v) => v,
                CellData::Str(v) => vec![f64::NAN; v.len()],
            };
            for &i in &nulls {
                vals[i as usize] = f64::NAN;
            }
            (FeatureColumn::Numeric(vals), Vec::new())
        }
        AttrKind::Categorical => {
            // The dictionary keys `stats::column_cat_key` gives the same
            // cells: raw integer, float bits, interned string id.
            let mut nulls = nulls.iter().peekable();
            let mut key = |i: usize, k: u64| nulls.next_if_eq(&&(i as u32)).is_none().then_some(k);
            let (codes, key_of_code) = match &data {
                CellData::Int(v) => {
                    dense_codes(v.iter().enumerate().map(|(i, &x)| key(i, x as u64)))
                }
                CellData::Float(v) => {
                    dense_codes(v.iter().enumerate().map(|(i, &x)| key(i, x.to_bits())))
                }
                CellData::Str(v) => {
                    dense_codes(v.iter().enumerate().map(|(i, &x)| key(i, x as u64)))
                }
            };
            (FeatureColumn::Categorical(codes), key_of_code)
        }
    };
    TrainColumn {
        feature,
        key_of_code,
        binned: OnceLock::new(),
    }
}

/// The scope-independent body of the selection: gather each candidate
/// column once, bin it for the forest, run the per-task forests, average
/// importances, and cluster on the same gathered view (the association
/// matrix is computed over full values/codes, not bins).
///
/// A column's gather and its bins are what an ask's [`ReadShare`] keeps
/// per `(base column, row-id vector)`: a column another graph of the ask
/// already trained on comes from there, through `reader`, and only the
/// others are read.
///
/// Binning consults the injected [`ColumnStatsProvider`] first: a context
/// column with shared statistics encodes its gather through the provider's
/// pre-fitted [`cajade_ml::BinSpec`] (a linear pass — no per-APT quantile
/// sort or dictionary build); columns without shared stats (PT fields,
/// pass-through provider) fit per-APT exactly as before.
///
/// [`ReadShare`]: crate::share::ReadShare
fn hist_selection(
    apt: &Apt,
    candidates: &[usize],
    training: &Training,
    cfg: &FeatSelConfig,
    stats: &dyn ColumnStatsProvider,
    reader: &Reader,
) -> FeatureSelection {
    let Training { rows, tasks } = training;
    let stage = Stage::detail("featsel_gather");
    let gathered: Vec<Arc<TrainColumn>> = candidates
        .iter()
        .map(|&f| reader.column(&apt.columns[f], || fast_feature_column(apt, f, rows)))
        .collect();
    let features: Vec<&FeatureColumn> = gathered.iter().map(|c| &c.feature).collect();
    drop(stage);

    let stage = Stage::detail("featsel_encode");
    let bin = |f: usize, col: &TrainColumn| {
        let shared = source_column(apt, f).and_then(|(t, c)| stats.column_stats(t, c));
        match (&col.feature, shared) {
            (FeatureColumn::Numeric(v), Some(st)) => st.bins.encode_f64(v),
            (FeatureColumn::Numeric(v), None) => BinnedColumn::from_f64(v, HIST_BINS),
            // The shared dictionary maps raw keys; the gather is
            // already dense-coded, so binning it is one remap lookup
            // per distinct value + an array index per row.
            (FeatureColumn::Categorical(codes), Some(st)) => {
                st.bins.encode_dense_keys(codes, &col.key_of_code)
            }
            // Per-APT fit: the gather is its own dictionary.
            (FeatureColumn::Categorical(codes), None) => {
                BinnedColumn::from_dense_codes(codes, col.key_of_code.len(), HIST_BINS)
            }
        }
    };
    let cols: Vec<&BinnedColumn> = candidates
        .iter()
        .zip(&gathered)
        .map(|(&f, col)| col.binned.get_or_init(|| bin(f, col)))
        .collect();
    drop(stage);

    let stage = Stage::detail("featsel_forest");
    let mut importances = vec![0.0; candidates.len()];
    let mut any_task = false;
    for (labels, weight, forest_cfg) in tasks {
        // One forest fit per task — the one unbounded ML loop; an
        // expired budget stops between tasks, keeping whatever
        // importances accumulated so far.
        if cajade_obs::budget::stop("featsel.forest") {
            break;
        }
        let has_both = labels.iter().any(|&l| l) && labels.iter().any(|&l| !l);
        if !has_both || rows.is_empty() {
            continue;
        }
        any_task = true;
        let forest = HistForest::fit(&cols, labels, forest_cfg);
        for (imp, fi) in importances.iter_mut().zip(&forest.importances) {
            *imp += weight * fi;
        }
    }
    if !any_task {
        importances = vec![1.0 / candidates.len() as f64; candidates.len()];
    }
    drop(stage);

    // Clustering and the final pick run under the association stage:
    // they are microseconds next to the pairwise measures.
    let _stage = Stage::detail("featsel_assoc");
    // Association estimate, twice restricted:
    //
    // * columns — only the `max(16, 4·λ#sel-attr)` most important
    //   candidates are clustered to start with (a low-relevance feature
    //   can never *represent* a cluster past a higher member, so the
    //   unmeasured tail stays as singletons, see `cluster_block`); if the
    //   selection nevertheless reaches into that tail — the measured top
    //   collapsed into fewer clusters than λ#sel-attr — every pair is
    //   measured, so redundant tail features can never be co-selected just
    //   because their pairs went unmeasured;
    // * rows — a strided subsample (rows are group-sorted, so a fixed
    //   stride samples every output group proportionally): the matrix
    //   feeds a thresholded merge decision, not a precise estimate.
    let step = if rows.len() > MAX_ASSOC_ROWS {
        rows.len().div_ceil(MAX_ASSOC_ROWS)
    } else {
        1
    };
    let lambda = cfg.sel_attr.resolve(candidates.len());
    let mut by_importance: Vec<usize> = (0..candidates.len()).collect();
    // `total_cmp`: a NaN importance (degenerate training data) must not
    // make the ranking order nondeterministic.
    by_importance.sort_by(|&a, &b| importances[b].total_cmp(&importances[a]).then(a.cmp(&b)));
    let mut m = (4 * lambda).max(16).min(candidates.len());
    loop {
        let mut measured: Vec<usize> = by_importance[..m].to_vec();
        measured.sort_unstable();
        let views: Vec<_> = measured
            .iter()
            .map(|&i| strided(features[i], step))
            .collect();
        let assoc = assoc_matrix(&views);
        let clusters = cluster_block(&assoc, &measured, candidates.len(), CLUSTER_THRESHOLD);
        let fs = finish_selection(apt, candidates, importances.clone(), clusters, cfg);
        let all_selected_measured = m == candidates.len() || {
            let measured_fields: Vec<usize> = measured.iter().map(|&i| candidates[i]).collect();
            fs.num_fields
                .iter()
                .chain(&fs.cat_fields)
                .all(|f| measured_fields.contains(f))
        };
        if all_selected_measured {
            return fs;
        }
        // Rare fallback: the restricted clustering ran out of measured
        // representatives — measure every pair and redo.
        m = candidates.len();
    }
}

/// Every `step`-th row of `col`; `col` itself when that is every row.
fn strided(col: &FeatureColumn, step: usize) -> Cow<'_, FeatureColumn> {
    match col {
        _ if step == 1 => Cow::Borrowed(col),
        FeatureColumn::Numeric(v) => Cow::Owned(FeatureColumn::Numeric(
            v.iter().step_by(step).copied().collect(),
        )),
        FeatureColumn::Categorical(v) => Cow::Owned(FeatureColumn::Categorical(
            v.iter().step_by(step).copied().collect(),
        )),
    }
}

/// Average-linkage clusters of `p` candidates from the associations of
/// the `measured` ones (ascending) alone: the block is clustered, every
/// other candidate is a singleton. That is clustering the `p × p` matrix
/// with zeros off the block whenever the threshold `t` is > 0 and no
/// association is NaN: a 0-association singleton can neither reach `t`
/// nor win the scan for the best pair, and the measured clusters keep
/// their relative scan order.
fn cluster_block(assoc: &[Vec<f64>], measured: &[usize], p: usize, t: f64) -> Vec<Vec<usize>> {
    let mut clusters = cluster_attributes(assoc, t);
    for member in clusters.iter_mut().flatten() {
        *member = measured[*member];
    }
    let tail = (0..p).filter(|i| measured.binary_search(i).is_err());
    clusters.extend(tail.map(|i| vec![i]));
    clusters.sort_unstable_by_key(|c| c[0]);
    clusters
}

/// `filterAttrs` over the index's scan-order rows, in one of two scopes.
///
/// `Some(question)` is the paper's §3.1: one forest separating the
/// primary tuple's provenance from the rest of the question's rows (a
/// two-point question trains on its two groups only). `None` ranks
/// attributes by their ability to tell the query's output groups apart in
/// general — one-vs-rest tasks over the largest groups
/// (`one_vs_rest_plan`), importances averaged weighted by `|PT(t)|` — so
/// the result depends only on the APT and the parameters and a
/// [`PreparedApt`](crate::prepared::PreparedApt) holding it serves every
/// later question. The scope decides which rows are trained on and what
/// they are labelled; everything after that is shared.
pub fn select_features_hist(
    apt: &Apt,
    pt: &ProvenanceTable,
    scan_order: &[u32],
    question: Option<&Question>,
    cfg: &FeatSelConfig,
    stats: &dyn ColumnStatsProvider,
) -> FeatureSelection {
    let alone = Reader::new(None, apt);
    select_features(apt, pt, scan_order, question, cfg, stats, &alone)
}

/// [`select_features_hist`], as one `reader` of an ask's share: the
/// training set comes from the reader's `pt_row` scope and the candidate
/// columns from beneath it, wherever an earlier preparation left them.
pub(crate) fn select_features(
    apt: &Apt,
    pt: &ProvenanceTable,
    scan_order: &[u32],
    question: Option<&Question>,
    cfg: &FeatSelConfig,
    stats: &dyn ColumnStatsProvider,
    reader: &Reader,
) -> FeatureSelection {
    let candidates = apt.pattern_fields();
    if candidates.is_empty() {
        return FeatureSelection::empty(apt);
    }
    let training = reader.training(|| training_set(apt, pt, scan_order, question, cfg));
    hist_selection(apt, &candidates, &training, cfg, stats, reader)
}

/// The rows `filterAttrs` trains on and their labels per task, in the
/// scope of `question`. Reads `apt` for its `pt_row` only: APTs over one
/// `pt_row` vector (and one scan order) train on the same set.
fn training_set(
    apt: &Apt,
    pt: &ProvenanceTable,
    scan_order: &[u32],
    question: Option<&Question>,
    cfg: &FeatSelConfig,
) -> Training {
    let group_of = |r: u32| pt.group_of[apt.pt_row[r as usize] as usize] as usize;
    let mut rows: Vec<u32> = match question {
        Some(q) => {
            let asked = scan_order.iter().filter(|&&r| q.in_scope(group_of(r)));
            asked.copied().collect()
        }
        None => scan_order.to_vec(),
    };
    if rows.len() > MAX_TRAIN_ROWS {
        let keep = reservoir_sample(rows.len(), MAX_TRAIN_ROWS, cfg.seed);
        rows = keep.into_iter().map(|i| rows[i]).collect();
    }
    let row_groups: Vec<usize> = rows.iter().map(|&r| group_of(r)).collect();
    let one_vs_rest = |g: usize| -> Vec<bool> { row_groups.iter().map(|&rg| rg == g).collect() };
    let tasks: Vec<(Vec<bool>, f64, RandomForestConfig)> = match question {
        // One forest: the primary tuple against the rest of the scope.
        Some(q) => {
            let forest_cfg = RandomForestConfig {
                num_trees: cfg.forest_trees,
                seed: cfg.seed,
                ..Default::default()
            };
            vec![(one_vs_rest(q.directions()[0].0), 1.0, forest_cfg)]
        }
        None => one_vs_rest_plan(pt, cfg)
            .into_iter()
            .map(|(g, weight, forest_cfg)| (one_vs_rest(g), weight, forest_cfg))
            .collect(),
    };
    Training { rows, tasks }
}

/// Shared tail of `filterAttrs`: representative picking and λ#sel-attr
/// ranking over forest importances. `clusters_local` are the candidates'
/// (indices into `candidates`) correlation clusters, from associations
/// over full values/codes (never over bins); the caller chooses which
/// pairs and rows it measures.
fn finish_selection(
    apt: &Apt,
    candidates: &[usize],
    importances: Vec<f64>,
    clusters_local: Vec<Vec<usize>>,
    cfg: &FeatSelConfig,
) -> FeatureSelection {
    let mut relevance = vec![0.0; apt.fields.len()];
    for (&f, &imp) in candidates.iter().zip(&importances) {
        relevance[f] = imp;
    }

    // Keep one representative per cluster of correlated attributes.
    let reps_local = cluster_representatives(&clusters_local, &importances);

    // Rank representatives by relevance, keep λ#sel-attr of them.
    let mut reps: Vec<usize> = reps_local.iter().map(|&l| candidates[l]).collect();
    // `total_cmp` keeps the ranking a total order even under NaN
    // relevance (see the NaN-safety sweep in `crate::fragments`).
    reps.sort_by(|&a, &b| relevance[b].total_cmp(&relevance[a]).then(a.cmp(&b)));
    let keep = cfg.sel_attr.resolve(reps.len());
    reps.truncate(keep);

    let clusters: Vec<Vec<usize>> = clusters_local
        .iter()
        .map(|c| c.iter().map(|&l| candidates[l]).collect())
        .collect();

    let (num_fields, cat_fields): (Vec<usize>, Vec<usize>) = reps
        .into_iter()
        .partition(|&f| apt.fields[f].kind == AttrKind::Numeric);

    FeatureSelection {
        num_fields,
        cat_fields,
        clusters,
        relevance,
    }
}

/// When feature selection is disabled, every pattern-eligible field is
/// kept (split by kind).
pub fn all_features(apt: &Apt) -> FeatureSelection {
    let candidates = apt.pattern_fields();
    let (num_fields, cat_fields) = candidates
        .into_iter()
        .partition(|&f| apt.fields[f].kind == AttrKind::Numeric);
    FeatureSelection {
        num_fields,
        cat_fields,
        ..FeatureSelection::empty(apt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cajade_graph::JoinGraph;
    use cajade_query::{parse_sql, ProvenanceTable};
    use cajade_storage::{DataType, Database, SchemaBuilder, Value};

    use crate::engine::ScoreIndex;
    use crate::stats::NoSharedStats;

    /// `signal` separates the two groups; `noise` does not; `dup` is a
    /// copy of `signal` (should cluster with it).
    fn fixture() -> (Database, cajade_query::Query) {
        let mut db = Database::new("fs");
        db.create_table(
            SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("grp", DataType::Str, AttrKind::Categorical)
                .column("signal", DataType::Int, AttrKind::Numeric)
                .column("dup", DataType::Int, AttrKind::Numeric)
                .column("noise", DataType::Int, AttrKind::Numeric)
                .column("label_cat", DataType::Str, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        let g1 = db.intern("g1");
        let g2 = db.intern("g2");
        let a = db.intern("a");
        let b = db.intern("b");
        for i in 0..200i64 {
            let grp = if i % 2 == 0 { g1 } else { g2 };
            let signal = if i % 2 == 0 { i % 40 } else { 60 + i % 40 };
            let cat = if i % 2 == 0 { a } else { b };
            db.table_mut("t")
                .unwrap()
                .push_row(vec![
                    Value::Int(i),
                    Value::Str(grp),
                    Value::Int(signal),
                    Value::Int(signal * 2), // perfectly correlated copy
                    Value::Int((i * 7919) % 100),
                    Value::Str(cat),
                ])
                .unwrap();
        }
        let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
        (db, q)
    }

    fn run(sel: SelAttr) -> (FeatureSelection, Apt, Database) {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let question = Question::TwoPoint { t1: 0, t2: 1 };
        let fs = select_features_hist(
            &apt,
            &pt,
            ScoreIndex::exact(&apt, &pt).order(),
            Some(&question),
            &FeatSelConfig {
                sel_attr: sel,
                ..Default::default()
            },
            &NoSharedStats,
        );
        (fs, apt, db)
    }

    #[test]
    fn signal_outranks_noise() {
        let (fs, apt, _db) = run(SelAttr::Count(2));
        let signal = apt.field_index("prov_t_signal").unwrap();
        let noise = apt.field_index("prov_t_noise").unwrap();
        assert!(fs.relevance[signal] > fs.relevance[noise]);
        let selected: Vec<usize> = fs
            .num_fields
            .iter()
            .chain(&fs.cat_fields)
            .copied()
            .collect();
        // `signal`, `dup`, and `label_cat` are mutually redundant (all
        // derived from the same separator); feature selection must keep a
        // representative of that family — which one is up to clustering.
        let family = [
            signal,
            apt.field_index("prov_t_dup").unwrap(),
            apt.field_index("prov_t_label__cat").unwrap(),
        ];
        assert!(
            selected.iter().any(|f| family.contains(f)),
            "selected {selected:?} misses the signal family {family:?}"
        );
        // The family representative carries (much) more relevance than
        // noise — noise may still fill the second Count(2) slot because
        // clustering collapsed the family to a single representative.
        let best_family = family
            .iter()
            .map(|&f| fs.relevance[f])
            .fold(0.0f64, f64::max);
        assert!(best_family > fs.relevance[noise] * 5.0);
    }

    #[test]
    fn correlated_duplicates_share_a_cluster() {
        let (fs, apt, _db) = run(SelAttr::All);
        let signal = apt.field_index("prov_t_signal").unwrap();
        let dup = apt.field_index("prov_t_dup").unwrap();
        let cluster_of = |f: usize| fs.clusters.iter().position(|c| c.contains(&f));
        assert_eq!(cluster_of(signal), cluster_of(dup));
        // And only one of them is selected.
        let both: Vec<bool> = [signal, dup]
            .iter()
            .map(|f| fs.num_fields.contains(f))
            .collect();
        assert!(both.iter().filter(|&&x| x).count() <= 1);
    }

    #[test]
    fn kinds_are_partitioned() {
        let (fs, apt, _db) = run(SelAttr::All);
        for &f in &fs.num_fields {
            assert_eq!(apt.fields[f].kind, AttrKind::Numeric);
        }
        for &f in &fs.cat_fields {
            assert_eq!(apt.fields[f].kind, AttrKind::Categorical);
        }
    }

    proptest::proptest! {
        /// Clustering the measured block and appending the rest as
        /// singletons is clustering the whole zero-padded candidates ×
        /// candidates matrix, for every threshold in `(−0.1, 1.1]`, with associations drawn
        /// from a few values so that averages tie. A threshold ≤ 0
        /// measures every candidate, as `hist_selection` does.
        #[test]
        fn prop_block_clustering_is_the_padded_matrix(
            p in 1usize..14,
            levels in proptest::collection::vec(0usize..6, 196..197),
            picked in proptest::collection::vec(proptest::bool::ANY, 14..15),
            t in 0usize..9,
        ) {
            let value = [0.0, 0.25, 0.5, 0.9, 0.95, 1.0];
            let threshold = [-0.05, 0.0, 0.25, 0.5, 0.7, 0.9, 0.95, 1.0, 1.1][t];
            let assoc = |i: usize, j: usize| {
                if i == j { 1.0 } else { value[levels[i.min(j) * 14 + i.max(j)]] }
            };
            let measured: Vec<usize> = (0..p).filter(|&i| picked[i] || threshold <= 0.0).collect();
            let block: Vec<Vec<f64>> =
                measured.iter().map(|&i| measured.iter().map(|&j| assoc(i, j)).collect()).collect();
            let padded: Vec<Vec<f64>> = (0..p)
                .map(|i| {
                    let in_block = |j: usize| i == j || measured.contains(&i) && measured.contains(&j);
                    (0..p).map(|j| if in_block(j) { assoc(i, j) } else { 0.0 }).collect()
                })
                .collect();
            proptest::prop_assert_eq!(
                cluster_block(&block, &measured, p, threshold),
                cluster_attributes(&padded, threshold)
            );
        }
    }

    #[test]
    fn fraction_and_count_resolution() {
        assert_eq!(SelAttr::Count(3).resolve(10), 3);
        assert_eq!(SelAttr::Count(30).resolve(10), 10);
        assert_eq!(SelAttr::Fraction(0.25).resolve(10), 3); // ceil
        assert_eq!(SelAttr::Fraction(0.0).resolve(10), 1); // at least one
        assert_eq!(SelAttr::All.resolve(10), 10);
    }

    #[test]
    fn all_features_keeps_everything_but_group_by() {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let fs = all_features(&apt);
        let total = fs.num_fields.len() + fs.cat_fields.len();
        assert_eq!(total, apt.pattern_fields().len());
        let _ = db;
    }
}
