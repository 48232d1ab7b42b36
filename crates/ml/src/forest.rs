//! Random forests = bagged CART trees + mean-decrease-impurity
//! importances.
//!
//! CaJaDE trains a forest to predict whether an APT row belongs to the
//! provenance of output `t1` or `t2` (paper §3.1, citing Breiman 2001) and
//! keeps the λ#sel-attr most relevant attributes for pattern mining.
//! [`RandomForest`] is the float-matrix reference; [`HistForest`] bags
//! histogram trees over pre-binned columns through the *same* bagging
//! loop (the private `fit_bagged`), so the bootstrap draws, √p feature
//! default, and importance normalization stay in lockstep by
//! construction. The
//! two agree bit-for-bit when the binning is lossless **and** no
//! per-node candidate sampling fires in the float trainer (its
//! categorical split search consumes extra RNG once a node exceeds
//! `max_thresholds` distinct values, which the histogram trainer never
//! does) — the condition the equivalence tests arrange.

use std::borrow::Borrow;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::{BinnedColumn, FeatureColumn};
use crate::tree::{DecisionTree, HistTree, TreeConfig};

/// The bagging loop shared by both forests: seeded bootstrap draws,
/// √p features-per-node default, per-tree fit, summed + normalized
/// mean-decrease-impurity importances. One copy keeps the two forests'
/// RNG streams identical by construction.
fn fit_bagged<T>(
    num_features: usize,
    n: usize,
    config: &RandomForestConfig,
    mut fit_tree: impl FnMut(&[u32], &TreeConfig, &mut StdRng) -> T,
    importances_of: impl Fn(&T) -> &[f64],
) -> (Vec<T>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut tree_cfg = config.tree.clone();
    if tree_cfg.features_per_node.is_none() {
        tree_cfg.features_per_node = Some(((num_features as f64).sqrt().ceil() as usize).max(1));
    }

    let sample_size = ((n as f64) * config.bootstrap_fraction).round().max(1.0) as usize;
    let mut trees = Vec::with_capacity(config.num_trees);
    let mut importances = vec![0.0; num_features];

    for _ in 0..config.num_trees {
        let rows: Vec<u32> = if n == 0 {
            Vec::new()
        } else {
            (0..sample_size)
                .map(|_| rng.gen_range(0..n) as u32)
                .collect()
        };
        let tree = fit_tree(&rows, &tree_cfg, &mut rng);
        for (imp, t) in importances.iter_mut().zip(importances_of(&tree)) {
            *imp += t;
        }
        trees.push(tree);
    }

    let total: f64 = importances.iter().sum();
    if total > 0.0 {
        for imp in &mut importances {
            *imp /= total;
        }
    }
    (trees, importances)
}

/// Feature indices sorted by decreasing importance (ties broken by
/// index for determinism).
fn ranked_by_importance(importances: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..importances.len()).collect();
    // `total_cmp`, so a NaN importance cannot make the ranking depend on
    // scan order.
    idx.sort_by(|&a, &b| importances[b].total_cmp(&importances[a]).then(a.cmp(&b)));
    idx
}

/// Forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub num_trees: usize,
    /// Per-tree configuration (feature subsampling defaults to √p).
    pub tree: TreeConfig,
    /// Bootstrap sample size as a fraction of the training set.
    pub bootstrap_fraction: f64,
    /// RNG seed (forests are deterministic given the seed).
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            num_trees: 20,
            tree: TreeConfig::default(),
            bootstrap_fraction: 1.0,
            seed: 0xCA1ADE,
        }
    }
}

/// A fitted forest.
#[derive(Debug)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    /// Normalized mean-decrease-impurity importances (sum to 1 unless all
    /// zero).
    pub importances: Vec<f64>,
}

impl RandomForest {
    /// Fits a forest on all rows of `features` / `labels`.
    pub fn fit(
        features: &[FeatureColumn],
        labels: &[bool],
        config: &RandomForestConfig,
    ) -> RandomForest {
        assert!(!features.is_empty(), "need at least one feature");
        let n = labels.len();
        assert!(features.iter().all(|f| f.len() == n), "ragged features");

        let (trees, importances) = fit_bagged(
            features.len(),
            n,
            config,
            |rows, tree_cfg, rng| {
                let rows: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
                DecisionTree::fit(features, labels, &rows, tree_cfg, rng)
            },
            |t| &t.importances,
        );
        RandomForest { trees, importances }
    }

    /// Mean predicted probability of the positive class.
    pub fn predict_proba(&self, features: &[FeatureColumn], row: usize) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        self.trees
            .iter()
            .map(|t| t.predict_proba(features, row))
            .sum::<f64>()
            / self.trees.len() as f64
    }

    /// Feature indices sorted by decreasing importance (ties broken by
    /// index for determinism).
    pub fn ranked_features(&self) -> Vec<usize> {
        ranked_by_importance(&self.importances)
    }
}

/// A forest of [`HistTree`]s over pre-binned columns.
///
/// Shares [`RandomForestConfig`] (and, through the common bagging
/// loop, the bootstrap / √p-feature defaults and RNG stream) with the
/// float forest; only the per-tree trainer differs.
#[derive(Debug)]
pub struct HistForest {
    trees: Vec<HistTree>,
    /// Normalized mean-decrease-impurity importances (sum to 1 unless all
    /// zero).
    pub importances: Vec<f64>,
}

impl HistForest {
    /// Fits a histogram forest on all rows of `cols` / `labels`. The
    /// columns may be owned or borrowed (see [`HistTree::fit`]).
    pub fn fit<C: Borrow<BinnedColumn>>(
        cols: &[C],
        labels: &[bool],
        config: &RandomForestConfig,
    ) -> HistForest {
        assert!(!cols.is_empty(), "need at least one feature");
        let n = labels.len();
        assert!(
            cols.iter().all(|c| c.borrow().len() == n),
            "ragged features"
        );

        let (trees, importances) = fit_bagged(
            cols.len(),
            n,
            config,
            |rows, tree_cfg, rng| HistTree::fit(cols, labels, rows, tree_cfg, rng),
            |t| &t.importances,
        );
        HistForest { trees, importances }
    }

    /// Mean predicted probability of the positive class.
    pub fn predict_proba(&self, cols: &[BinnedColumn], row: usize) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        self.trees
            .iter()
            .map(|t| t.predict_proba(cols, row))
            .sum::<f64>()
            / self.trees.len() as f64
    }

    /// Feature indices sorted by decreasing importance (ties broken by
    /// index for determinism).
    pub fn ranked_features(&self) -> Vec<usize> {
        ranked_by_importance(&self.importances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<FeatureColumn>, Vec<bool>) {
        // y = (a XOR b); c is noise. A single stump cannot learn XOR but a
        // depth-2 forest can.
        let n = 400;
        let a: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let b: Vec<u32> = (0..n).map(|i| ((i / 2) % 2) as u32).collect();
        let c: Vec<f64> = (0..n).map(|i| ((i * 37) % 100) as f64).collect();
        let labels: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| (x ^ y) == 1).collect();
        (
            vec![
                FeatureColumn::Categorical(a),
                FeatureColumn::Categorical(b),
                FeatureColumn::Numeric(c),
            ],
            labels,
        )
    }

    #[test]
    fn forest_learns_xor_and_ranks_noise_last() {
        let (features, labels) = xor_data();
        let forest = RandomForest::fit(&features, &labels, &RandomForestConfig::default());
        let correct = (0..labels.len())
            .filter(|&r| (forest.predict_proba(&features, r) > 0.5) == labels[r])
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.9, "acc {correct}");
        let ranked = forest.ranked_features();
        assert_eq!(ranked[2], 2, "noise feature ranked last: {ranked:?}");
    }

    #[test]
    fn importances_normalized() {
        let (features, labels) = xor_data();
        let forest = RandomForest::fit(&features, &labels, &RandomForestConfig::default());
        let sum: f64 = forest.importances.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(forest.importances.iter().all(|&i| i >= 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let (features, labels) = xor_data();
        let cfg = RandomForestConfig::default();
        let f1 = RandomForest::fit(&features, &labels, &cfg);
        let f2 = RandomForest::fit(&features, &labels, &cfg);
        assert_eq!(f1.importances, f2.importances);
    }

    #[test]
    fn constant_labels_give_uninformative_forest() {
        let features = vec![FeatureColumn::Numeric((0..50).map(|i| i as f64).collect())];
        let labels = vec![true; 50];
        let forest = RandomForest::fit(&features, &labels, &RandomForestConfig::default());
        // No split ever helps; importances all zero.
        assert!(forest.importances.iter().all(|&i| i == 0.0));
        assert!(forest.predict_proba(&features, 0) > 0.99);
    }

    // ---- histogram forest ---------------------------------------------

    fn binned_xor_data() -> (Vec<BinnedColumn>, Vec<bool>) {
        let (features, labels) = xor_data();
        let cols = features
            .iter()
            .map(|f| match f {
                FeatureColumn::Numeric(v) => BinnedColumn::from_f64(v, 32),
                FeatureColumn::Categorical(v) => {
                    BinnedColumn::from_keys(v.iter().map(|&c| Some(c as u64)), 32)
                }
            })
            .collect();
        (cols, labels)
    }

    #[test]
    fn hist_forest_learns_xor_and_ranks_noise_last() {
        let (cols, labels) = binned_xor_data();
        let forest = HistForest::fit(&cols, &labels, &RandomForestConfig::default());
        let correct = (0..labels.len())
            .filter(|&r| (forest.predict_proba(&cols, r) > 0.5) == labels[r])
            .count();
        assert!(correct as f64 / labels.len() as f64 > 0.9, "acc {correct}");
        assert_eq!(forest.ranked_features()[2], 2);
    }

    #[test]
    fn hist_forest_deterministic_and_normalized() {
        let (cols, labels) = binned_xor_data();
        let cfg = RandomForestConfig::default();
        let f1 = HistForest::fit(&cols, &labels, &cfg);
        let f2 = HistForest::fit(&cols, &labels, &cfg);
        assert_eq!(f1.importances, f2.importances);
        let sum: f64 = f1.importances.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// With lossless binning (small discrete domains) the histogram
    /// forest replays the float forest's RNG stream and split decisions
    /// exactly — the normalized importances are bit-identical.
    #[test]
    fn hist_forest_matches_float_forest_on_lossless_binning() {
        let n = 400usize;
        let a: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 9) as f64).collect();
        let labels: Vec<bool> = (0..n).map(|i| (a[i] == 1) ^ (x[i] > 3.0)).collect();
        let features = vec![
            FeatureColumn::Categorical(a.clone()),
            FeatureColumn::Numeric(x.clone()),
        ];
        let cols = vec![
            BinnedColumn::from_keys(a.iter().map(|&c| Some(c as u64)), 16),
            BinnedColumn::from_f64(&x, 16),
        ];
        let cfg = RandomForestConfig::default();
        let float = RandomForest::fit(&features, &labels, &cfg);
        let hist = HistForest::fit(&cols, &labels, &cfg);
        assert_eq!(float.importances, hist.importances);
        assert_eq!(float.ranked_features(), hist.ranked_features());
    }

    /// A deterministic stand-in for a hash: spreads `i` over `0..m`.
    fn mix(i: usize, salt: usize, m: usize) -> usize {
        (i.wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(40_503)).wrapping_mul(2_246_822_519) % m
    }

    /// `filterAttrs`' group-global shape over `n` rows × `p` columns: every
    /// third column categorical (from column 5 on, past the 32-bin budget,
    /// so its rare tail shares an "other" bin), the rest quantile-binned
    /// with missing cells; four one-vs-rest tasks of 5 trees, each on a
    /// quarter-size bootstrap, √p features per node. Returns the bits of
    /// the importances summed over the four tasks, and each task's node
    /// count.
    fn production_shape(n: usize, p: usize) -> (Vec<u64>, Vec<usize>) {
        let cols: Vec<BinnedColumn> = (0..p)
            .map(|f| {
                if f % 3 == 2 {
                    let keys = (0..n).map(|i| (i % 19 != 0).then(|| mix(i, f, 5 + 9 * f) as u64));
                    BinnedColumn::from_keys(keys.collect::<Vec<_>>(), 32)
                } else {
                    let vals: Vec<f64> = (0..n)
                        .map(|i| match mix(i, f + 100, 13) {
                            0 => f64::NAN,
                            _ => mix(i, f, 10_000) as f64,
                        })
                        .collect();
                    BinnedColumn::from_f64(&vals, 32)
                }
            })
            .collect();
        let group = |i: usize| {
            (mix(i, 0, 10_000) / 2_500
                + usize::from(mix(i, 1, 10_000) > 5_000)
                + usize::from(mix(i, 999, 10) == 0))
                % 4
        };
        let mut importances = vec![0.0; p];
        let mut nodes = Vec::new();
        for task in 0..4 {
            let labels: Vec<bool> = (0..n).map(|i| group(i) == task).collect();
            let cfg = RandomForestConfig {
                num_trees: 5,
                bootstrap_fraction: 0.25,
                seed: 0xFEA7 + task as u64,
                ..Default::default()
            };
            let forest = HistForest::fit(&cols, &labels, &cfg);
            for (sum, imp) in importances.iter_mut().zip(&forest.importances) {
                *sum += imp;
            }
            nodes.push(forest.trees.iter().map(HistTree::num_nodes).sum());
        }
        (importances.iter().map(|x| x.to_bits()).collect(), nodes)
    }

    /// The production shape, pinned as bit patterns recorded on the
    /// per-feature counting kernel before the one-sweep node loop
    /// replaced it: √p sampling shuffles, bootstrap rows repeat, bins are
    /// lossy — nothing here has a float reference.
    #[test]
    fn hist_forest_production_shape_1250x23_matches_recorded_bits() {
        let (bits, nodes) = production_shape(1_250, 23);
        assert_eq!(
            bits,
            [
                0x3febf65ec75444cf,
                0x3fd2a88390787e97,
                0x3fc7691713514363,
                0x3fc3eb1b1c76ae10,
                0x3fc0813b70f24b4a,
                0x3fc8aa9cfde9c45b,
                0x3fc12d28e8b07842,
                0x3fbcdf25dd195d76,
                0x3fbfb3aefd5051a3,
                0x3fc0d5253d57ab10,
                0x3fd03176fcda7f4a,
                0x3fbea9021541d7d7,
                0x3fc34efeb4fd2ea1,
                0x3fb9fc7fba92051a,
                0x3fc390a58087b6df,
                0x3fc80d4ede2fbca9,
                0x3fb6f6101ca3d075,
                0x3fc0ded9031e8dfd,
                0x3fbce7b19817190e,
                0x3fc32f1b53b61dd0,
                0x3fa34897533ff30f,
                0x3fb3d6fe09ae336b,
                0x3fbb593d1f605acc,
            ]
        );
        assert_eq!(nodes, [291, 385, 199, 321]);
    }

    /// As above, at the `e2e_bench` `ml_micro` shape's 20 000 × 7.
    #[test]
    fn hist_forest_production_shape_20000x7_matches_recorded_bits() {
        let (bits, nodes) = production_shape(20_000, 7);
        assert_eq!(
            bits,
            [
                0x4002e18c433cf5f6,
                0x3ff256710ae430aa,
                0x3fb9a3cd76fdbfaf,
                0x3fb6c05dd1aff8b5,
                0x3fb310247f3753d5,
                0x3fc25e130a5038fe,
                0x3fb636f10d98b87e,
            ]
        );
        assert_eq!(nodes, [1025, 941, 953, 943]);
    }
}
