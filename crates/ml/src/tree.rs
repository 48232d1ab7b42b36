//! CART decision trees for binary classification with Gini impurity.
//!
//! Two trainers share the split semantics (numeric `x ≤ t`, categorical
//! `x = v`, missing always right) and the per-feature impurity-decrease
//! bookkeeping that feeds the forest's mean-decrease-impurity
//! importances:
//!
//! * [`DecisionTree`] — the float-matrix reference: per node it re-scans
//!   and re-sorts the node's rows for every candidate threshold;
//! * [`HistTree`] — the histogram trainer on pre-binned
//!   [`BinnedColumn`]s: per node it counts one class histogram for each
//!   feature the node sampled (⌈√p⌉ of them in a forest) and reads every
//!   candidate split of that feature off the histogram.

use std::borrow::Borrow;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::dataset::{BinKind, BinnedColumn, FeatureColumn};

/// Tree hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum depth.
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Number of candidate features per node (`None` = all).
    pub features_per_node: Option<usize>,
    /// Max candidate thresholds per numeric feature per node.
    pub max_thresholds: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 8,
            min_samples_split: 4,
            features_per_node: None,
            max_thresholds: 16,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Probability of the positive class.
        prob: f64,
    },
    SplitNum {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    SplitCat {
        feature: usize,
        value: u32,
        left: usize,
        right: usize,
    },
}

/// A fitted decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    /// Per-feature accumulated (weighted) impurity decrease.
    pub importances: Vec<f64>,
}

fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

impl DecisionTree {
    /// Fits a tree on the rows listed in `rows`.
    pub fn fit(
        features: &[FeatureColumn],
        labels: &[bool],
        rows: &[usize],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Self {
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            importances: vec![0.0; features.len()],
        };
        let n_total = rows.len().max(1) as f64;
        tree.build(features, labels, rows.to_vec(), config, rng, 0, n_total);
        tree
    }

    fn leaf(&mut self, labels: &[bool], rows: &[usize]) -> usize {
        let pos = rows.iter().filter(|&&r| labels[r]).count() as f64;
        let prob = if rows.is_empty() {
            0.5
        } else {
            pos / rows.len() as f64
        };
        self.nodes.push(Node::Leaf { prob });
        self.nodes.len() - 1
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        features: &[FeatureColumn],
        labels: &[bool],
        rows: Vec<usize>,
        config: &TreeConfig,
        rng: &mut StdRng,
        depth: usize,
        n_total: f64,
    ) -> usize {
        let pos = rows.iter().filter(|&&r| labels[r]).count() as f64;
        let total = rows.len() as f64;
        let node_gini = gini(pos, total);

        if depth >= config.max_depth || rows.len() < config.min_samples_split || node_gini == 0.0 {
            return self.leaf(labels, &rows);
        }

        // Candidate feature subset.
        let mut feat_idx: Vec<usize> = (0..features.len()).collect();
        if let Some(k) = config.features_per_node {
            feat_idx.shuffle(rng);
            feat_idx.truncate(k.max(1));
        }

        let mut best: Option<(f64, Split)> = None;
        for &f in &feat_idx {
            if let Some((gain, split)) =
                best_split_for_feature(&features[f], labels, &rows, f, config, rng)
            {
                if best.as_ref().is_none_or(|(bg, _)| gain > *bg) {
                    best = Some((gain, split));
                }
            }
        }

        let Some((gain, split)) = best else {
            return self.leaf(labels, &rows);
        };
        if gain <= 1e-12 {
            return self.leaf(labels, &rows);
        }

        // Partition rows.
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = match split {
            Split::Num { feature, threshold } => {
                rows.iter().partition(|&&r| match &features[feature] {
                    FeatureColumn::Numeric(v) => !v[r].is_nan() && v[r] <= threshold,
                    _ => unreachable!(),
                })
            }
            Split::Cat { feature, value } => {
                rows.iter().partition(|&&r| match &features[feature] {
                    FeatureColumn::Categorical(v) => v[r] == value,
                    _ => unreachable!(),
                })
            }
        };
        if left_rows.is_empty() || right_rows.is_empty() {
            return self.leaf(labels, &rows);
        }

        // Weighted impurity decrease contributes to the feature's importance.
        let f = match split {
            Split::Num { feature, .. } | Split::Cat { feature, .. } => feature,
        };
        self.importances[f] += gain * (total / n_total);

        let placeholder = self.nodes.len();
        self.nodes.push(Node::Leaf { prob: 0.5 }); // replaced below
        let left = self.build(features, labels, left_rows, config, rng, depth + 1, n_total);
        let right = self.build(
            features,
            labels,
            right_rows,
            config,
            rng,
            depth + 1,
            n_total,
        );
        self.nodes[placeholder] = match split {
            Split::Num { feature, threshold } => Node::SplitNum {
                feature,
                threshold,
                left,
                right,
            },
            Split::Cat { feature, value } => Node::SplitCat {
                feature,
                value,
                left,
                right,
            },
        };
        placeholder
    }

    /// Predicted probability of the positive class for row `row`.
    pub fn predict_proba(&self, features: &[FeatureColumn], row: usize) -> f64 {
        // Root is node created first at each recursion level; by
        // construction the root of the whole tree is node 0.
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { prob } => return *prob,
                Node::SplitNum {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let go_left = match &features[*feature] {
                        FeatureColumn::Numeric(v) => !v[row].is_nan() && v[row] <= *threshold,
                        _ => false,
                    };
                    idx = if go_left { *left } else { *right };
                }
                Node::SplitCat {
                    feature,
                    value,
                    left,
                    right,
                } => {
                    let go_left = match &features[*feature] {
                        FeatureColumn::Categorical(v) => v[row] == *value,
                        _ => false,
                    };
                    idx = if go_left { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes (for tests).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[derive(Debug, Clone, Copy)]
enum Split {
    Num { feature: usize, threshold: f64 },
    Cat { feature: usize, value: u32 },
}

fn best_split_for_feature(
    col: &FeatureColumn,
    labels: &[bool],
    rows: &[usize],
    feature: usize,
    config: &TreeConfig,
    rng: &mut StdRng,
) -> Option<(f64, Split)> {
    let total = rows.len() as f64;
    let pos_total = rows.iter().filter(|&&r| labels[r]).count() as f64;
    let parent = gini(pos_total, total);

    match col {
        FeatureColumn::Numeric(v) => {
            // Candidate thresholds: up to max_thresholds values sampled from
            // the node's distinct values.
            let mut vals: Vec<f64> = rows.iter().map(|&r| v[r]).filter(|x| !x.is_nan()).collect();
            if vals.is_empty() {
                return None;
            }
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            if vals.len() > config.max_thresholds {
                // Evenly spaced quantile thresholds.
                let step = vals.len() as f64 / config.max_thresholds as f64;
                vals = (0..config.max_thresholds)
                    .map(|i| vals[(i as f64 * step) as usize])
                    .collect();
            }
            let mut best: Option<(f64, Split)> = None;
            for &t in &vals {
                let (mut lp, mut ln, mut rp, mut rn) = (0.0, 0.0, 0.0, 0.0);
                for &r in rows {
                    let x = v[r];
                    let left = !x.is_nan() && x <= t;
                    let y = labels[r];
                    match (left, y) {
                        (true, true) => lp += 1.0,
                        (true, false) => ln += 1.0,
                        (false, true) => rp += 1.0,
                        (false, false) => rn += 1.0,
                    }
                }
                let lt = lp + ln;
                let rt = rp + rn;
                if lt == 0.0 || rt == 0.0 {
                    continue;
                }
                let child = (lt / total) * gini(lp, lt) + (rt / total) * gini(rp, rt);
                let gain = parent - child;
                if best.as_ref().is_none_or(|(bg, _)| gain > *bg) {
                    best = Some((
                        gain,
                        Split::Num {
                            feature,
                            threshold: t,
                        },
                    ));
                }
            }
            best
        }
        FeatureColumn::Categorical(v) => {
            // Candidate values: distinct codes in the node (capped, sampled).
            let mut vals: Vec<u32> = rows
                .iter()
                .map(|&r| v[r])
                .filter(|&x| x != u32::MAX)
                .collect();
            vals.sort_unstable();
            vals.dedup();
            if vals.len() > config.max_thresholds {
                vals.shuffle(rng);
                vals.truncate(config.max_thresholds);
            }
            let mut best: Option<(f64, Split)> = None;
            for &val in &vals {
                let (mut lp, mut ln, mut rp, mut rn) = (0.0, 0.0, 0.0, 0.0);
                for &r in rows {
                    let left = v[r] == val;
                    let y = labels[r];
                    match (left, y) {
                        (true, true) => lp += 1.0,
                        (true, false) => ln += 1.0,
                        (false, true) => rp += 1.0,
                        (false, false) => rn += 1.0,
                    }
                }
                let lt = lp + ln;
                let rt = rp + rn;
                if lt == 0.0 || rt == 0.0 {
                    continue;
                }
                let child = (lt / total) * gini(lp, lt) + (rt / total) * gini(rp, rt);
                let gain = parent - child;
                if best.as_ref().is_none_or(|(bg, _)| gain > *bg) {
                    best = Some((
                        gain,
                        Split::Cat {
                            feature,
                            value: val,
                        },
                    ));
                }
            }
            best
        }
    }
}

// ---------------------------------------------------------------------
// Histogram-based CART on pre-binned columns.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HNode {
    Leaf {
        prob: f64,
    },
    /// Go left iff `code ≤ bin` (missing bin is always greater).
    SplitNum {
        feature: usize,
        bin: u16,
        left: usize,
        right: usize,
    },
    /// Go left iff `code == code_eq`.
    SplitCat {
        feature: usize,
        code_eq: u16,
        left: usize,
        right: usize,
    },
}

/// A CART tree trained on [`BinnedColumn`]s with per-node class
/// histograms instead of row re-scans.
///
/// Split search walks each candidate feature's bin histogram once
/// (`O(bins)` per feature) rather than re-scanning and re-sorting the
/// node's rows per candidate threshold. A node counts a histogram only
/// for the features it sampled — one pass over its rows each, into one
/// buffer the fit owns — and its rows are a range of one index buffer,
/// partitioned in place, so a fit allocates a fixed handful of blocks
/// whatever the number of features or nodes. On bins that losslessly
/// cover the value domain the chosen splits — and therefore the
/// mean-decrease-impurity importances — are identical to
/// [`DecisionTree`]'s (see the equivalence tests).
#[derive(Debug, Clone)]
pub struct HistTree {
    nodes: Vec<HNode>,
    /// Per-feature accumulated (weighted) impurity decrease.
    pub importances: Vec<f64>,
}

/// What one [`HistTree::fit`] reads and reuses at every node.
struct HistFit<'a, C> {
    cols: &'a [C],
    labels: &'a [bool],
    config: &'a TreeConfig,
    n_total: f64,
    /// The bootstrap rows; a node owns a contiguous range of them and
    /// splits it in place into its children's ranges.
    rows: Vec<u32>,
    /// Candidate features, refilled `0..p` before every shuffle so each
    /// node draws from the RNG exactly as a fresh `(0..p).collect()` did.
    feat_idx: Vec<usize>,
    /// `[neg, pos]` counts of the feature under consideration, as wide as
    /// the widest column (`num_bins + 1`: the trailing slot is the
    /// missing bin).
    hist: Vec<[u32; 2]>,
}

impl HistTree {
    /// Fits a tree on the rows listed in `rows`. The columns may be owned
    /// or borrowed (`&[BinnedColumn]`, `&[&BinnedColumn]`, …): a caller
    /// whose columns live in different places does not copy them together.
    pub fn fit<C: Borrow<BinnedColumn>>(
        cols: &[C],
        labels: &[bool],
        rows: &[u32],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Self {
        let mut tree = HistTree {
            nodes: Vec::new(),
            importances: vec![0.0; cols.len()],
        };
        let widest = cols.iter().map(|c| c.borrow().num_bins() as usize + 1);
        let widest = widest.max();
        let mut fit = HistFit {
            cols,
            labels,
            config,
            n_total: rows.len().max(1) as f64,
            rows: rows.to_vec(),
            feat_idx: Vec::with_capacity(cols.len()),
            hist: vec![[0; 2]; widest.unwrap_or(0)],
        };
        tree.build(&mut fit, rng, 0, rows.len(), 0);
        tree
    }

    fn leaf(&mut self, pos: f64, total: f64) -> usize {
        let prob = if total == 0.0 { 0.5 } else { pos / total };
        self.nodes.push(HNode::Leaf { prob });
        self.nodes.len() - 1
    }

    /// Grows the subtree over `fit.rows[lo..hi]`; returns its root.
    fn build<C: Borrow<BinnedColumn>>(
        &mut self,
        fit: &mut HistFit<C>,
        rng: &mut StdRng,
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> usize {
        let (cols, labels, config) = (fit.cols, fit.labels, fit.config);
        let node_rows = &fit.rows[lo..hi];
        let pos = node_rows.iter().filter(|&&r| labels[r as usize]).count() as f64;
        let total = node_rows.len() as f64;
        let node_gini = gini(pos, total);

        if depth >= config.max_depth
            || node_rows.len() < config.min_samples_split
            || node_gini == 0.0
        {
            return self.leaf(pos, total);
        }

        // Candidate feature subset (same policy as the float trainer).
        fit.feat_idx.clear();
        fit.feat_idx.extend(0..cols.len());
        if let Some(k) = config.features_per_node {
            fit.feat_idx.shuffle(rng);
            fit.feat_idx.truncate(k.max(1));
        }

        let mut best: Option<(f64, HSplit)> = None;
        for &f in &fit.feat_idx {
            let col: &BinnedColumn = cols[f].borrow();
            let hist = &mut fit.hist[..col.num_bins() as usize + 1];
            hist.fill([0; 2]);
            for &r in node_rows {
                hist[col.code(r as usize) as usize][labels[r as usize] as usize] += 1;
            }
            if let Some((gain, split)) = best_hist_split(col, hist, f, node_gini, pos, total) {
                if best.as_ref().is_none_or(|(bg, _)| gain > *bg) {
                    best = Some((gain, split));
                }
            }
        }

        let Some((gain, split)) = best else {
            return self.leaf(pos, total);
        };
        if gain <= 1e-12 {
            return self.leaf(pos, total);
        }

        let node_rows = &mut fit.rows[lo..hi];
        let (feature, left_len) = match split {
            HSplit::Num { feature, bin } => {
                let col: &BinnedColumn = cols[feature].borrow();
                let left = partition_in_place(node_rows, |r| col.code(r as usize) <= bin);
                (feature, left)
            }
            HSplit::Cat { feature, code } => {
                let col: &BinnedColumn = cols[feature].borrow();
                let left = partition_in_place(node_rows, |r| col.code(r as usize) == code);
                (feature, left)
            }
        };
        if left_len == 0 || left_len == node_rows.len() {
            return self.leaf(pos, total);
        }
        self.importances[feature] += gain * (total / fit.n_total);

        let placeholder = self.nodes.len();
        self.nodes.push(HNode::Leaf { prob: 0.5 }); // replaced below
        let mid = lo + left_len;
        let left = self.build(fit, rng, lo, mid, depth + 1);
        let right = self.build(fit, rng, mid, hi, depth + 1);
        self.nodes[placeholder] = match split {
            HSplit::Num { feature, bin } => HNode::SplitNum {
                feature,
                bin,
                left,
                right,
            },
            HSplit::Cat { feature, code } => HNode::SplitCat {
                feature,
                code_eq: code,
                left,
                right,
            },
        };
        placeholder
    }

    /// Predicted probability of the positive class for row `row`.
    pub fn predict_proba(&self, cols: &[BinnedColumn], row: usize) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                HNode::Leaf { prob } => return *prob,
                HNode::SplitNum {
                    feature,
                    bin,
                    left,
                    right,
                } => {
                    idx = if cols[*feature].code(row) <= *bin {
                        *left
                    } else {
                        *right
                    };
                }
                HNode::SplitCat {
                    feature,
                    code_eq,
                    left,
                    right,
                } => {
                    idx = if cols[*feature].code(row) == *code_eq {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (for tests).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[derive(Debug, Clone, Copy)]
enum HSplit {
    Num { feature: usize, bin: u16 },
    Cat { feature: usize, code: u16 },
}

/// Moves the rows `goes_left` accepts to the front of `rows` and returns
/// how many there are. Order within a side is not kept: every reader of
/// a node's rows only counts them.
fn partition_in_place(rows: &mut [u32], goes_left: impl Fn(u32) -> bool) -> usize {
    let mut left = 0;
    for i in 0..rows.len() {
        if goes_left(rows[i]) {
            rows.swap(left, i);
            left += 1;
        }
    }
    left
}

/// Best split of one feature, read off its node histogram: numeric bins
/// are scanned as a prefix sum (split candidates are the bin upper
/// edges), categorical bins as one-vs-rest equality splits. Missing rows
/// (trailing histogram slot) always stay on the right side, matching the
/// float trainer's NaN routing.
fn best_hist_split(
    col: &BinnedColumn,
    hist: &[[u32; 2]],
    feature: usize,
    parent_gini: f64,
    pos_total: f64,
    total: f64,
) -> Option<(f64, HSplit)> {
    let mut best: Option<(f64, HSplit)> = None;
    let mut consider = |gain: f64, split: HSplit| {
        if best.as_ref().is_none_or(|(bg, _)| gain > *bg) {
            best = Some((gain, split));
        }
    };
    match col.kind() {
        BinKind::Numeric { thresholds } => {
            let (mut lp, mut ln) = (0.0f64, 0.0f64);
            for (b, cell) in hist.iter().take(thresholds.len()).enumerate() {
                lp += cell[1] as f64;
                ln += cell[0] as f64;
                let lt = lp + ln;
                let rt = total - lt;
                if lt == 0.0 || rt == 0.0 {
                    continue;
                }
                let rp = pos_total - lp;
                let child = (lt / total) * gini(lp, lt) + (rt / total) * gini(rp, rt);
                consider(
                    parent_gini - child,
                    HSplit::Num {
                        feature,
                        bin: b as u16,
                    },
                );
            }
        }
        BinKind::Categorical { split_values } => {
            for v in 0..*split_values {
                let [ln, lp] = hist[v as usize];
                let (lp, ln) = (lp as f64, ln as f64);
                let lt = lp + ln;
                let rt = total - lt;
                if lt == 0.0 || rt == 0.0 {
                    continue;
                }
                let rp = pos_total - lp;
                let child = (lt / total) * gini(lp, lt) + (rt / total) * gini(rp, rt);
                consider(parent_gini - child, HSplit::Cat { feature, code: v });
            }
        }
    }
    best
}

/// Deterministic rng helper for tests.
#[cfg(test)]
pub(crate) fn test_rng(seed: u64) -> StdRng {
    use rand::SeedableRng;
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(0.0, 10.0), 0.0);
        assert_eq!(gini(10.0, 10.0), 0.0);
        assert!((gini(5.0, 10.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn learns_numeric_threshold() {
        // y = x > 5
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let labels: Vec<bool> = xs.iter().map(|&x| x > 5.0).collect();
        let features = vec![FeatureColumn::Numeric(xs)];
        let rows: Vec<usize> = (0..100).collect();
        let mut rng = test_rng(7);
        let tree = DecisionTree::fit(&features, &labels, &rows, &TreeConfig::default(), &mut rng);
        let correct = rows
            .iter()
            .filter(|&&r| (tree.predict_proba(&features, r) > 0.5) == labels[r])
            .count();
        assert!(correct >= 95, "got {correct}/100 correct");
        assert!(tree.importances[0] > 0.0);
    }

    #[test]
    fn learns_categorical_split() {
        // y = (cat == 3)
        let cats: Vec<u32> = (0..200).map(|i| (i % 7) as u32).collect();
        let labels: Vec<bool> = cats.iter().map(|&c| c == 3).collect();
        let features = vec![FeatureColumn::Categorical(cats)];
        let rows: Vec<usize> = (0..200).collect();
        let mut rng = test_rng(3);
        let tree = DecisionTree::fit(&features, &labels, &rows, &TreeConfig::default(), &mut rng);
        let correct = rows
            .iter()
            .filter(|&&r| (tree.predict_proba(&features, r) > 0.5) == labels[r])
            .count();
        assert_eq!(correct, 200);
    }

    #[test]
    fn irrelevant_feature_gets_less_importance() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let noise: Vec<u32> = (0..200).map(|i| (i * 31 % 5) as u32).collect();
        let labels: Vec<bool> = xs.iter().map(|&x| x > 100.0).collect();
        let features = vec![
            FeatureColumn::Numeric(xs),
            FeatureColumn::Categorical(noise),
        ];
        let rows: Vec<usize> = (0..200).collect();
        let mut rng = test_rng(11);
        let tree = DecisionTree::fit(&features, &labels, &rows, &TreeConfig::default(), &mut rng);
        assert!(tree.importances[0] > tree.importances[1]);
    }

    #[test]
    fn pure_node_stays_leaf() {
        let features = vec![FeatureColumn::Numeric(vec![1.0, 2.0, 3.0])];
        let labels = vec![true, true, true];
        let mut rng = test_rng(1);
        let tree = DecisionTree::fit(
            &features,
            &labels,
            &[0, 1, 2],
            &TreeConfig::default(),
            &mut rng,
        );
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict_proba(&features, 0), 1.0);
    }

    #[test]
    fn missing_values_route_right() {
        let features = vec![FeatureColumn::Numeric(vec![
            1.0,
            2.0,
            f64::NAN,
            10.0,
            11.0,
            f64::NAN,
        ])];
        let labels = vec![false, false, true, true, true, true];
        let rows: Vec<usize> = (0..6).collect();
        let mut rng = test_rng(5);
        let cfg = TreeConfig {
            min_samples_split: 2,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&features, &labels, &rows, &cfg, &mut rng);
        // NaN rows predicted with the right-branch majority (true).
        assert!(tree.predict_proba(&features, 2) > 0.5);
    }

    // ---- histogram tree ------------------------------------------------

    #[test]
    fn hist_tree_learns_numeric_threshold() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let labels: Vec<bool> = xs.iter().map(|&x| x > 5.0).collect();
        let cols = vec![BinnedColumn::from_f64(&xs, 32)];
        let rows: Vec<u32> = (0..100).collect();
        let mut rng = test_rng(7);
        let tree = HistTree::fit(&cols, &labels, &rows, &TreeConfig::default(), &mut rng);
        let correct = rows
            .iter()
            .filter(|&&r| (tree.predict_proba(&cols, r as usize) > 0.5) == labels[r as usize])
            .count();
        assert!(correct >= 95, "got {correct}/100 correct");
        assert!(tree.importances[0] > 0.0);
    }

    #[test]
    fn hist_tree_learns_categorical_split() {
        let keys: Vec<Option<u64>> = (0..200).map(|i| Some((i % 7) as u64)).collect();
        let labels: Vec<bool> = keys.iter().map(|k| *k == Some(3)).collect();
        let cols = vec![BinnedColumn::from_keys(keys, 32)];
        let rows: Vec<u32> = (0..200).collect();
        let mut rng = test_rng(3);
        let tree = HistTree::fit(&cols, &labels, &rows, &TreeConfig::default(), &mut rng);
        let correct = rows
            .iter()
            .filter(|&&r| (tree.predict_proba(&cols, r as usize) > 0.5) == labels[r as usize])
            .count();
        assert_eq!(correct, 200);
    }

    #[test]
    fn hist_tree_missing_routes_right() {
        let vals = vec![1.0, 2.0, f64::NAN, 10.0, 11.0, f64::NAN];
        let labels = vec![false, false, true, true, true, true];
        let cols = vec![BinnedColumn::from_f64(&vals, 16)];
        let rows: Vec<u32> = (0..6).collect();
        let mut rng = test_rng(5);
        let cfg = TreeConfig {
            min_samples_split: 2,
            ..TreeConfig::default()
        };
        let tree = HistTree::fit(&cols, &labels, &rows, &cfg, &mut rng);
        assert!(tree.predict_proba(&cols, 2) > 0.5);
    }

    #[test]
    fn hist_tree_pure_node_stays_leaf() {
        let cols = vec![BinnedColumn::from_f64(&[1.0, 2.0, 3.0], 16)];
        let labels = vec![true, true, true];
        let mut rng = test_rng(1);
        let tree = HistTree::fit(&cols, &labels, &[0, 1, 2], &TreeConfig::default(), &mut rng);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict_proba(&cols, 0), 1.0);
    }

    /// On a domain the binning covers losslessly (distinct values within
    /// both the bin budget and the float trainer's per-node threshold
    /// cap), the histogram tree considers exactly the float tree's
    /// candidate splits in the same order — the importances must be
    /// bit-identical.
    #[test]
    fn hist_tree_importances_match_float_tree_on_lossless_binning() {
        let n = 300usize;
        let xs: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64).collect();
        let cats: Vec<u32> = (0..n).map(|i| (i % 6) as u32).collect();
        let labels: Vec<bool> = (0..n).map(|i| (xs[i] > 4.0) ^ (cats[i] == 2)).collect();

        let float_features = vec![
            FeatureColumn::Numeric(xs.clone()),
            FeatureColumn::Categorical(cats.clone()),
        ];
        // Dense codes for `cats` are already first-appearance ordered
        // (0..6), matching `from_keys`' assignment.
        let cols = vec![
            BinnedColumn::from_f64(&xs, 16),
            BinnedColumn::from_keys(cats.iter().map(|&c| Some(c as u64)), 16),
        ];
        let rows_f: Vec<usize> = (0..n).collect();
        let rows_h: Vec<u32> = (0..n as u32).collect();
        let cfg = TreeConfig::default(); // all features per node → rng unused
        let float_tree =
            DecisionTree::fit(&float_features, &labels, &rows_f, &cfg, &mut test_rng(9));
        let hist_tree = HistTree::fit(&cols, &labels, &rows_h, &cfg, &mut test_rng(9));
        assert_eq!(float_tree.importances, hist_tree.importances);
        assert_eq!(float_tree.num_nodes(), hist_tree.num_nodes());
    }

    /// Where the float tree cannot referee — 500 distinct values squeezed
    /// into 16 quantile bins, a capped dictionary with an "other" bin,
    /// missing cells — the importances are pinned as bit patterns
    /// recorded before the per-node histograms were narrowed to the
    /// sampled features (`features_per_node: None` = all of them).
    #[test]
    fn hist_tree_all_features_on_lossy_bins_matches_recorded_bits() {
        let n = 500usize;
        let mix = |i: usize, k: usize| (i * 2_654_435_761 + k * 40_503) % 1_000_003;
        let a: Vec<f64> = (0..n).map(|i| mix(i, 1) as f64 / 7.0).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| match i % 17 {
                0 => f64::NAN,
                _ => (mix(i, 2) % 5_000) as f64,
            })
            .collect();
        let c: Vec<Option<u64>> = (0..n)
            .map(|i| (i % 23 != 0).then(|| (mix(i, 3) % 90) as u64))
            .collect();
        let labels: Vec<bool> = (0..n)
            .map(|i| (a[i] > 70_000.0) ^ (mix(i, 4) % 5 == 0) ^ (c[i].is_some_and(|k| k % 3 == 0)))
            .collect();
        let cols = vec![
            BinnedColumn::from_f64(&a, 16),
            BinnedColumn::from_f64(&b, 16),
            BinnedColumn::from_keys(c, 16),
        ];
        // Bootstrap-like: rows repeat and some never appear.
        let rows: Vec<u32> = (0..n).map(|i| (mix(i, 5) % n) as u32).collect();
        let tree = HistTree::fit(
            &cols,
            &labels,
            &rows,
            &TreeConfig::default(),
            &mut test_rng(1),
        );
        let bits: Vec<u64> = tree.importances.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits,
            [0x3fa04df0ea71f833, 0x3f87404cd80addb8, 0x3fb420a0c97eee34]
        );
        assert_eq!(tree.num_nodes(), 35);
    }
}
