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
//!   [`BinnedColumn`]s: per node one sweep of its rows counts a class
//!   histogram for each feature the node sampled (⌈√p⌉ of them in a
//!   forest), and every candidate split is read off those histograms.

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
/// node's rows per candidate threshold. A node costs one sweep of its
/// rows: each row carries its label in its low bit, and the sweep counts
/// the row into the histogram of every feature the node sampled — blocks
/// of one buffer the fit owns. Its rows are a range of one index buffer,
/// partitioned in place without a branch, so a fit allocates a fixed
/// handful of blocks whatever the number of features or nodes. On bins
/// that losslessly cover the value domain the chosen splits — and
/// therefore the mean-decrease-impurity importances — are identical to
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
    config: &'a TreeConfig,
    n_total: f64,
    /// The bootstrap rows, packed `row << 1 | label`; a node owns a
    /// contiguous range of them and splits it in place into its
    /// children's ranges.
    rows: Vec<u32>,
    /// Candidate features with their bin codes, refilled `0..p` before
    /// every shuffle so each node draws from the RNG exactly as a fresh
    /// `(0..p).collect()` did (a shuffle's draws depend on its length only).
    feat_idx: Vec<(usize, &'a [u16])>,
    /// `[neg, pos]` counts of the node's sampled features, the `j`-th one's
    /// in block `j`; a block is `stride` slots, the widest column's
    /// `num_bins + 1` (a column's slot `num_bins` is its missing bin).
    hist: Vec<[u32; 2]>,
    stride: usize,
}

impl HistTree {
    /// Fits a tree on the rows listed in `rows`. The columns may be owned
    /// or borrowed (`&[BinnedColumn]`, `&[&BinnedColumn]`, …): a caller
    /// whose columns live in different places does not copy them together.
    /// Row ids share a `u32` with their label, so `labels` must be shorter
    /// than 2³¹ (feature selection trains on at most `MAX_TRAIN_ROWS`).
    pub fn fit<C: Borrow<BinnedColumn>>(
        cols: &[C],
        labels: &[bool],
        rows: &[u32],
        config: &TreeConfig,
        rng: &mut StdRng,
    ) -> Self {
        assert!(labels.len() < 1 << 31, "row ids carry a label bit");
        let mut tree = HistTree {
            nodes: Vec::new(),
            importances: vec![0.0; cols.len()],
        };
        let stride = cols.iter().map(|c| c.borrow().num_bins() as usize + 1);
        let stride = stride.max().unwrap_or(0);
        let sampled = config.features_per_node.map_or(cols.len(), |k| k.max(1));
        let packed = |&r: &u32| r << 1 | u32::from(labels[r as usize]);
        let mut fit = HistFit {
            cols,
            config,
            n_total: rows.len().max(1) as f64,
            rows: rows.iter().map(packed).collect(),
            feat_idx: Vec::with_capacity(cols.len()),
            hist: vec![[0; 2]; stride * sampled.min(cols.len())],
            stride,
        };
        let pos = fit.rows.iter().map(|&r| (r & 1) as usize).sum::<usize>() as f64;
        tree.build(&mut fit, rng, (0, rows.len()), pos, 0);
        tree
    }

    fn leaf(&mut self, pos: f64, total: f64) -> usize {
        let prob = if total == 0.0 { 0.5 } else { pos / total };
        self.nodes.push(HNode::Leaf { prob });
        self.nodes.len() - 1
    }

    /// Grows the subtree over `fit.rows[lo..hi]` (`pos` positive); returns its root.
    fn build<C: Borrow<BinnedColumn>>(
        &mut self,
        fit: &mut HistFit<C>,
        rng: &mut StdRng,
        (lo, hi): (usize, usize),
        pos: f64,
        depth: usize,
    ) -> usize {
        let (cols, config, stride) = (fit.cols, fit.config, fit.stride);
        let node_rows = &fit.rows[lo..hi];
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
        let codes = cols.iter().map(|c| c.borrow().codes());
        fit.feat_idx.extend(codes.enumerate());
        if let Some(k) = config.features_per_node {
            fit.feat_idx.shuffle(rng);
            fit.feat_idx.truncate(k.max(1));
        }

        // One sweep of the node's rows counts every sampled feature, two
        // rows per pass over the features so that their increments overlap.
        let hist = &mut fit.hist[..fit.feat_idx.len() * stride];
        hist.fill([0; 2]);
        let unpack = |r: u32| ((r >> 1) as usize, (r & 1) as usize);
        let mut pairs = node_rows.chunks_exact(2);
        for pair in &mut pairs {
            let ((a, la), (b, lb)) = (unpack(pair[0]), unpack(pair[1]));
            for (block, (_, codes)) in hist.chunks_exact_mut(stride).zip(&fit.feat_idx) {
                block[codes[a] as usize][la] += 1;
                block[codes[b] as usize][lb] += 1;
            }
        }
        for (row, label) in pairs.remainder().iter().map(|&r| unpack(r)) {
            for (block, (_, codes)) in hist.chunks_exact_mut(stride).zip(&fit.feat_idx) {
                block[codes[row] as usize][label] += 1;
            }
        }

        // The first candidate of the largest gain, if that is above 1e-12.
        let mut best = (1e-12, None);
        for (block, &(f, _)) in hist.chunks_exact(stride).zip(&fit.feat_idx) {
            let col: &BinnedColumn = cols[f].borrow();
            let block = &block[..col.num_bins() as usize + 1];
            best_hist_split(col, block, f, node_gini, pos, total, &mut best);
        }
        let (gain, Some((split, left_pos))) = best else {
            return self.leaf(pos, total);
        };

        let node_rows = &mut fit.rows[lo..hi];
        let (feature, left_len) = match split {
            HSplit::Num { feature, bin } => {
                let codes = cols[feature].borrow().codes();
                let left = partition_in_place(node_rows, |r| codes[(r >> 1) as usize] <= bin);
                (feature, left)
            }
            HSplit::Cat { feature, code } => {
                let codes = cols[feature].borrow().codes();
                let left = partition_in_place(node_rows, |r| codes[(r >> 1) as usize] == code);
                (feature, left)
            }
        };
        debug_assert!(0 < left_len && left_len < node_rows.len());
        self.importances[feature] += gain * (total / fit.n_total);

        let placeholder = self.nodes.len();
        self.nodes.push(HNode::Leaf { prob: 0.5 }); // replaced below
        let mid = lo + left_len;
        let left = self.build(fit, rng, (lo, mid), left_pos, depth + 1);
        let right = self.build(fit, rng, (mid, hi), pos - left_pos, depth + 1);
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
/// how many there are. Branch-free: every row is swapped to the front of
/// the rejected ones, and the boundary advances past it by the
/// predicate's value (a split sends about half the rows each way, so a
/// branch on it would mispredict). Order within a side is not kept:
/// every reader of a node's rows only counts them.
fn partition_in_place(rows: &mut [u32], goes_left: impl Fn(u32) -> bool) -> usize {
    let mut left = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        rows.swap(left, i);
        left += usize::from(goes_left(r));
    }
    left
}

/// Offers one feature's candidate splits, read off its node histogram,
/// to the node's running `best` (a gain, and the split with the positive
/// count on its left): numeric bins are scanned
/// as a prefix sum (split candidates are the bin upper edges), categorical
/// bins as one-vs-rest equality splits. Missing rows (trailing histogram
/// slot) always stay on the right side, matching the float trainer's NaN
/// routing. Only a strictly larger gain replaces `best`, so the first of
/// equal candidates wins; the numeric scan therefore skips empty bins (one
/// repeats the previous candidate's gain bit for bit) and stops once every
/// valued row is on the left (each later candidate's right side is empty).
fn best_hist_split(
    col: &BinnedColumn,
    hist: &[[u32; 2]],
    feature: usize,
    parent_gini: f64,
    pos_total: f64,
    total: f64,
    best: &mut (f64, Option<(HSplit, f64)>),
) {
    let mut consider = |lp: f64, lt: f64, split: HSplit| {
        let (rp, rt) = (pos_total - lp, total - lt);
        // The child impurity is exactly 2(lp·ln·rt + rp·rn·lt) / (lt·rt·total).
        // Where that leaves the gain 1e-12 or more short of `best` — a
        // thousand times what either form rounds by — the candidate cannot
        // win, and its four divisions are skipped.
        let impurity = 2.0 * (lp * (lt - lp) * rt + rp * (rt - rp) * lt);
        if impurity >= (parent_gini - best.0 + 1e-12) * (lt * rt * total) {
            return;
        }
        let gain = parent_gini - ((lt / total) * gini(lp, lt) + (rt / total) * gini(rp, rt));
        if gain > best.0 {
            *best = (gain, Some((split, lp)));
        }
    };
    match col.kind() {
        BinKind::Numeric { thresholds } => {
            let (mut lp, mut lt) = (0.0f64, 0.0f64);
            for (b, &[neg, pos]) in hist.iter().take(thresholds.len()).enumerate() {
                if neg + pos == 0 {
                    continue;
                }
                lp += pos as f64;
                lt += (neg + pos) as f64;
                if lt == total {
                    break;
                }
                let bin = b as u16;
                consider(lp, lt, HSplit::Num { feature, bin });
            }
        }
        BinKind::Categorical { split_values } => {
            for code in 0..*split_values {
                let [neg, pos] = hist[code as usize];
                let lt = (neg + pos) as f64;
                if lt > 0.0 && lt < total {
                    consider(pos as f64, lt, HSplit::Cat { feature, code });
                }
            }
        }
    }
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

    /// One random lossless problem: `p` columns over `n` rows, each
    /// numeric (≤ 16 distinct values, some missing) or categorical (≤ 16
    /// categories, some missing), as the float trainer's features and as
    /// the histogram trainer's bins; labels follow column 0, with noise.
    fn lossless_problem(
        rng: &mut StdRng,
        n: usize,
        p: usize,
    ) -> (Vec<FeatureColumn>, Vec<BinnedColumn>, Vec<bool>) {
        use rand::Rng;
        let mut features = Vec::new();
        let mut cols = Vec::new();
        for _ in 0..p {
            let distinct = rng.gen_range(1..=16u64);
            let cells: Vec<Option<u64>> = (0..n)
                .map(|_| (!rng.gen_bool(0.1)).then(|| rng.gen_range(0..distinct)))
                .collect();
            if rng.gen_bool(0.5) {
                let vals: Vec<f64> = cells
                    .iter()
                    .map(|c| c.map_or(f64::NAN, |k| k as f64 * 1.5))
                    .collect();
                cols.push(BinnedColumn::from_f64(&vals, 16));
                features.push(FeatureColumn::Numeric(vals));
            } else {
                // The float trainer's codes are the bins, so both walk
                // the categories in one order.
                let col = BinnedColumn::from_keys(cells, 16);
                let codes = (0..n)
                    .map(|i| match col.is_missing(i) {
                        true => u32::MAX,
                        false => u32::from(col.code(i)),
                    })
                    .collect();
                features.push(FeatureColumn::Categorical(codes));
                cols.push(col);
            }
        }
        let labels = (0..n)
            .map(|i| cols[0].code(i).is_multiple_of(3) ^ rng.gen_bool(0.2))
            .collect();
        (features, cols, labels)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// With √p-style sampling (`Some(k)`), repeated rows and missing
        /// cells, the histogram tree draws the float tree's RNG stream and
        /// picks its splits: identical importance bits and node counts.
        /// Categorical domains stay within `max_thresholds`, where the
        /// float trainer draws nothing extra; `n` stays within the
        /// binning's exact-quantile sample.
        #[test]
        fn prop_hist_tree_matches_float_tree_with_feature_sampling(
            seed in 0u64..u64::MAX,
            n in 2usize..=256,
            p in 1usize..8,
            k in 1usize..8,
            max_depth in 1usize..10,
        ) {
            use rand::Rng;
            let mut rng = test_rng(seed);
            let (features, cols, labels) = lossless_problem(&mut rng, n, p);
            let rows: Vec<u32> = (0..rng.gen_range(1..=2 * n))
                .map(|_| rng.gen_range(0..n as u32))
                .collect();
            let rows_f: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
            let cfg = TreeConfig {
                max_depth,
                min_samples_split: 2,
                features_per_node: Some(k),
                max_thresholds: 16,
            };
            let float_tree = DecisionTree::fit(&features, &labels, &rows_f, &cfg, &mut test_rng(seed));
            let hist_tree = HistTree::fit(&cols, &labels, &rows, &cfg, &mut test_rng(seed));
            let bits = |imp: &[f64]| imp.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&float_tree.importances), bits(&hist_tree.importances));
            proptest::prop_assert_eq!(float_tree.num_nodes(), hist_tree.num_nodes());
        }

        /// The partition counts exactly the rows the predicate accepts,
        /// puts them — and only them — in front, and loses no row.
        #[test]
        fn prop_partition_in_place_splits_the_multiset(
            rows in proptest::collection::vec(0u32..64, 0..200),
            modulus in 1u32..8,
        ) {
            let goes_left = |r: u32| r.is_multiple_of(modulus);
            let mut parted = rows.clone();
            let left = partition_in_place(&mut parted, goes_left);
            proptest::prop_assert_eq!(left, rows.iter().filter(|&&r| goes_left(r)).count());
            proptest::prop_assert!(parted[..left].iter().all(|&r| goes_left(r)));
            proptest::prop_assert!(!parted[left..].iter().any(|&r| goes_left(r)));
            let (mut before, mut after) = (rows, parted);
            before.sort_unstable();
            after.sort_unstable();
            proptest::prop_assert_eq!(before, after);
        }
    }
}
