//! Deterministic work of the histogram trainer, counted by the tracking
//! allocator: a tree fit reuses one row buffer, one candidate buffer and
//! one histogram buffer (a block per sampled feature, filled in one sweep
//! of a node's rows), so a forest fit allocates a fixed handful of blocks
//! per tree — not a histogram per feature per node, which is what the
//! all-features kernel did (≈ 2·p blocks at every node).
//!
//! One `#[test]`: the count is read off this thread's own scope, and a
//! sibling test would only share the process with it for nothing.

use cajade_ml::{BinnedColumn, HistForest, RandomForestConfig};
use cajade_obs::alloc::scope_snapshot;
use cajade_obs::AllocScope;

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const ROWS: usize = 240;
const TREES: usize = 5;

fn mix(i: usize, salt: usize, m: usize) -> usize {
    (i.wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(40_503)).wrapping_mul(2_246_822_519) % m
}

/// `features` columns over [`ROWS`] rows, every third one categorical,
/// labelled by a noisy function of the first two.
fn fixture(features: usize) -> (Vec<BinnedColumn>, Vec<bool>) {
    let cols = (0..features)
        .map(|f| {
            if f % 3 == 2 {
                let keys: Vec<_> = (0..ROWS).map(|i| Some(mix(i, f, 4 + f) as u64)).collect();
                BinnedColumn::from_keys(keys, 32)
            } else {
                let vals: Vec<f64> = (0..ROWS).map(|i| mix(i, f, 10_000) as f64).collect();
                BinnedColumn::from_f64(&vals, 32)
            }
        })
        .collect();
    let labels = (0..ROWS)
        .map(|i| mix(i, 0, 10_000) + mix(i, 1, 10_000) / 2 + mix(i, 999, 6_000) > 11_000)
        .collect();
    (cols, labels)
}

/// Blocks one `HistForest::fit` over `features` columns allocates.
fn fit_blocks(scope: &'static str, features: usize) -> u64 {
    let (cols, labels) = fixture(features);
    let cfg = RandomForestConfig {
        num_trees: TREES,
        ..Default::default()
    };
    let guard = AllocScope::enter(scope);
    let forest = HistForest::fit(&cols, &labels, &cfg);
    drop(guard);
    // The trees did grow: some split carried importance.
    assert!(forest.importances.iter().any(|&i| i > 0.0));
    let scope = scope_snapshot(scope).expect("scope was entered");
    scope.allocated_blocks
}

#[test]
fn forest_fit_allocates_per_tree_not_per_feature_per_node() {
    // Per tree: its bootstrap rows, the fit's three buffers, the
    // importances, and the node vector's doublings (≤ 2^9 nodes at
    // depth 8); per forest: the tree vector and the importance sum.
    let bound = (TREES * 16 + 4) as u64;
    for (scope, features) in [("test.fit_35", 35), ("test.fit_140", 140)] {
        let blocks = fit_blocks(scope, features);
        assert!(
            (TREES as u64..=bound).contains(&blocks),
            "{blocks} blocks for {features} features"
        );
    }
}
