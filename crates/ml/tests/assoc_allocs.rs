//! Deterministic work of the association matrix, counted by the tracking
//! allocator: each column is summarised once and every dense pair counts
//! into one set of buffers sized up front, so a matrix allocates its
//! result rows plus a fixed handful of blocks — not the two or three
//! count arrays per pair the pairwise measures allocate on their own.
//!
//! One `#[test]`: the count is read off this thread's own scope, and a
//! sibling test would only share the process with it for nothing.

use cajade_ml::{assoc_matrix, FeatureColumn};
use cajade_obs::alloc::scope_snapshot;
use cajade_obs::AllocScope;

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const ROWS: usize = 168;

fn mix(i: usize, salt: usize, m: usize) -> usize {
    (i.wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(40_503)).wrapping_mul(2_246_822_519) % m
}

/// `width` columns over [`ROWS`] rows, alternating numeric and
/// categorical: few codes (one table per pair), a missing code, NaN
/// cells, and one id-like column whose tables are bucketed.
fn fixture(width: usize) -> Vec<FeatureColumn> {
    (0..width)
        .map(|c| match c % 6 {
            0 | 2 => FeatureColumn::Numeric((0..ROWS).map(|i| mix(i, c, 1000) as f64).collect()),
            4 => FeatureColumn::Numeric(
                (0..ROWS)
                    .map(|i| match mix(i, c, 9) {
                        0 => f64::NAN,
                        v => v as f64,
                    })
                    .collect(),
            ),
            1 => FeatureColumn::Categorical((0..ROWS).map(|i| mix(i, c, 6) as u32).collect()),
            3 => FeatureColumn::Categorical(
                (0..ROWS)
                    .map(|i| match mix(i, c, 5) {
                        0 => u32::MAX,
                        v => v as u32,
                    })
                    .collect(),
            ),
            _ => FeatureColumn::Categorical((0..ROWS).map(|i| mix(i, c, ROWS) as u32).collect()),
        })
        .collect()
}

/// Blocks one `assoc_matrix` over `width` columns allocates beyond its
/// `width + 1` result vectors.
fn blocks_beyond_rows(scope: &'static str, width: usize) -> u64 {
    let cols = fixture(width);
    let guard = AllocScope::enter(scope);
    let m = assoc_matrix(&cols);
    drop(guard);
    // The columns did associate: some pair measured above zero.
    assert!(m.iter().flatten().any(|&a| a > 0.0 && a < 1.0));
    let scope = scope_snapshot(scope).expect("scope was entered");
    scope.allocated_blocks - (width as u64 + 1)
}

#[test]
fn assoc_matrix_allocates_per_matrix_not_per_pair() {
    // The column summaries and the four count buffers.
    let narrow = blocks_beyond_rows("test.assoc_8", 8);
    let wide = blocks_beyond_rows("test.assoc_24", 24);
    assert_eq!(narrow, wide, "28 pairs vs 276 pairs");
    assert!(narrow <= 5, "{narrow} blocks beyond the result rows");
}
