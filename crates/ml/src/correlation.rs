//! Association measures between attributes of mixed type, feeding the
//! attribute-clustering step (paper §3.1: "cluster attributes based on
//! their mutual correlation"). All measures are normalized to `[0, 1]`
//! where 1 means perfectly associated:
//!
//! * numeric–numeric: absolute Pearson correlation |r|,
//! * categorical–categorical: Cramér's V,
//! * categorical–numeric: correlation ratio η.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use crate::dataset::{FeatureColumn, MISSING_CAT};

/// Pearson correlation coefficient of paired samples (missing = NaN pairs
/// skipped). Returns 0.0 when either side is constant. Two fused passes,
/// no intermediate allocation — this runs once per numeric attribute pair
/// of every APT's clustering step.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    // Single fused pass over raw moments; centering happens algebraically
    // (`Σ(x−x̄)(y−ȳ) = Σxy − n·x̄·ȳ`). The lost numerical stability is
    // irrelevant at clustering precision, and the pass count is what this
    // costs per attribute pair of every APT.
    let mut n = 0.0f64;
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        if !x.is_nan() && !y.is_nan() {
            n += 1.0;
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
    }
    if n < 2.0 {
        return 0.0;
    }
    let cov = sxy - sx * sy / n;
    let vx = sxx - sx * sx / n;
    let vy = syy - sy * sy / n;
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
}

/// Codes below this index dense count arrays directly; feature codes are
/// dense first-appearance codes, so in practice all of them are.
const DENSE_CODE_LIMIT: u32 = 1 << 16;

fn max_code(codes: &[u32]) -> u32 {
    let present = codes.iter().filter(|&&c| c != MISSING_CAT);
    present.max().copied().unwrap_or(0)
}

/// Cramér's V between two categorical columns (bias-uncorrected), in
/// `[0, 1]`. Missing codes are skipped.
///
/// Zero-observation cells of the contingency table still contribute to χ²
/// (they are exactly what makes identical columns score 1), but they are
/// never enumerated: with `e = rx·cy/n`, the full-table sum telescopes to
/// `χ² = Σ_observed o²/e − n`. Observed cells are visited in ascending
/// `(x, y)` order, which keeps the float accumulation deterministic.
///
/// Dense codes (the case feature selection produces: a few hundred rows
/// of first-appearance codes) are counted, not sorted: rows are bucketed
/// by `x` with a counting sort, each bucket's `y`s are sorted, and both
/// marginals are read from count arrays — `O(n + codes)` plus the small
/// per-bucket sorts. Codes of 2¹⁶ and above (raw ids, dates) fall back
/// to runs of the sorted `(x, y)` keys, `O(n log n)` whatever the codes'
/// range. Both visit the same cells in the same order, so they agree to
/// the bit.
pub fn cramers_v(xs: &[u32], ys: &[u32]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let (max_x, max_y) = (max_code(xs), max_code(ys));
    if max_x < DENSE_CODE_LIMIT && max_y < DENSE_CODE_LIMIT {
        cramers_v_counted(xs, ys, max_x as usize + 1, max_y as usize + 1)
    } else {
        cramers_v_sorted(xs, ys)
    }
}

/// Three allocations, sized up front: this runs once per categorical
/// pair of every APT's clustering step.
fn cramers_v_counted(xs: &[u32], ys: &[u32], x_codes: usize, y_codes: usize) -> f64 {
    let present = |&(&x, &y): &(&u32, &u32)| x != MISSING_CAT && y != MISSING_CAT;
    // `row_end[x]` counts row `x`, then (prefix-summed) is where its
    // bucket ends, then — the scatter fills buckets back to front —
    // where it starts.
    let mut row_end = vec![0u32; x_codes];
    let mut col_n = vec![0u32; y_codes];
    for (&x, &y) in xs.iter().zip(ys).filter(present) {
        row_end[x as usize] += 1;
        col_n[y as usize] += 1;
    }
    let rows_used = row_end.iter().filter(|&&c| c > 0).count();
    let cols_used = col_n.iter().filter(|&&c| c > 0).count();
    let mut total = 0u32;
    for end in &mut row_end {
        total += *end;
        *end = total;
    }
    let n = total as f64;
    if let Some(v) = degenerate_table(n, rows_used, cols_used) {
        return v;
    }
    let mut bucketed = vec![0u32; total as usize];
    for (&x, &y) in xs.iter().zip(ys).filter(present) {
        row_end[x as usize] -= 1;
        bucketed[row_end[x as usize] as usize] = y;
    }
    let mut chi2 = 0.0;
    let bucket_ends = row_end[1..].iter().copied().chain([total]);
    for (&start, end) in row_end.iter().zip(bucket_ends) {
        let row = &mut bucketed[start as usize..end as usize];
        row.sort_unstable();
        let row_n = row.len() as f64;
        for cell in row.chunk_by(|a, b| a == b) {
            let obs = cell.len() as f64;
            let exp = row_n * col_n[cell[0] as usize] as f64 / n;
            chi2 += obs * obs / exp;
        }
    }
    finish_chi2(chi2, n, rows_used, cols_used)
}

/// Observed cells and both marginals as runs of the sorted `(x, y)` keys
/// and the sorted `y`s: two allocations, no array indexed by a code.
fn cramers_v_sorted(xs: &[u32], ys: &[u32]) -> f64 {
    let mut cells: Vec<u64> = Vec::with_capacity(xs.len());
    for (&x, &y) in xs.iter().zip(ys) {
        if x != MISSING_CAT && y != MISSING_CAT {
            cells.push(((x as u64) << 32) | y as u64);
        }
    }
    cells.sort_unstable();
    let mut col_keys: Vec<u32> = Vec::with_capacity(cells.len());
    col_keys.extend(cells.iter().map(|&key| key as u32));
    col_keys.sort_unstable();
    let same_row = |a: &u64, b: &u64| a >> 32 == b >> 32;
    let rows_used = cells.chunk_by(same_row).count();
    let cols_used = col_keys.chunk_by(|a, b| a == b).count();
    let n = cells.len() as f64;
    if let Some(v) = degenerate_table(n, rows_used, cols_used) {
        return v;
    }
    let mut chi2 = 0.0;
    for row in cells.chunk_by(same_row) {
        let row_n = row.len() as f64;
        for cell in row.chunk_by(|a, b| a == b) {
            let y = cell[0] as u32;
            let col_n =
                col_keys.partition_point(|&k| k <= y) - col_keys.partition_point(|&k| k < y);
            let obs = cell.len() as f64;
            let exp = row_n * col_n as f64 / n;
            chi2 += obs * obs / exp;
        }
    }
    finish_chi2(chi2, n, rows_used, cols_used)
}

/// A table with fewer than two used rows or columns has no χ². Constant
/// column: by convention fully determined ⇒ treat as unassociated for
/// clustering purposes (no information) — except the single observed
/// cell, which both columns determine.
fn degenerate_table(n: f64, rows_used: usize, cols_used: usize) -> Option<f64> {
    (n == 0.0 || rows_used < 2 || cols_used < 2)
        .then(|| f64::from(u8::from(rows_used == 1 && cols_used == 1)))
}

/// `Σ_all (o−e)²/e = Σ_obs o²/e − n`; clamp the tiny negative residue
/// float cancellation can leave for near-independent columns.
fn finish_chi2(partial: f64, n: f64, rows_used: usize, cols_used: usize) -> f64 {
    let chi2 = (partial - n).max(0.0);
    let k = rows_used.min(cols_used) as f64;
    (chi2 / (n * (k - 1.0))).sqrt().min(1.0)
}

/// Correlation ratio η between a categorical and a numeric column, in
/// `[0, 1]`: the fraction of the numeric variance explained by the
/// category, square-rooted.
pub fn correlation_ratio(cats: &[u32], nums: &[f64]) -> f64 {
    assert_eq!(cats.len(), nums.len());
    // Dense per-group accumulators when codes are small (the common case
    // — feature codes are dense); iteration in index order matches the
    // previous sorted-map order, so the float sums are unchanged.
    let max_code = max_code(cats);
    let mut dense: Vec<(f64, f64)> = Vec::new(); // (sum, count)
    let mut sparse: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    let use_dense = max_code < DENSE_CODE_LIMIT;
    if use_dense {
        dense = vec![(0.0, 0.0); max_code as usize + 1];
    }
    let mut total_sum = 0.0;
    let mut total_sq = 0.0;
    let mut total_n = 0.0;
    for (&c, &x) in cats.iter().zip(nums) {
        if c == MISSING_CAT || x.is_nan() {
            continue;
        }
        let e = if use_dense {
            &mut dense[c as usize]
        } else {
            sparse.entry(c).or_default()
        };
        e.0 += x;
        e.1 += 1.0;
        total_sum += x;
        total_sq += x * x;
        total_n += 1.0;
    }
    let group_values: Vec<(f64, f64)> = if use_dense {
        dense
            .into_iter()
            .filter(|&(_, count)| count > 0.0)
            .collect()
    } else {
        sparse.into_values().collect()
    };
    if total_n < 2.0 || group_values.len() < 2 {
        return 0.0;
    }
    // One pass of raw moments: `Σ(x−x̄)² = Σx² − n·x̄²` and
    // `Σ n_g (x̄_g − x̄)² = Σ s_g²/n_g − n·x̄²` — no second data scan.
    let grand_mean = total_sum / total_n;
    let mut between = 0.0;
    for (sum, count) in &group_values {
        between += sum * sum / count;
    }
    between -= total_n * grand_mean * grand_mean;
    let total_var = total_sq - total_n * grand_mean * grand_mean;
    if total_var <= 0.0 || between <= 0.0 {
        return 0.0;
    }
    (between / total_var).sqrt().min(1.0)
}

/// Symmetric association matrix over mixed-type columns, owned or
/// borrowed, diagonal = 1.
pub fn assoc_matrix<C: Borrow<FeatureColumn>>(cols: &[C]) -> Vec<Vec<f64>> {
    let p = cols.len();
    let mut m = vec![vec![0.0; p]; p];
    for i in 0..p {
        m[i][i] = 1.0;
        for j in (i + 1)..p {
            let a = match (cols[i].borrow(), cols[j].borrow()) {
                (FeatureColumn::Numeric(x), FeatureColumn::Numeric(y)) => pearson(x, y).abs(),
                (FeatureColumn::Categorical(x), FeatureColumn::Categorical(y)) => cramers_v(x, y),
                (FeatureColumn::Categorical(c), FeatureColumn::Numeric(n))
                | (FeatureColumn::Numeric(n), FeatureColumn::Categorical(c)) => {
                    correlation_ratio(c, n)
                }
            };
            m[i][j] = a;
            m[j][i] = a;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pearson_perfect_linear() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        let xs = vec![1.0; 10];
        let ys: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(pearson(&xs, &ys), 0.0);
    }

    #[test]
    fn pearson_skips_nan_pairs() {
        let xs = vec![1.0, 2.0, f64::NAN, 4.0];
        let ys = vec![2.0, 4.0, 100.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cramers_v_identical_columns() {
        let xs: Vec<u32> = (0..100).map(|i| (i % 4) as u32).collect();
        assert!((cramers_v(&xs, &xs) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cramers_v_independent_columns() {
        // x cycles mod 2, y cycles mod 5 → independent.
        let xs: Vec<u32> = (0..1000).map(|i| (i % 2) as u32).collect();
        let ys: Vec<u32> = (0..1000).map(|i| (i % 5) as u32).collect();
        assert!(cramers_v(&xs, &ys) < 0.05);
    }

    /// χ² straight off the full contingency table, scanned row-major —
    /// what `cramers_v` must equal bit for bit, since near-tie clustering
    /// decisions hang on the last bits.
    fn cramers_v_dense_table(xs: &[u32], ys: &[u32]) -> f64 {
        let k = xs.iter().chain(ys).filter(|&&c| c != MISSING_CAT).max();
        let k = k.map_or(0, |&c| c as usize + 1);
        let (mut row, mut col) = (vec![0.0f64; k], vec![0.0f64; k]);
        let mut joint = vec![0.0f64; k * k];
        let mut n = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            if x != MISSING_CAT && y != MISSING_CAT {
                row[x as usize] += 1.0;
                col[y as usize] += 1.0;
                joint[x as usize * k + y as usize] += 1.0;
                n += 1.0;
            }
        }
        let rows_used = row.iter().filter(|&&c| c > 0.0).count();
        let cols_used = col.iter().filter(|&&c| c > 0.0).count();
        if n == 0.0 || rows_used < 2 || cols_used < 2 {
            return f64::from(u8::from(rows_used == 1 && cols_used == 1));
        }
        let mut chi2 = 0.0;
        for (cell, &obs) in joint.iter().enumerate() {
            if obs > 0.0 {
                chi2 += obs * obs / (row[cell / k] * col[cell % k] / n);
            }
        }
        finish_chi2(chi2, n, rows_used, cols_used)
    }

    #[test]
    fn correlation_ratio_determined() {
        // Numeric fully determined by category: age vs. birth-cohort style.
        let cats: Vec<u32> = (0..90).map(|i| (i % 3) as u32).collect();
        let nums: Vec<f64> = cats.iter().map(|&c| c as f64 * 10.0).collect();
        assert!((correlation_ratio(&cats, &nums) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_ratio_unrelated() {
        let cats: Vec<u32> = (0..400).map(|i| (i % 2) as u32).collect();
        let nums: Vec<f64> = (0..400).map(|i| ((i * 7919) % 400) as f64).collect();
        assert!(correlation_ratio(&cats, &nums) < 0.15);
    }

    #[test]
    fn assoc_matrix_is_symmetric_unit_diagonal() {
        let cols = vec![
            FeatureColumn::Numeric((0..60).map(|i| i as f64).collect()),
            FeatureColumn::Numeric((0..60).map(|i| (i * 2) as f64).collect()),
            FeatureColumn::Categorical((0..60).map(|i| (i % 3) as u32).collect()),
        ];
        let m = assoc_matrix(&cols);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, cell) in row.iter().enumerate() {
                assert!((cell - m[j][i]).abs() < 1e-12);
                assert!((0.0..=1.0).contains(cell));
            }
        }
        // The two colinear numeric columns are perfectly associated.
        assert!((m[0][1] - 1.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_cramers_v_matches_the_dense_table(
            pairs in proptest::collection::vec((0u32..12, 0u32..40), 0..200),
            missing in proptest::collection::vec(0usize..200, 0..8),
        ) {
            let (mut xs, mut ys): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
            for (i, at) in missing.into_iter().enumerate() {
                if let Some(slot) = [&mut xs, &mut ys][i % 2].get_mut(at) {
                    *slot = MISSING_CAT;
                }
            }
            let v = cramers_v(&xs, &ys);
            prop_assert_eq!(v.to_bits(), cramers_v_dense_table(&xs, &ys).to_bits());
            prop_assert!((0.0..=1.0).contains(&v));
        }

        /// The counting path and the sorted-key fallback are one
        /// function: same bits on dense codes, and on the same table
        /// re-coded sparsely (order kept) so that `cramers_v` itself
        /// takes the fallback. `x_codes`/`y_codes` of 1 give constant
        /// columns and the single observed cell.
        #[test]
        fn prop_cramers_v_counted_and_sorted_agree_to_the_bit(
            (x_codes, y_codes) in (1u32..30, 1u32..400),
            raw in proptest::collection::vec((0u32..30, 0u32..400), 0..300),
            missing in proptest::collection::vec(0usize..300, 0..8),
        ) {
            let mut xs: Vec<u32> = raw.iter().map(|&(x, _)| x % x_codes).collect();
            let mut ys: Vec<u32> = raw.iter().map(|&(_, y)| y % y_codes).collect();
            for (i, at) in missing.into_iter().enumerate() {
                if let Some(slot) = [&mut xs, &mut ys][i % 2].get_mut(at) {
                    *slot = MISSING_CAT;
                }
            }
            let counted = cramers_v_counted(&xs, &ys, x_codes as usize, y_codes as usize);
            prop_assert_eq!(counted.to_bits(), cramers_v(&xs, &ys).to_bits());
            prop_assert_eq!(counted.to_bits(), cramers_v_sorted(&xs, &ys).to_bits());
            let spread = |c: &u32| match *c {
                MISSING_CAT => MISSING_CAT,
                c => c * 70_001 + DENSE_CODE_LIMIT,
            };
            let sx: Vec<u32> = xs.iter().map(spread).collect();
            let sy: Vec<u32> = ys.iter().map(spread).collect();
            prop_assert_eq!(counted.to_bits(), cramers_v(&sx, &ys).to_bits());
            prop_assert_eq!(counted.to_bits(), cramers_v(&xs, &sy).to_bits());
            prop_assert_eq!(counted.to_bits(), cramers_v(&sx, &sy).to_bits());
        }

        /// |r| ≤ 1 always.
        #[test]
        fn prop_pearson_bounded(
            xs in proptest::collection::vec(-100.0f64..100.0, 2..64),
        ) {
            let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 + 1.0).collect();
            let r = pearson(&xs, &ys);
            prop_assert!(r.abs() <= 1.0 + 1e-9);
        }
    }
}
