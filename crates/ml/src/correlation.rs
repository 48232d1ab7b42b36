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

/// Pearson correlation coefficient of paired samples (pairs with a
/// missing = NaN or an infinite cell skipped). Returns 0.0 when either
/// side is constant or the moments overflow. One fused pass, no
/// intermediate allocation — this runs once per numeric attribute pair of
/// every APT's clustering step.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    // Single fused pass over raw moments; centering happens algebraically
    // (`Σ(x−x̄)(y−ȳ) = Σxy − n·x̄·ȳ`). The lost numerical stability is
    // irrelevant at clustering precision, and the pass count is what this
    // costs per attribute pair of every APT.
    let (mut mx, mut my, mut sxy) = ([0.0; 3], [0.0; 3], 0.0);
    for (&x, &y) in xs.iter().zip(ys) {
        if x.is_finite() && y.is_finite() {
            mx = moments(mx, x);
            my = moments(my, y);
            sxy += x * y;
        }
    }
    pearson_from(mx, my, sxy)
}

/// `[n, Σx, Σx²]` with `x` added.
fn moments([n, s, q]: [f64; 3], x: f64) -> [f64; 3] {
    [n + 1.0, s + x, q + x * x]
}

/// Pearson's `r` from both sides' `[n, Σ, Σ²]` over the same rows and
/// their `Σxy`.
fn pearson_from([n, sx, sxx]: [f64; 3], [_, sy, syy]: [f64; 3], sxy: f64) -> f64 {
    if n < 2.0 {
        return 0.0;
    }
    let cov = sxy - sx * sy / n;
    let vx = sxx - sx * sx / n;
    let vy = syy - sy * sy / n;
    let r = cov / (vx.sqrt() * vy.sqrt());
    // Moments that overflowed leave `r` NaN, which `clamp` would keep.
    if vx <= 0.0 || vy <= 0.0 || r.is_nan() {
        return 0.0;
    }
    r.clamp(-1.0, 1.0)
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
/// of first-appearance codes) are counted, not sorted: a table of at most
/// four cells per row is counted whole and scanned row-major; a wider one
/// buckets the rows by `x` with a counting sort and sorts each bucket's
/// `y`s — `O(n + codes)` plus the small per-bucket sorts. Codes of 2¹⁶
/// and above (raw ids, dates) fall back to runs of the sorted `(x, y)`
/// keys, `O(n log n)` whatever the codes' range. All three visit the same
/// cells in the same order, so they agree to the bit.
pub fn cramers_v(xs: &[u32], ys: &[u32]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let (max_x, max_y) = (max_code(xs), max_code(ys));
    if max_x < DENSE_CODE_LIMIT && max_y < DENSE_CODE_LIMIT {
        let (kx, ky) = (max_x as usize + 1, max_y as usize + 1);
        cramers_v_counted(xs, ys, kx, ky, &mut Scratch::default())
    } else {
        cramers_v_sorted(xs, ys)
    }
}

/// The count buffers of the dense measures — per-`x` and per-`y` counts,
/// the contingency table or the `y`s bucketed by `x`, η's per-code `(Σx,
/// count)`. [`assoc_matrix`] sizes one set for its widest pair up front.
#[derive(Default)]
struct Scratch {
    row_n: Vec<u32>,
    col_n: Vec<u32>,
    cells: Vec<u32>,
    groups: Vec<(f64, f64)>,
}

/// `buf` as `len` zeros, within the capacity it has when that suffices.
fn zeroed<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    buf.clear();
    buf.resize(len, T::default());
    buf
}

/// One observed cell's `o²/e`.
fn cell_chi2(obs: usize, row_n: usize, col_n: usize, n: f64) -> f64 {
    let obs = obs as f64;
    obs * obs / (row_n as f64 * col_n as f64 / n)
}

/// `kx` × `ky` codes: a table of at most four cells per row is counted
/// whole; a wider one is left empty and its cells to the buckets.
fn cramers_v_counted(xs: &[u32], ys: &[u32], kx: usize, ky: usize, s: &mut Scratch) -> f64 {
    let present = |&(&x, &y): &(&u32, &u32)| x != MISSING_CAT && y != MISSING_CAT;
    let (row_n, col_n) = (zeroed(&mut s.row_n, kx), zeroed(&mut s.col_n, ky));
    let table = zeroed(&mut s.cells, kx * ky * usize::from(kx * ky <= 4 * xs.len()));
    for (&x, &y) in xs.iter().zip(ys).filter(present) {
        row_n[x as usize] += 1;
        col_n[y as usize] += 1;
        if let Some(cell) = table.get_mut(x as usize * ky + y as usize) {
            *cell += 1;
        }
    }
    let rows_used = row_n.iter().filter(|&&c| c > 0).count();
    let cols_used = col_n.iter().filter(|&&c| c > 0).count();
    let total: u32 = row_n.iter().sum();
    let n = total as f64;
    if let Some(v) = degenerate_table(n, rows_used, cols_used) {
        return v;
    }
    let mut chi2 = 0.0;
    if !table.is_empty() {
        for (row, &rn) in table.chunks_exact(ky).zip(&*row_n) {
            for (&obs, &cn) in row.iter().zip(&*col_n).filter(|(&obs, _)| obs > 0) {
                chi2 += cell_chi2(obs as usize, rn as usize, cn as usize, n);
            }
        }
        return finish_chi2(chi2, n, rows_used, cols_used);
    }
    // `row_n[x]` becomes where `x`'s bucket ends, then — the scatter fills
    // buckets back to front — where it starts.
    let mut end = 0;
    for count in row_n.iter_mut() {
        end += *count;
        *count = end;
    }
    let bucketed = zeroed(&mut s.cells, total as usize);
    for (&x, &y) in xs.iter().zip(ys).filter(present) {
        row_n[x as usize] -= 1;
        bucketed[row_n[x as usize] as usize] = y;
    }
    let bucket_ends = row_n[1..].iter().copied().chain([total]);
    for (&start, end) in row_n.iter().zip(bucket_ends) {
        let row = &mut bucketed[start as usize..end as usize];
        row.sort_unstable();
        for cell in row.chunk_by(|a, b| a == b) {
            let cn = col_n[cell[0] as usize] as usize;
            chi2 += cell_chi2(cell.len(), row.len(), cn, n);
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
        for cell in row.chunk_by(|a, b| a == b) {
            let y = cell[0] as u32;
            let col_n =
                col_keys.partition_point(|&k| k <= y) - col_keys.partition_point(|&k| k < y);
            chi2 += cell_chi2(cell.len(), row.len(), col_n, n);
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
/// category, square-rooted. Pairs with a missing code or a non-finite
/// value are skipped; moments that overflow give 0.0.
pub fn correlation_ratio(cats: &[u32], nums: &[f64]) -> f64 {
    assert_eq!(cats.len(), nums.len());
    let max = max_code(cats);
    let codes = (max < DENSE_CODE_LIMIT).then_some(max as usize + 1);
    eta(cats, nums, codes, None, &mut Vec::new())
}

/// η with per-code `(Σx, count)` accumulators, summed in code order:
/// `codes` of them in `groups` when dense (feature codes are), a sorted
/// map otherwise. `totals` is the pair's `[n, Σx, Σx²]` when the caller
/// has it, no row of the pair being skipped.
fn eta(
    cats: &[u32],
    nums: &[f64],
    codes: Option<usize>,
    totals: Option<[f64; 3]>,
    groups: &mut Vec<(f64, f64)>,
) -> f64 {
    let dense = zeroed(groups, codes.unwrap_or(0));
    let mut sparse: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    let mut summed = [0.0; 3];
    for (&c, &x) in cats.iter().zip(nums) {
        if c == MISSING_CAT || !x.is_finite() {
            continue;
        }
        let group = dense
            .get_mut(c as usize)
            .unwrap_or_else(|| sparse.entry(c).or_default());
        group.0 += x;
        group.1 += 1.0;
        if totals.is_none() {
            summed = moments(summed, x);
        }
    }
    let [total_n, total_sum, total_sq] = totals.unwrap_or(summed);
    // One pass of raw moments: `Σ(x−x̄)² = Σx² − n·x̄²` and
    // `Σ n_g (x̄_g − x̄)² = Σ s_g²/n_g − n·x̄²` — no second data scan.
    let (mut between, mut used) = (0.0, 0);
    for (sum, count) in dense.iter().filter(|g| g.1 > 0.0).chain(sparse.values()) {
        between += sum * sum / count;
        used += 1;
    }
    if total_n < 2.0 || used < 2 {
        return 0.0;
    }
    let grand_mean = total_sum / total_n;
    between -= total_n * grand_mean * grand_mean;
    let total_var = total_sq - total_n * grand_mean * grand_mean;
    // Overflowed moments are NaN or infinite, and `NaN.min(1.0)` is 1.0.
    if !(total_var.is_finite() && between.is_finite()) || total_var <= 0.0 || between <= 0.0 {
        return 0.0;
    }
    (between / total_var).sqrt().min(1.0)
}

/// What [`assoc_matrix`] reads off a column once, for all of its pairs.
enum Summary<'a> {
    /// Values and, when every one is finite, their `[n, Σx, Σx²]`.
    Num(&'a [f64], Option<[f64; 3]>),
    /// Codes, their range when dense, and whether none is missing.
    Cat(&'a [u32], Option<usize>, bool),
}

fn summary(col: &FeatureColumn) -> Summary<'_> {
    match col {
        FeatureColumn::Numeric(v) => {
            let finite = v.iter().all(|x| x.is_finite());
            let sums = finite.then(|| v.iter().fold([0.0; 3], |m, &x| moments(m, x)));
            Summary::Num(v, sums)
        }
        FeatureColumn::Categorical(c) => {
            let max = max_code(c);
            let codes = (max < DENSE_CODE_LIMIT).then_some(max as usize + 1);
            Summary::Cat(c, codes, !c.contains(&MISSING_CAT))
        }
    }
}

/// Symmetric association matrix over mixed-type columns, owned or
/// borrowed, diagonal = 1, each cell the pair's public measure to the bit.
///
/// Per-column work runs once: with every cell finite, a numeric pair
/// sums only `Σxy` and η takes the numeric column's totals (over the same
/// rows in the same order pairwise deletion would use). Dense pairs count
/// into one set of buffers, so the matrix allocates a fixed handful of
/// blocks beyond its rows.
pub fn assoc_matrix<C: Borrow<FeatureColumn>>(cols: &[C]) -> Vec<Vec<f64>> {
    use Summary::{Cat, Num};
    let p = cols.len();
    let rows = cols.first().map_or(0, |c| c.borrow().len());
    assert!(cols.iter().all(|c| c.borrow().len() == rows));
    let cols: Vec<Summary> = cols.iter().map(|c| summary(c.borrow())).collect();
    let cat_codes = |c: &Summary| if let Cat(_, k, _) = c { *k } else { None };
    let codes = cols.iter().filter_map(cat_codes).max().unwrap_or(0);
    let mut scratch = Scratch {
        row_n: Vec::with_capacity(codes),
        col_n: Vec::with_capacity(codes),
        cells: Vec::with_capacity(4 * rows),
        groups: Vec::with_capacity(codes),
    };
    let mut m = vec![vec![0.0; p]; p];
    for i in 0..p {
        m[i][i] = 1.0;
        for j in (i + 1)..p {
            let a = match (&cols[i], &cols[j]) {
                (Num(x, Some(mx)), Num(y, Some(my))) => {
                    let sxy = x.iter().zip(*y).fold(0.0, |sxy, (a, b)| sxy + a * b);
                    pearson_from(*mx, *my, sxy).abs()
                }
                (Num(x, _), Num(y, _)) => pearson(x, y).abs(),
                (Cat(x, Some(kx), _), Cat(y, Some(ky), _)) => {
                    cramers_v_counted(x, y, *kx, *ky, &mut scratch)
                }
                (Cat(x, ..), Cat(y, ..)) => cramers_v_sorted(x, y),
                (Cat(c, codes, whole), Num(x, mx)) | (Num(x, mx), Cat(c, codes, whole)) => {
                    eta(c, x, *codes, mx.filter(|_| *whole), &mut scratch.groups)
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

    /// An infinite cell is skipped like a NaN one. It used to make η 1.0
    /// against every categorical column (NaN moments pass both `<= 0.0`
    /// guards, and `NaN.min(1.0)` is 1.0) and `pearson` NaN.
    #[test]
    fn infinite_cells_are_skipped() {
        let cats: Vec<u32> = (0..60).map(|i| (i % 3) as u32).collect();
        let mut xs: Vec<f64> = (0..60).map(|i| ((i * 7919) % 60) as f64).collect();
        let ys: Vec<f64> = (0..60).map(|i| ((i * 31) % 17) as f64).collect();
        let eta = correlation_ratio(&cats[1..], &xs[1..]);
        let r = pearson(&xs[1..], &ys[1..]);
        assert!(eta < 0.5);
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            xs[0] = inf;
            assert_eq!(correlation_ratio(&cats, &xs).to_bits(), eta.to_bits());
            assert_eq!(pearson(&xs, &ys).to_bits(), r.to_bits());
        }
        // Finite cells whose squares overflow: no estimate, no association.
        let huge: Vec<f64> = (0..60)
            .map(|i| if i % 2 == 0 { 1e300 } else { -1e300 })
            .collect();
        assert_eq!(correlation_ratio(&cats, &huge), 0.0);
        assert_eq!(pearson(&huge, &huge), 0.0);
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

    /// A column of shape `kind` over `rows` cells, drawn from `salt`:
    /// every shape `assoc_matrix` may read differently from a pair.
    fn shaped_column(kind: u8, salt: u32, rows: usize) -> FeatureColumn {
        let h = |i: usize, m: u32| {
            let x = (i as u32 ^ salt).wrapping_mul(0x9E37_79B9).rotate_left(13);
            x.wrapping_mul(0x85EB_CA6B) % m
        };
        let num = |f: &dyn Fn(usize) -> f64| FeatureColumn::Numeric((0..rows).map(f).collect());
        let cat = |f: &dyn Fn(usize) -> u32| FeatureColumn::Categorical((0..rows).map(f).collect());
        match kind {
            // Finite values, a third of them repeated.
            0 => num(&|i| f64::from(h(i, 1000)) / 7.0 - 50.0),
            // NaN and infinite cells among finite ones.
            1 => num(&|i| match h(i, 9) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                v => f64::from(v),
            }),
            2 => num(&|_| 4.25),
            // Few codes, none missing: the one-table path.
            3 => cat(&|i| h(i, 3)),
            // Missing codes.
            4 => cat(&|i| match h(i, 5) {
                4 => MISSING_CAT,
                c => c,
            }),
            // Constant: single-cell tables against each other.
            5 => cat(&|_| 2),
            // Codes of 2¹⁶ and above: the sorted-key fallback.
            6 => cat(&|i| h(i, 4) * 70_001 + DENSE_CODE_LIMIT),
            // As many codes as rows: tables wider than the 4·n bound.
            _ => cat(&|i| h(i, rows as u32 * 3 + 1)),
        }
    }

    proptest! {
        /// `assoc_matrix` is the public per-pair measures, to the bit,
        /// whatever it reads once per column and whichever buffers it
        /// reuses across pairs.
        #[test]
        fn prop_assoc_matrix_is_the_pairwise_measures(
            rows in 0usize..70,
            shapes in proptest::collection::vec((0u8..8, any::<u32>()), 1..10),
        ) {
            let cols: Vec<FeatureColumn> =
                shapes.iter().map(|&(kind, salt)| shaped_column(kind, salt, rows)).collect();
            let m = assoc_matrix(&cols);
            for (i, a) in cols.iter().enumerate() {
                prop_assert_eq!(m[i][i], 1.0);
                for (j, b) in cols.iter().enumerate().skip(i + 1) {
                    let want = match (a, b) {
                        (FeatureColumn::Numeric(x), FeatureColumn::Numeric(y)) => pearson(x, y).abs(),
                        (FeatureColumn::Categorical(x), FeatureColumn::Categorical(y)) => cramers_v(x, y),
                        (FeatureColumn::Categorical(c), FeatureColumn::Numeric(x))
                        | (FeatureColumn::Numeric(x), FeatureColumn::Categorical(c)) => {
                            correlation_ratio(c, x)
                        }
                    };
                    let (got, back) = (m[i][j].to_bits(), m[j][i].to_bits());
                    prop_assert!(
                        got == want.to_bits() && back == got,
                        "pair ({i}, {j}): {} / {} vs {want}", m[i][j], m[j][i]
                    );
                }
            }
        }
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

        /// The one-table path, the bucket path and the sorted-key
        /// fallback are one function: same bits on dense codes (a `y`
        /// range padded past four cells per row forces the buckets), and
        /// on the same table re-coded sparsely (order kept) so that
        /// `cramers_v` itself takes the fallback. `x_codes`/`y_codes` of 1
        /// give constant columns and the single observed cell.
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
            let (x_codes, y_codes) = (x_codes as usize, y_codes as usize);
            let mut scratch = Scratch::default();
            let counted = cramers_v_counted(&xs, &ys, x_codes, y_codes, &mut scratch);
            let wide = y_codes + 4 * xs.len();
            let bucketed = cramers_v_counted(&xs, &ys, x_codes, wide, &mut scratch);
            prop_assert_eq!(counted.to_bits(), bucketed.to_bits());
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

        /// Every measure is a number in `[0, 1]` (|r| for Pearson)
        /// whatever the cells hold: NaN, ±inf, random bit patterns,
        /// values whose squares overflow, missing codes.
        #[test]
        fn prop_measures_stay_in_the_unit_interval(
            cells in proptest::collection::vec((any::<f64>(), any::<f64>(), 0u32..5, 0u32..5), 0..40),
        ) {
            let code = |c: u32| if c == 4 { MISSING_CAT } else { c };
            let xs: Vec<f64> = cells.iter().map(|c| c.0).collect();
            let ys: Vec<f64> = cells.iter().map(|c| c.1).collect();
            let cx: Vec<u32> = cells.iter().map(|c| code(c.2)).collect();
            let cy: Vec<u32> = cells.iter().map(|c| code(c.3)).collect();
            let unit = 0.0..=1.0;
            prop_assert!(unit.contains(&pearson(&xs, &ys).abs()));
            prop_assert!(unit.contains(&correlation_ratio(&cx, &xs)));
            prop_assert!(unit.contains(&cramers_v(&cx, &cy)));
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
