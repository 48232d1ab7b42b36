//! Feature-matrix representations decoupled from the storage layer.
//!
//! Two representations coexist:
//!
//! * [`FeatureColumn`] — decoded values (`f64` / dense `u32` codes), the
//!   input of the float-matrix [`DecisionTree`](crate::tree::DecisionTree)
//!   trainer and of the association measures in [`crate::correlation`];
//! * [`BinnedColumn`] — a *pre-binned* column: every value is a small
//!   bin code (`u16`), numeric bins carry their quantile upper edges, and
//!   missing values occupy a dedicated trailing bin. This is what the
//!   histogram trainer ([`crate::tree::HistTree`]) consumes: split search
//!   walks bin histograms instead of re-scanning and re-sorting node rows,
//!   and the codes can be gathered straight from dictionary/typed-array
//!   encoded storage without materializing per-row floats.

/// One feature (attribute) over all rows.
#[derive(Debug, Clone)]
pub enum FeatureColumn {
    /// Numeric feature; `NaN` marks a missing value.
    Numeric(Vec<f64>),
    /// Categorical feature as dense codes; `u32::MAX` marks missing.
    Categorical(Vec<u32>),
}

/// Sentinel for a missing categorical value.
pub const MISSING_CAT: u32 = u32::MAX;

/// Hasher for `u64` dictionary keys (interned ids, integers, float
/// bits): a multiply and a fold where SipHash was most of the cost of a
/// categorical gather. What a dictionary holds never depends on hash
/// order (codes go by first appearance), and its callers cap the rows
/// they hand in (training rows, strided base-column samples), which
/// bounds what colliding keys could cost.
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("dictionary keys are u64");
    }
    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Dictionary-codes a key gather (`None` = missing): `codes[i]` is the
/// first-appearance rank of row `i`'s key ([`MISSING_CAT`] = missing),
/// `key_of_code[c]` the key dense code `c` stands for.
pub fn dense_codes<I: IntoIterator<Item = Option<u64>>>(keys: I) -> (Vec<u32>, Vec<u64>) {
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    let mut dict: HashMap<u64, u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
    let mut key_of_code: Vec<u64> = Vec::new();
    let codes = keys
        .into_iter()
        .map(|key| match key {
            None => MISSING_CAT,
            Some(k) => *dict.entry(k).or_insert_with(|| {
                key_of_code.push(k);
                key_of_code.len() as u32 - 1
            }),
        })
        .collect();
    (codes, key_of_code)
}

/// Bins first-appearance dense codes `0..distinct` under a budget of
/// `max_bins` value bins: `(bin_of_code, split_values, has_other)`. Every
/// code keeps its own bin when they fit; otherwise the `max_bins` most
/// frequent ones (ties: earliest appearance) do, renumbered by first
/// appearance so the assignment stays independent of the frequency
/// ordering details, and the rest collapse into a non-splittable "other"
/// bin.
fn bin_dense_codes(codes: &[u32], distinct: usize, max_bins: usize) -> (Vec<u16>, u16, bool) {
    let max_bins = max_bins.clamp(1, u16::MAX as usize - 2);
    if distinct <= max_bins {
        return ((0..distinct as u16).collect(), distinct as u16, false);
    }
    let mut counts = vec![0u32; distinct];
    for &c in codes.iter().filter(|&&c| c != MISSING_CAT) {
        counts[c as usize] += 1;
    }
    let mut order: Vec<u32> = (0..distinct as u32).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(counts[c as usize]), c));
    let split_values = max_bins as u16;
    let mut kept: Vec<u32> = order[..max_bins].to_vec();
    kept.sort_unstable();
    let mut bin_of_code = vec![split_values; distinct]; // the "other" bin
    for (bin, code) in kept.into_iter().enumerate() {
        bin_of_code[code as usize] = bin as u16;
    }
    (bin_of_code, split_values, true)
}

/// What a [`BinnedColumn`]'s bins mean.
#[derive(Debug, Clone)]
pub enum BinKind {
    /// Ordered bins from quantile binning. `thresholds[b]` is the largest
    /// value of bin `b`; a split candidate `≤ thresholds[b]` sends bins
    /// `0..=b` left. Values above the last threshold live in an implicit
    /// top bin (`thresholds.len()`) that can only ever go right.
    Numeric {
        /// Quantile upper edges, strictly increasing.
        thresholds: Vec<f64>,
    },
    /// Unordered bins (one per retained category). Bins `0..split_values`
    /// are equality-split candidates (`code == v` goes left); when the
    /// column's cardinality exceeded the bin budget, bin `split_values`
    /// aggregates the rare remainder and is never a split candidate —
    /// mirroring the float trainer's candidate-value sampling.
    Categorical {
        /// Number of equality-splittable bins.
        split_values: u16,
    },
}

/// The reusable half of a [`BinnedColumn`]: how one column's values map
/// to bin codes, independent of any particular row set.
///
/// Fitting a spec is the only part of binning that inspects the value
/// distribution (quantile sort for numerics, frequency capping for
/// categoricals); encoding any row gather through a fitted spec is a
/// linear pass. This is what makes column statistics shareable across
/// join graphs: the same context-table column appears in many APTs, and a
/// spec fitted **once per base column** can encode every APT's gather of
/// it, instead of each [`BinnedColumn::from_f64`]/[`BinnedColumn::from_keys`]
/// re-deriving thresholds per APT.
#[derive(Debug, Clone)]
pub enum BinSpec {
    /// Quantile thresholds for a numeric column (strictly increasing,
    /// finite).
    Numeric {
        /// Quantile upper edges; bin `b` holds values `≤ thresholds[b]`.
        thresholds: Vec<f64>,
    },
    /// Category dictionary for a categorical column.
    Categorical {
        /// Raw key (interned id / integer / float bits) → bin code.
        remap: std::collections::HashMap<u64, u16>,
        /// Number of equality-splittable bins.
        split_values: u16,
        /// True when a non-splittable "other" bin aggregates the rare
        /// tail (cardinality exceeded the bin budget at fit time).
        has_other: bool,
    },
}

impl BinSpec {
    /// Fits numeric quantile thresholds (`NaN`/`±∞` = excluded) over at
    /// most `max_bins` value bins. Thresholds are drawn from the distinct
    /// finite values the same way the float trainer samples split
    /// candidates: all of them when few, evenly spaced quantiles
    /// otherwise. Columns much longer than the bin budget estimate their
    /// quantiles from a strided sample (≥ 16 values per bin), so the sort
    /// — the only super-linear step — stays bounded.
    pub fn fit_f64(values: &[f64], max_bins: usize) -> BinSpec {
        let max_bins = max_bins.clamp(1, u16::MAX as usize - 2);
        let sample_cap = 16 * max_bins;
        let step = if values.len() > sample_cap {
            values.len().div_ceil(sample_cap)
        } else {
            1
        };
        let mut vals: Vec<f64> = values
            .iter()
            .step_by(step)
            .copied()
            .filter(|x| x.is_finite())
            .collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        let thresholds: Vec<f64> = if vals.len() <= max_bins {
            vals
        } else {
            let step = vals.len() as f64 / max_bins as f64;
            let mut t: Vec<f64> = (0..max_bins)
                .map(|i| vals[(i as f64 * step) as usize])
                .collect();
            t.dedup();
            t
        };
        BinSpec::Numeric { thresholds }
    }

    /// Fits a categorical dictionary from arbitrary per-row keys (`None`
    /// = missing). Dense codes are assigned in first-appearance order;
    /// when the cardinality exceeds `max_bins`, the `max_bins` most
    /// frequent categories (ties: earliest appearance) keep their own
    /// bins and the rest collapse into a non-splittable "other" bin.
    pub fn fit_keys<I: IntoIterator<Item = Option<u64>>>(keys: I, max_bins: usize) -> BinSpec {
        let (codes, key_of_code) = dense_codes(keys);
        let (bin_of_code, split_values, has_other) =
            bin_dense_codes(&codes, key_of_code.len(), max_bins);
        BinSpec::Categorical {
            remap: key_of_code.into_iter().zip(bin_of_code).collect(),
            split_values,
            has_other,
        }
    }

    /// Number of value bins an encoding through this spec produces (the
    /// missing bin is `num_bins` itself).
    pub fn num_bins(&self) -> u16 {
        match self {
            // One bin per threshold plus the implicit top bin.
            BinSpec::Numeric { thresholds } => (thresholds.len() + 1) as u16,
            BinSpec::Categorical {
                split_values,
                has_other,
                ..
            } => split_values + u16::from(*has_other),
        }
    }

    /// Encodes a numeric gather through the fitted thresholds. Non-finite
    /// values (`NaN`, `±∞`) route to the missing bin — they carry no
    /// usable ordering for threshold splits, and `NaN` is how the mining
    /// gathers mark NULL cells.
    pub fn encode_f64(&self, values: &[f64]) -> BinnedColumn {
        let thresholds = match self {
            BinSpec::Numeric { thresholds } => thresholds,
            BinSpec::Categorical { .. } => panic!("numeric encode through categorical spec"),
        };
        let num_bins = self.num_bins();
        let codes = values
            .iter()
            .map(|&v| {
                if !v.is_finite() {
                    num_bins // missing bin
                } else {
                    thresholds.partition_point(|&t| t < v) as u16
                }
            })
            .collect();
        BinnedColumn {
            codes,
            num_bins,
            kind: BinKind::Numeric {
                thresholds: thresholds.clone(),
            },
        }
    }

    /// Encodes a categorical key gather through the fitted dictionary.
    /// Keys unseen at fit time route to the "other" bin when one exists,
    /// else to the missing bin (a shared spec fitted on the base table
    /// can meet only keys the base table contains; anything else is, by
    /// construction, rare).
    pub fn encode_keys<I: IntoIterator<Item = Option<u64>>>(&self, keys: I) -> BinnedColumn {
        let (remap, split_values, has_other) = match self {
            BinSpec::Categorical {
                remap,
                split_values,
                has_other,
            } => (remap, *split_values, *has_other),
            BinSpec::Numeric { .. } => panic!("categorical encode through numeric spec"),
        };
        let num_bins = self.num_bins();
        let unknown = if has_other { split_values } else { num_bins };
        let codes = keys
            .into_iter()
            .map(|key| match key {
                None => num_bins,
                Some(k) => remap.get(&k).copied().unwrap_or(unknown),
            })
            .collect();
        BinnedColumn {
            codes,
            num_bins,
            kind: BinKind::Categorical { split_values },
        }
    }

    /// Reserves a non-splittable unknown/"other" bin on a categorical
    /// spec that does not have one yet. A spec fitted on a **sample** of
    /// a column can meet real categories at encode time that the sample
    /// missed; without this bin they would be conflated with missing
    /// values. No-op for numeric specs and specs already carrying an
    /// other bin.
    pub fn reserve_unknown_bin(&mut self) {
        if let BinSpec::Categorical { has_other, .. } = self {
            *has_other = true;
        }
    }

    /// Like [`encode_keys`](Self::encode_keys), but for a gather that is
    /// already dictionary-coded: `codes[i]` is a dense first-appearance
    /// code ([`MISSING_CAT`] = missing) and `key_of_code[c]` is the raw
    /// key dense code `c` stands for. The remap lookup runs once per
    /// **distinct** value instead of once per row, so encoding a long
    /// gather through a shared spec costs an array index per row.
    pub fn encode_dense_keys(&self, codes: &[u32], key_of_code: &[u64]) -> BinnedColumn {
        let (remap, split_values, has_other) = match self {
            BinSpec::Categorical {
                remap,
                split_values,
                has_other,
            } => (remap, *split_values, *has_other),
            BinSpec::Numeric { .. } => panic!("categorical encode through numeric spec"),
        };
        let num_bins = self.num_bins();
        let unknown = if has_other { split_values } else { num_bins };
        let lut: Vec<u16> = key_of_code
            .iter()
            .map(|k| remap.get(k).copied().unwrap_or(unknown))
            .collect();
        BinnedColumn::from_bin_of_code(codes, &lut, num_bins, split_values)
    }

    /// Approximate heap footprint (cache byte budgeting).
    pub fn approx_bytes(&self) -> usize {
        match self {
            BinSpec::Numeric { thresholds } => thresholds.len() * 8 + 32,
            BinSpec::Categorical { remap, .. } => remap.len() * 16 + 64,
        }
    }
}

/// A pre-binned feature column for histogram tree training.
///
/// Codes are `u16`; valid value bins are `0..num_bins` and the dedicated
/// missing bin is `num_bins` itself (so histograms are simply
/// `num_bins + 1` wide and accumulation is branch-free). Missing values
/// always route to the right child, matching the float trainer.
#[derive(Debug, Clone)]
pub struct BinnedColumn {
    codes: Vec<u16>,
    num_bins: u16,
    kind: BinKind,
}

impl BinnedColumn {
    /// Quantile-bins a numeric column (`NaN`/`±∞` = missing) into at most
    /// `max_bins` value bins: [`BinSpec::fit_f64`] on these values
    /// followed by [`BinSpec::encode_f64`].
    pub fn from_f64(values: &[f64], max_bins: usize) -> BinnedColumn {
        BinSpec::fit_f64(values, max_bins).encode_f64(values)
    }

    /// Builds a categorical binned column from arbitrary per-row keys
    /// (`None` = missing): [`BinSpec::fit_keys`] on these keys followed
    /// by [`BinSpec::encode_keys`].
    pub fn from_keys<I: IntoIterator<Item = Option<u64>> + Clone>(
        keys: I,
        max_bins: usize,
    ) -> BinnedColumn {
        BinSpec::fit_keys(keys.clone(), max_bins).encode_keys(keys)
    }

    /// [`from_keys`](Self::from_keys) for a gather [`dense_codes`] has
    /// already dictionary-coded into `distinct` codes: the same column,
    /// with no dictionary built or consulted.
    pub fn from_dense_codes(codes: &[u32], distinct: usize, max_bins: usize) -> BinnedColumn {
        let (bin_of_code, split_values, has_other) = bin_dense_codes(codes, distinct, max_bins);
        let num_bins = split_values + u16::from(has_other);
        BinnedColumn::from_bin_of_code(codes, &bin_of_code, num_bins, split_values)
    }

    /// A categorical column from dense codes ([`MISSING_CAT`] = missing)
    /// and the bin each code maps to: an array index per row.
    fn from_bin_of_code(
        codes: &[u32],
        bin_of_code: &[u16],
        num_bins: u16,
        split_values: u16,
    ) -> BinnedColumn {
        let bin = |&c: &u32| match c {
            MISSING_CAT => num_bins,
            c => bin_of_code[c as usize],
        };
        BinnedColumn {
            codes: codes.iter().map(bin).collect(),
            num_bins,
            kind: BinKind::Categorical { split_values },
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Per-row bin codes (`num_bins` = missing).
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Number of value bins (the missing bin is `num_bins` itself).
    pub fn num_bins(&self) -> u16 {
        self.num_bins
    }

    /// Bin semantics.
    pub fn kind(&self) -> &BinKind {
        &self.kind
    }

    /// True for quantile-binned numeric columns.
    pub fn is_numeric(&self) -> bool {
        matches!(self.kind, BinKind::Numeric { .. })
    }

    /// The bin code of row `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u16 {
        self.codes[i]
    }

    /// Missing-value check for row `i`.
    pub fn is_missing(&self, i: usize) -> bool {
        self.codes[i] == self.num_bins
    }
}

impl FeatureColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            FeatureColumn::Numeric(v) => v.len(),
            FeatureColumn::Categorical(v) => v.len(),
        }
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for the numeric variant.
    pub fn is_numeric(&self) -> bool {
        matches!(self, FeatureColumn::Numeric(_))
    }

    /// Missing-value check for row `i`.
    pub fn is_missing(&self, i: usize) -> bool {
        match self {
            FeatureColumn::Numeric(v) => v[i].is_nan(),
            FeatureColumn::Categorical(v) => v[i] == MISSING_CAT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_kind() {
        let n = FeatureColumn::Numeric(vec![1.0, f64::NAN]);
        let c = FeatureColumn::Categorical(vec![0, MISSING_CAT, 2]);
        assert_eq!(n.len(), 2);
        assert_eq!(c.len(), 3);
        assert!(n.is_numeric());
        assert!(!c.is_numeric());
    }

    #[test]
    fn missing_detection() {
        let n = FeatureColumn::Numeric(vec![1.0, f64::NAN]);
        let c = FeatureColumn::Categorical(vec![0, MISSING_CAT]);
        assert!(!n.is_missing(0));
        assert!(n.is_missing(1));
        assert!(!c.is_missing(0));
        assert!(c.is_missing(1));
    }

    #[test]
    fn numeric_binning_small_domain_keeps_every_value() {
        let col = BinnedColumn::from_f64(&[3.0, 1.0, 2.0, 1.0, f64::NAN], 16);
        // Distinct values 1,2,3 → thresholds [1,2,3], codes are ranks.
        assert_eq!(col.codes(), &[2, 0, 1, 0, col.num_bins()]);
        assert!(col.is_missing(4));
        assert!(!col.is_missing(0));
        match col.kind() {
            BinKind::Numeric { thresholds } => assert_eq!(thresholds, &[1.0, 2.0, 3.0]),
            _ => panic!("numeric kind"),
        }
    }

    #[test]
    fn numeric_binning_caps_and_orders() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let col = BinnedColumn::from_f64(&values, 16);
        assert!(col.num_bins() <= 17);
        // Codes are monotone in the values.
        for w in col.codes().windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Values above the last threshold land in the implicit top bin.
        assert_eq!(col.code(999), col.num_bins() - 1);
    }

    #[test]
    fn categorical_binning_dense_codes_and_missing() {
        let keys = [Some(7u64), Some(3), Some(7), None, Some(9)];
        let col = BinnedColumn::from_keys(keys, 16);
        // First-appearance order: 7→0, 3→1, 9→2.
        assert_eq!(col.codes(), &[0, 1, 0, col.num_bins(), 2]);
        assert!(!col.is_numeric());
        match col.kind() {
            BinKind::Categorical { split_values } => assert_eq!(*split_values, 3),
            _ => panic!("categorical kind"),
        }
    }

    #[test]
    fn non_finite_values_route_to_missing_bin() {
        let col = BinnedColumn::from_f64(
            &[1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3.0, 2.0],
            16,
        );
        // Thresholds come from the finite values only.
        match col.kind() {
            BinKind::Numeric { thresholds } => assert_eq!(thresholds, &[1.0, 2.0, 3.0]),
            _ => panic!("numeric kind"),
        }
        // NaN and both infinities all land in the missing bin.
        for i in [1, 2, 3] {
            assert!(col.is_missing(i), "row {i} should be missing");
        }
        assert!(!col.is_missing(0) && !col.is_missing(4) && !col.is_missing(5));
    }

    #[test]
    fn spec_fit_then_encode_matches_from_f64() {
        let values: Vec<f64> = (0..300).map(|i| ((i * 37) % 101) as f64).collect();
        let direct = BinnedColumn::from_f64(&values, 16);
        let spec = BinSpec::fit_f64(&values, 16);
        let via_spec = spec.encode_f64(&values);
        assert_eq!(direct.codes(), via_spec.codes());
        assert_eq!(direct.num_bins(), via_spec.num_bins());
    }

    #[test]
    fn shared_numeric_spec_encodes_a_different_gather() {
        // Fit on the "base column", encode a subset gather (what a join
        // graph's APT sees): codes follow the shared thresholds.
        let base: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let spec = BinSpec::fit_f64(&base, 4);
        let gathered = [0.0, 55.0, 99.0, f64::NAN];
        let col = spec.encode_f64(&gathered);
        assert_eq!(col.num_bins(), spec.num_bins());
        assert_eq!(col.code(0), 0);
        assert!(col.is_missing(3));
        // Codes are monotone in the encoded values.
        assert!(col.code(0) <= col.code(1) && col.code(1) <= col.code(2));
    }

    #[test]
    fn shared_categorical_spec_routes_unknown_keys() {
        // Uncapped spec: an unknown key has no "other" bin → missing.
        let spec = BinSpec::fit_keys([Some(1u64), Some(2), Some(3)], 16);
        let col = spec.encode_keys([Some(2u64), Some(99), None]);
        assert_eq!(col.code(0), 1);
        assert!(col.is_missing(1), "unknown key routes to missing bin");
        assert!(col.is_missing(2));

        // Capped spec: unknown keys join the aggregated-rare bin instead.
        let keys: Vec<Option<u64>> = (0..40).map(|i| Some((i % 10) as u64)).collect();
        let capped = BinSpec::fit_keys(keys, 4);
        let col = capped.encode_keys([Some(999u64), None]);
        match capped {
            BinSpec::Categorical {
                split_values,
                has_other,
                ..
            } => {
                assert!(has_other);
                assert_eq!(col.code(0), split_values, "unknown → other bin");
            }
            _ => panic!("categorical spec"),
        }
        assert!(col.is_missing(1));
    }

    #[test]
    fn dense_codes_bin_like_the_keys_they_stand_for() {
        // Eleven raw keys, some cells missing; a budget that fits them and one
        // that caps them into an "other" bin.
        let keys: Vec<Option<u64>> = (0..300u64)
            .map(|i| (i % 11 != 0).then_some((i * i) % 25 * 1_000_003))
            .collect();
        let (codes, key_of_code) = dense_codes(keys.iter().copied());
        assert_eq!(key_of_code[..3], [1_000_003, 4_000_012, 9_000_027]);
        assert_eq!(codes[0], MISSING_CAT);
        for max_bins in [32, 6] {
            let direct = BinnedColumn::from_dense_codes(&codes, key_of_code.len(), max_bins);
            let via_keys = BinnedColumn::from_keys(keys.iter().copied(), max_bins);
            assert_eq!(direct.codes(), via_keys.codes());
            assert_eq!(direct.num_bins(), via_keys.num_bins());
            let spec = BinSpec::fit_keys(keys.iter().copied(), max_bins);
            assert_eq!(
                direct.codes(),
                spec.encode_dense_keys(&codes, &key_of_code).codes()
            );
        }
    }

    #[test]
    fn categorical_binning_caps_rare_values_into_other() {
        // Values 0 and 1 dominate; 2..=9 appear once each; budget of 4.
        let keys: Vec<Option<u64>> = (0..40)
            .map(|i| {
                Some(if i < 16 {
                    0
                } else if i < 32 {
                    1
                } else {
                    (i - 30) as u64
                })
            })
            .collect();
        let col = BinnedColumn::from_keys(keys, 4);
        match col.kind() {
            BinKind::Categorical { split_values } => assert_eq!(*split_values, 4),
            _ => panic!("categorical kind"),
        }
        assert_eq!(col.num_bins(), 5);
        // The frequent values kept their own bins.
        assert_eq!(col.code(0), 0);
        assert_eq!(col.code(16), 1);
        // Some rare value collapsed into the "other" bin (code 4).
        assert!(col.codes().contains(&4));
    }
}
