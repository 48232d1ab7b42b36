//! Columnar bitmap scoring engine for the mining hot loop.
//!
//! [`Scorer::score`](crate::score::Scorer::score) walks the APT row by row
//! through the interpreted [`Pattern::matches`] for every candidate
//! Algorithm 1 generates — thousands of scans per question. This module
//! replaces that with set-at-a-time evaluation:
//!
//! * a [`ScoreIndex`] is built **once** per `(APT, scan)` — the λ_F1
//!   sample, or every row for the exact re-score of the winners — in two
//!   steps. The constructors fix the *scan order*: rows by `(output
//!   group, PT row)`. [`ScoreIndex::encode`] then copies the fields a
//!   pattern may name — the ≤ λ#sel-attr `filterAttrs` kept, chosen on
//!   that order — into dense typed arrays (`i64`/`f64` values, interned
//!   `u32` string codes — the global [`cajade_storage::StringPool`]
//!   already dictionary-encodes categoricals) with side null bitmaps.
//!   Evaluating a predicate on a field that was not encoded is a bug in
//!   the caller and panics with the field's name;
//! * evaluating one predicate produces a [`Mask`] — a 64-bit-word bitmap
//!   over the sorted scan — and a pattern's matches are the AND of its
//!   predicate masks;
//! * Definition-7 TP/FP counting becomes segmented popcounts: each output
//!   group owns a contiguous position range, and distinct covered PT rows
//!   are counted by popcount (one APT row per PT row in the scan) or a
//!   segment-deduplicated bit walk (join fan-out duplicated PT rows).
//!
//! The refinement BFS in `mine_core` carries each pattern's mask and
//! scores a refined child as `parent_mask AND predicate_mask` + popcount,
//! with the `|num_fields| × λ#frag × 2` threshold predicate masks
//! precomputed in a [`PredBank`]; the winners are re-scored the same way
//! on the all-rows index. The engine returns metrics **bit-identical** to
//! the scalar [`Scorer`](crate::score::Scorer), its pattern-level test
//! reference (`crates/mining/tests/engine_equivalence.rs`).

use cajade_graph::{Apt, AptColumn, CellData};
use cajade_query::ProvenanceTable;

use crate::pattern::{PatValue, Pattern, Pred, PredOp};
use crate::score::PatternMetrics;

/// A fixed-width bitmap over the scan positions of a [`ScoreIndex`].
///
/// The trailing word is always tail-masked (bits past `len` are zero), so
/// popcounts never need a final correction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    words: Vec<u64>,
    len: usize,
}

impl Mask {
    /// All-zero mask of `len` bits.
    pub fn empty(len: usize) -> Mask {
        Mask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one mask of `len` bits (tail-masked).
    pub fn full(len: usize) -> Mask {
        let mut m = Mask {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        if !len.is_multiple_of(64) {
            if let Some(last) = m.words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        m
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the mask has zero bits of capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self ∧ other` as a new mask.
    pub fn and(&self, other: &Mask) -> Mask {
        debug_assert_eq!(self.len, other.len);
        Mask {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// `self ∧= other` in place.
    pub fn and_assign(&mut self, other: &Mask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Removes every bit set in `other` (`self ∧= ¬other`).
    pub fn and_not_assign(&mut self, other: &Mask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Total set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Set bits within `[start, end)`.
    pub fn count_ones_range(&self, start: usize, end: usize) -> usize {
        if start >= end {
            return 0;
        }
        let (sw, sb) = (start / 64, start % 64);
        let (ew, eb) = (end / 64, end % 64);
        let lo = u64::MAX << sb;
        if sw == ew {
            let hi = if eb == 0 { 0 } else { u64::MAX >> (64 - eb) };
            return (self.words[sw] & lo & hi).count_ones() as usize;
        }
        let mut n = (self.words[sw] & lo).count_ones() as usize;
        for w in &self.words[sw + 1..ew] {
            n += w.count_ones() as usize;
        }
        if eb != 0 {
            n += (self.words[ew] & (u64::MAX >> (64 - eb))).count_ones() as usize;
        }
        n
    }

    /// Approximate heap bytes (cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Calls `f` for each set bit index in `[start, end)`, ascending.
    #[inline]
    fn for_each_set_in(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        if start >= end {
            return;
        }
        let sw = start / 64;
        let ew = (end - 1) / 64;
        for wi in sw..=ew {
            let mut w = self.words[wi];
            if wi == sw && !start.is_multiple_of(64) {
                w &= u64::MAX << (start % 64);
            }
            if wi == ew && !end.is_multiple_of(64) {
                w &= u64::MAX >> (64 - end % 64);
            }
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                f(wi * 64 + b);
                w &= w - 1;
            }
        }
    }
}

/// One APT column read in scan order: typed arrays (interned string ids
/// for strings — the pool is the dictionary) and a NULL bitmap.
#[derive(Debug, Clone)]
struct EncCol {
    data: CellData,
    /// Bit set ⇒ position is NULL. `None` when the column has no nulls.
    nulls: Option<Mask>,
}

/// A columnar scoring index over one APT and one scan of its rows (a
/// λ_F1 sample, or all of them). Owns copies of the encoded columns, so it
/// stays valid (and cacheable) independently of the APT it was built from.
#[derive(Debug, Clone)]
pub struct ScoreIndex {
    /// Scan positions → APT row, sorted by `(group, pt_row)`.
    order: Vec<u32>,
    /// Scan position → dense segment id (one segment per distinct PT row
    /// present in the scan; ids ascend along positions). Empty when
    /// `unit_segments`: counting never reads it then.
    seg_of: Vec<u32>,
    /// Per output group: `[start, end)` position range.
    group_ranges: Vec<(u32, u32)>,
    /// Fast path: every segment holds exactly one position (no join
    /// fan-out inside the scan), so counting = popcount.
    unit_segments: bool,
    /// The encoded columns by APT field, ascending: the fields handed to
    /// [`encode`](Self::encode) and no others.
    cols: Vec<(usize, EncCol)>,
    /// The APT's field names, NUL-separated in one allocation: what asking
    /// for a field outside `cols` panics with.
    field_names: String,
    /// Full `|PT(t)|` per group (Definition 7 denominators — never
    /// shrunk by sampling or lossy joins).
    group_pt_counts: Vec<usize>,
    /// Total PT rows.
    total_pt: usize,
}

impl ScoreIndex {
    /// The scan order over all APT rows (exact metrics); no field encoded
    /// yet.
    pub fn exact(apt: &Apt, pt: &ProvenanceTable) -> ScoreIndex {
        Self::build(apt, pt, (0..apt.num_rows as u32).collect())
    }

    /// The scan order over a fixed APT row sample (λ_F1-samp); no field
    /// encoded yet.
    pub fn sampled(apt: &Apt, pt: &ProvenanceTable, sample: &[u32]) -> ScoreIndex {
        Self::build(apt, pt, sample.to_vec())
    }

    fn build(apt: &Apt, pt: &ProvenanceTable, mut scan: Vec<u32>) -> ScoreIndex {
        let pt_of = |r: u32| apt.pt_row[r as usize];
        let group_of = |r: u32| pt.group_of[pt_of(r) as usize] as usize;
        // APT rows ascend in PT row ([`Apt::pt_row`]), so an ascending
        // scan — all rows, a Bernoulli sample — already is in PT-row
        // order; only a sample a caller listed in some other order needs
        // the sort.
        if !scan.windows(2).all(|w| pt_of(w[0]) <= pt_of(w[1])) {
            scan.sort_by_key(|&r| pt_of(r));
        }
        // One stable bucket pass over the groups then yields `(group, PT
        // row)` order: each group a contiguous position range, each
        // distinct PT row a contiguous segment within it.
        let n = scan.len();
        let num_groups = pt.rows_of_group.len();
        let mut starts = vec![0u32; num_groups + 1];
        for &r in &scan {
            starts[group_of(r) + 1] += 1;
        }
        for g in 0..num_groups {
            starts[g + 1] += starts[g];
        }
        let group_ranges = starts.windows(2).map(|w| (w[0], w[1])).collect();
        let mut order = vec![0u32; n];
        for &r in &scan {
            let next = &mut starts[group_of(r)];
            order[*next as usize] = r;
            *next += 1;
        }

        // A group is a function of the PT row, so a segment ends exactly
        // where the PT row changes.
        let mut seg_of = Vec::with_capacity(n);
        let mut segs = 0u32;
        for (i, &r) in order.iter().enumerate() {
            if i > 0 && pt_of(r) != pt_of(order[i - 1]) {
                segs += 1;
            }
            seg_of.push(segs);
        }
        let unit_segments = n == 0 || segs as usize + 1 == n;
        if unit_segments {
            seg_of = Vec::new();
        }

        ScoreIndex {
            order,
            seg_of,
            group_ranges,
            unit_segments,
            cols: Vec::new(),
            field_names: field_names(apt),
            group_pt_counts: pt.rows_of_group.iter().map(Vec::len).collect(),
            total_pt: pt.num_rows,
        }
    }

    /// This index's scan — rows, order, groups and segments; none of its
    /// columns — as the index of `apt`, an APT whose `pt_row` is the vector
    /// of the APT this index was built over: what `build` returns for
    /// `apt` and the same rows, for a copy of the order instead of the
    /// passes that found it.
    pub(crate) fn scan_of(&self, apt: &Apt) -> ScoreIndex {
        ScoreIndex {
            cols: Vec::new(),
            field_names: field_names(apt),
            ..self.clone()
        }
    }

    /// Encodes `fields` of `apt` — the APT this index was built over — in
    /// scan order, next to the ones already encoded. These are the fields
    /// a pattern scored on this index may name.
    pub fn encode(mut self, apt: &Apt, fields: &[usize]) -> ScoreIndex {
        for &f in fields {
            if let Err(at) = self.cols.binary_search_by_key(&f, |(g, _)| *g) {
                let col = encode_column(&apt.columns[f], &self.order);
                self.cols.insert(at, (f, col));
            }
        }
        self
    }

    /// The encoded column of `field`; panics for a field [`encode`] was not
    /// given — an all-false mask there would silently score a pattern 0.
    ///
    /// [`encode`]: Self::encode
    fn col(&self, field: usize) -> &EncCol {
        match self.cols.binary_search_by_key(&field, |(f, _)| *f) {
            Ok(i) => &self.cols[i].1,
            Err(_) => panic!(
                "ScoreIndex: field {field} (`{}`) is not encoded; encoded: {:?}",
                self.field_names.split('\0').nth(field).unwrap_or("?"),
                self.cols.iter().map(|(f, _)| *f).collect::<Vec<_>>(),
            ),
        }
    }

    /// Number of scan positions (bitmap width).
    pub fn scan_size(&self) -> usize {
        self.order.len()
    }

    /// Scan positions → APT row, sorted by `(output group, PT row)` — the
    /// training order of feature selection ([`crate::featsel`]).
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Full `|PT(t)|` of one output group — the Definition-7 `a`
    /// denominator (never shrunk by sampling or lossy joins).
    pub fn group_size(&self, group: usize) -> usize {
        self.group_pt_counts.get(group).copied().unwrap_or(0)
    }

    /// Distinct covered PT rows of `mask` within `primary`'s segment —
    /// the TP count of [`Self::score_mask`] alone, without the FP side.
    /// The refinement BFS uses this on the precomputed [`PredBank`] masks
    /// to bound a child's achievable recall/F-score before materializing
    /// its mask.
    pub fn tp_of(&self, mask: &Mask, primary: usize) -> usize {
        let (ps, pe) = self
            .group_ranges
            .get(primary)
            .map(|&(s, e)| (s as usize, e as usize))
            .unwrap_or((0, 0));
        self.count_covered(mask, ps, pe)
    }

    /// All-one mask sized for this index (the empty pattern's matches).
    pub fn full_mask(&self) -> Mask {
        Mask::full(self.order.len())
    }

    /// Evaluates one predicate into a fresh mask over the scan positions.
    /// Semantics mirror [`Pattern::matches`] exactly: NULL never matches,
    /// `=` follows SQL equality (ints widen against floats, strings
    /// compare by interned id, cross-kind is false), `≤`/`≥` compare the
    /// numeric view and are false for strings.
    pub fn eval_pred(&self, field: usize, pred: &Pred) -> Mask {
        let col = self.col(field);
        let n = self.order.len();
        let mut out = Mask::empty(n);
        match (&col.data, pred.op) {
            (CellData::Int(vals), PredOp::Eq) => match pred.value {
                PatValue::Int(c) => fill(&mut out, vals, |&v| v == c),
                PatValue::Float(bits) => {
                    let t = f64::from_bits(bits);
                    fill(&mut out, vals, |&v| (v as f64) == t)
                }
                PatValue::Str(_) => {}
            },
            (CellData::Float(vals), PredOp::Eq) => match pred.value {
                PatValue::Int(c) => fill(&mut out, vals, |&v| v == c as f64),
                PatValue::Float(bits) => {
                    let t = f64::from_bits(bits);
                    fill(&mut out, vals, |&v| v == t)
                }
                PatValue::Str(_) => {}
            },
            (CellData::Str(vals), PredOp::Eq) => {
                if let PatValue::Str(id) = pred.value {
                    fill(&mut out, vals, |&v| v == id)
                }
            }
            (CellData::Str(_), PredOp::Le | PredOp::Ge) => {}
            (CellData::Int(vals), op) => {
                if let Some(t) = pred.value.as_f64() {
                    match op {
                        PredOp::Le => fill(&mut out, vals, |&v| (v as f64) <= t),
                        _ => fill(&mut out, vals, |&v| (v as f64) >= t),
                    }
                }
            }
            (CellData::Float(vals), op) => {
                if let Some(t) = pred.value.as_f64() {
                    match op {
                        PredOp::Le => fill(&mut out, vals, |&v| v <= t),
                        _ => fill(&mut out, vals, |&v| v >= t),
                    }
                }
            }
        }
        if let Some(nulls) = &col.nulls {
            out.and_not_assign(nulls);
        }
        out
    }

    /// The match mask of a whole pattern (AND of its predicate masks).
    pub fn pattern_mask(&self, pattern: &Pattern) -> Mask {
        let mut mask = self.full_mask();
        for (field, pred) in pattern.preds() {
            mask.and_assign(&self.eval_pred(*field, pred));
        }
        mask
    }

    /// Distinct covered PT rows (segments) among set bits in `[start, end)`.
    fn count_covered(&self, mask: &Mask, start: usize, end: usize) -> usize {
        if self.unit_segments {
            return mask.count_ones_range(start, end);
        }
        let mut count = 0usize;
        let mut last = u32::MAX;
        mask.for_each_set_in(start, end, |p| {
            let s = self.seg_of[p];
            if s != last {
                count += 1;
                last = s;
            }
        });
        count
    }

    /// Definition-7 metrics of a match mask for `primary` vs `secondary`
    /// (`None` ⇒ all other outputs). Bit-identical to
    /// [`Scorer::score`](crate::score::Scorer::score) on the same sample.
    pub fn score_mask(
        &self,
        mask: &Mask,
        primary: usize,
        secondary: Option<usize>,
    ) -> PatternMetrics {
        let n = self.order.len();
        let (ps, pe) = self
            .group_ranges
            .get(primary)
            .map(|&(s, e)| (s as usize, e as usize))
            .unwrap_or((0, 0));
        let tp = self.count_covered(mask, ps, pe);
        let a1 = self.group_pt_counts.get(primary).copied().unwrap_or(0);
        let (fp, a2) = match secondary {
            Some(s) => {
                let (ss, se) = self
                    .group_ranges
                    .get(s)
                    .map(|&(s, e)| (s as usize, e as usize))
                    .unwrap_or((0, 0));
                (
                    self.count_covered(mask, ss, se),
                    self.group_pt_counts.get(s).copied().unwrap_or(0),
                )
            }
            None => (self.count_covered(mask, 0, n) - tp, self.total_pt - a1),
        };
        PatternMetrics::from_counts(tp, a1, fp, a2)
    }

    /// Convenience: mask + score in one call.
    pub fn score(
        &self,
        pattern: &Pattern,
        primary: usize,
        secondary: Option<usize>,
    ) -> PatternMetrics {
        self.score_mask(&self.pattern_mask(pattern), primary, secondary)
    }

    /// Approximate heap bytes (cache accounting).
    pub fn approx_bytes(&self) -> usize {
        let cols: usize = self
            .cols
            .iter()
            .map(|(_, c)| {
                (match &c.data {
                    CellData::Int(v) => v.len() * 8,
                    CellData::Float(v) => v.len() * 8,
                    CellData::Str(v) => v.len() * 4,
                }) + c.nulls.as_ref().map_or(0, Mask::approx_bytes)
                    + std::mem::size_of::<(usize, EncCol)>()
            })
            .sum();
        (self.order.len() + self.seg_of.len()) * 4
            + self.group_ranges.len() * 8
            + self.group_pt_counts.len() * 8
            + cols
            + self.field_names.len()
    }
}

/// The APT's field names, NUL-separated ([`ScoreIndex::field_names`]).
fn field_names(apt: &Apt) -> String {
    (apt.fields.iter().map(|f| f.name.as_str()))
        .collect::<Vec<_>>()
        .join("\0")
}

/// Sets bit `i` of `out` iff `pred(vals[i])`: a word at a time, without a
/// branch per cell.
#[inline]
fn fill<T>(out: &mut Mask, vals: &[T], pred: impl Fn(&T) -> bool) {
    debug_assert_eq!(out.len, vals.len());
    for (word, chunk) in out.words.iter_mut().zip(vals.chunks(64)) {
        *word = chunk
            .iter()
            .enumerate()
            .fold(0, |w, (bit, v)| w | (pred(v) as u64) << bit);
    }
}

fn encode_column(col: &AptColumn, order: &[u32]) -> EncCol {
    let cells = col.read(order);
    let nulls = (!cells.nulls.is_empty()).then(|| {
        let mut mask = Mask::empty(order.len());
        for &i in &cells.nulls {
            mask.set(i as usize);
        }
        mask
    });
    EncCol {
        data: cells.data,
        nulls,
    }
}

/// Precomputed refinement predicate masks: for every selected numeric
/// field and fragment boundary, the `≤`/`≥` threshold masks
/// (`|num_fields| × λ#frag × 2` bitmaps). The refinement BFS scores a
/// child as `parent_mask AND bank.mask(..)` + popcount.
#[derive(Debug, Clone)]
pub struct PredBank {
    /// `per_field[i][b]` = `[≤ mask, ≥ mask]` for boundary `b` of the
    /// `i`-th fragmented field.
    per_field: Vec<Vec<[Mask; 2]>>,
}

impl PredBank {
    /// Builds the bank for `frag` (`(field, boundaries)` pairs, in the
    /// miner's refinement order).
    pub fn build(index: &ScoreIndex, frag: &[(usize, Vec<f64>)]) -> PredBank {
        let per_field = frag
            .iter()
            .map(|(field, boundaries)| {
                boundaries
                    .iter()
                    .map(|&c| {
                        [PredOp::Le, PredOp::Ge].map(|op| {
                            index.eval_pred(
                                *field,
                                &Pred {
                                    op,
                                    value: PatValue::Float(c.to_bits()),
                                },
                            )
                        })
                    })
                    .collect()
            })
            .collect();
        PredBank { per_field }
    }

    /// The precomputed mask of `frag[field_idx]`'s `boundary_idx`-th
    /// threshold under `op`.
    pub fn mask(&self, field_idx: usize, boundary_idx: usize, op: PredOp) -> &Mask {
        let slot = match op {
            PredOp::Le => 0,
            PredOp::Ge => 1,
            PredOp::Eq => unreachable!("refinements are threshold predicates"),
        };
        &self.per_field[field_idx][boundary_idx][slot]
    }

    /// Approximate heap bytes (cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.per_field
            .iter()
            .flat_map(|f| f.iter())
            .map(|pair| pair[0].approx_bytes() + pair[1].approx_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_full_is_tail_masked() {
        let m = Mask::full(70);
        assert_eq!(m.count_ones(), 70);
        assert_eq!(m.count_ones_range(0, 70), 70);
        assert_eq!(m.count_ones_range(64, 70), 6);
        assert_eq!(m.count_ones_range(3, 3), 0);
    }

    #[test]
    fn mask_range_counts() {
        let mut m = Mask::empty(200);
        for i in (0..200).step_by(3) {
            m.set(i);
        }
        let naive = |s: usize, e: usize| (s..e).filter(|&i| i % 3 == 0).count();
        for (s, e) in [(0, 200), (1, 199), (63, 65), (64, 128), (130, 131), (5, 5)] {
            assert_eq!(m.count_ones_range(s, e), naive(s, e), "[{s},{e})");
        }
    }

    #[test]
    fn mask_bit_walk_matches_get() {
        let mut m = Mask::empty(150);
        for i in [0, 1, 63, 64, 65, 127, 128, 149] {
            m.set(i);
        }
        let mut seen = Vec::new();
        m.for_each_set_in(1, 149, |i| seen.push(i));
        assert_eq!(seen, vec![1, 63, 64, 65, 127, 128]);
    }

    #[test]
    fn and_not_clears_null_positions() {
        let mut a = Mask::full(10);
        let mut nulls = Mask::empty(10);
        nulls.set(3);
        nulls.set(9);
        a.and_not_assign(&nulls);
        assert_eq!(a.count_ones(), 8);
        assert!(!a.get(3) && !a.get(9));
    }
}
