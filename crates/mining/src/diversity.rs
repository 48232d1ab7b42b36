//! Diversity-aware top-k selection (paper §3.5).
//!
//! The first returned pattern is the one with the highest F-score; each
//! subsequent pick maximizes
//! `wscore(Φ) = Fscore(Φ) + min_{Φ'∈R} D(Φ, Φ')` where `D` averages a
//! per-attribute match score: `1` if the attribute is absent from `Φ'`,
//! `−0.3` if present with a different constant, `−2` if present with the
//! same constant. [`select_top_k_diverse`] makes one pass over the
//! remaining candidates per pick, each bringing its `min D` up to date
//! with one `D` against the newest pick.

use std::borrow::Borrow;

use crate::pattern::{Pattern, Pred};

/// Per-attribute match score between two patterns for an attribute
/// constrained in `phi` (paper's `matchscore(Φ, Φ', A)`).
pub fn match_score(phi: &Pattern, other: &Pattern, field: usize) -> f64 {
    let p = phi.pred_on(field).expect("field constrained in phi");
    match_of(p, other.pred_on(field))
}

/// `matchscore` of `phi`'s predicate `p` against `other`'s predicate on
/// the same attribute, if any.
fn match_of(p: &Pred, q: Option<&Pred>) -> f64 {
    match q {
        None => 1.0,
        Some(q) if q.value == p.value => -2.0,
        Some(_) => -0.3,
    }
}

/// `D(Φ, Φ')`: average match score over `Φ`'s constrained attributes,
/// in `[-2, 1]`. The empty pattern scores 0 by convention. Both patterns
/// hold their predicates sorted by field, so one merge walk finds each of
/// `Φ`'s attributes in `Φ'`.
pub fn diversity_score(phi: &Pattern, other: &Pattern) -> f64 {
    if phi.is_empty() {
        return 0.0;
    }
    let mut others = other.preds().iter().peekable();
    let sum: f64 = (phi.preds().iter())
        .map(|(field, p)| {
            while others.next_if(|(f, _)| f < field).is_some() {}
            match_of(p, others.next_if(|(f, _)| f == field).map(|(_, q)| q))
        })
        .sum();
    sum / phi.len() as f64
}

/// Selects up to `k` items by repeated `wscore` maximization. Each item is
/// `(pattern, f_score)`, the pattern owned or borrowed; returns indices
/// into the input slice in selection order.
///
/// The first pick is the highest F-score (ties → lowest index;
/// `total_cmp` keeps a NaN F-score in a total order, so the pick never
/// depends on scan order). Every later pick maximizes `wscore = F +
/// min_{Φ'∈R} D(Φ, Φ')`, ties → lowest index. One pass per pick: each
/// remaining candidate's `min D` takes in the newest pick — one `D` — and
/// the highest `wscore` is taken from the same pass.
pub fn select_top_k_diverse<P: Borrow<Pattern>>(items: &[(P, f64)], k: usize) -> Vec<usize> {
    if items.is_empty() || k == 0 {
        return Vec::new();
    }
    let (pattern, f) = (|i: usize| items[i].0.borrow(), |i: usize| items[i].1);
    let first = (0..items.len())
        .max_by(|&a, &b| f(a).total_cmp(&f(b)).then(b.cmp(&a)))
        .expect("items is not empty");
    let mut selected: Vec<usize> = Vec::with_capacity(k.min(items.len()));
    selected.push(first);

    // `(index, min D over the picks so far)`, ascending in index.
    let mut remaining: Vec<(usize, f64)> = (0..items.len())
        .filter(|&i| i != first)
        .map(|i| (i, f64::INFINITY))
        .collect();
    while selected.len() < k && !remaining.is_empty() {
        let newest = pattern(selected[selected.len() - 1]);
        let mut best = (0, f64::NEG_INFINITY);
        for (at, (i, min_div)) in remaining.iter_mut().enumerate() {
            *min_div = min_div.min(diversity_score(pattern(*i), newest));
            let wscore = f(*i) + *min_div;
            // Strictly greater: a tie keeps the lower index.
            if at == 0 || wscore.total_cmp(&best.1).is_gt() {
                best = (at, wscore);
            }
        }
        selected.push(remaining.remove(best.0).0);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatValue, Pred, PredOp};

    fn pat(preds: &[(usize, i64)]) -> Pattern {
        Pattern::from_preds(
            preds
                .iter()
                .map(|&(f, v)| {
                    (
                        f,
                        Pred {
                            op: PredOp::Eq,
                            value: PatValue::Int(v),
                        },
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn match_score_cases() {
        let a = pat(&[(0, 1), (1, 2)]);
        let b_absent = pat(&[(2, 9)]);
        let b_diff = pat(&[(0, 5)]);
        let b_same = pat(&[(0, 1)]);
        assert_eq!(match_score(&a, &b_absent, 0), 1.0);
        assert_eq!(match_score(&a, &b_diff, 0), -0.3);
        assert_eq!(match_score(&a, &b_same, 0), -2.0);
    }

    #[test]
    fn diversity_bounds() {
        let a = pat(&[(0, 1), (1, 2)]);
        assert_eq!(diversity_score(&a, &a), -2.0); // identical
        let disjoint = pat(&[(5, 5)]);
        assert_eq!(diversity_score(&a, &disjoint), 1.0); // fully disjoint
        let mixed = pat(&[(0, 1), (9, 9)]); // same const on 0, absent on 1
        assert_eq!(diversity_score(&a, &mixed), (-2.0 + 1.0) / 2.0);
    }

    #[test]
    fn first_pick_is_highest_fscore() {
        let items = vec![
            (pat(&[(0, 1)]), 0.4),
            (pat(&[(1, 1)]), 0.9),
            (pat(&[(2, 1)]), 0.7),
        ];
        let sel = select_top_k_diverse(&items, 2);
        assert_eq!(sel[0], 1);
    }

    #[test]
    fn diversity_displaces_near_duplicates() {
        // Item 1 is a near-duplicate of item 0 (same constant on field 0)
        // with slightly lower F; item 2 is disjoint with lower F still.
        let items = vec![
            (pat(&[(0, 1)]), 0.90),
            (pat(&[(0, 1), (1, 2)]), 0.88),
            (pat(&[(5, 7)]), 0.40),
        ];
        let sel = select_top_k_diverse(&items, 2);
        assert_eq!(sel[0], 0);
        // wscore(1) = 0.88 + D(p1, p0) = 0.88 + (−2 + 1)/2 = 0.38
        // wscore(2) = 0.40 + 1.0 = 1.40 → the disjoint pattern wins.
        assert_eq!(sel[1], 2);
    }

    /// §3.5 by its definition: each round, every candidate not yet picked
    /// gets `wscore = F + min D` over all the picks so far, recomputed from
    /// scratch (`O(k²n)` `D`s in all), and the highest (`total_cmp`, ties
    /// to the lower index) is picked; the first pick, with no `D`, is the
    /// highest `F`.
    fn select_by_definition(items: &[(Pattern, f64)], k: usize) -> Vec<usize> {
        let mut selected: Vec<usize> = Vec::new();
        while selected.len() < k.min(items.len()) {
            let wscore = |i: usize| {
                if selected.is_empty() {
                    return items[i].1;
                }
                let min_div = (selected.iter())
                    .map(|&p| diversity_score(&items[i].0, &items[p].0))
                    .fold(f64::INFINITY, f64::min);
                items[i].1 + min_div
            };
            let best = (0..items.len())
                .filter(|i| !selected.contains(i))
                .max_by(|&a, &b| wscore(a).total_cmp(&wscore(b)).then(b.cmp(&a)))
                .expect("a candidate is left");
            selected.push(best);
        }
        selected
    }

    /// `D` by the paper's definition: `match_score` on each of `Φ`'s
    /// attributes, found in `Φ'` by lookup.
    fn diversity_by_lookup(phi: &Pattern, other: &Pattern) -> f64 {
        if phi.is_empty() {
            return 0.0;
        }
        let sum: f64 = (phi.preds().iter())
            .map(|(f, _)| match_score(phi, other, *f))
            .sum();
        sum / phi.len() as f64
    }

    proptest::proptest! {
        /// The selection against its definition, and the merge-walk `D`
        /// against the lookup, on patterns over 5 fields × 3 constants (so
        /// patterns repeat), some items copied outright — a pattern kept
        /// in both directions — F-scores drawn from a few values (ties),
        /// NaN of either sign and ±∞ among them, and `k` from 0 past the
        /// item count.
        #[test]
        fn prop_selection_is_the_definition(
            raw in proptest::collection::vec(
                (proptest::collection::vec((0usize..5, 0i64..3), 0..4), 0usize..12),
                0..30,
            ),
            copies in proptest::collection::vec(0usize..40, 0..6),
            k in 0usize..36,
        ) {
            let fs = [0.5, 0.5, 0.25, 1.0, 0.0, f64::NAN, -f64::NAN, f64::INFINITY];
            let mut items: Vec<(Pattern, f64)> = (raw.iter())
                .map(|(preds, fi)| {
                    let f = fs.get(*fi).copied().unwrap_or(*fi as f64 / 11.0);
                    (pat(preds), f)
                })
                .collect();
            for &c in &copies {
                if !items.is_empty() {
                    let copy = items[c % items.len()].clone();
                    items.push(copy);
                }
            }
            for (a, _) in &items {
                for (b, _) in &items {
                    let (merged, looked_up) = (diversity_score(a, b), diversity_by_lookup(a, b));
                    proptest::prop_assert!(merged.to_bits() == looked_up.to_bits());
                }
            }
            let (picked, defined) = (select_top_k_diverse(&items, k), select_by_definition(&items, k));
            proptest::prop_assert!(picked == defined, "k {k}: {picked:?}, by definition {defined:?}");
        }
    }

    #[test]
    fn k_larger_than_input() {
        let items = vec![(pat(&[(0, 1)]), 0.5)];
        let sel = select_top_k_diverse(&items, 10);
        assert_eq!(sel, vec![0]);
        assert!(select_top_k_diverse::<Pattern>(&[], 3).is_empty());
    }
}
