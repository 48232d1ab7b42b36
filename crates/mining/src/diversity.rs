//! Diversity-aware top-k selection (paper §3.5).
//!
//! The first returned pattern is the one with the highest F-score; each
//! subsequent pick maximizes
//! `wscore(Φ) = Fscore(Φ) + min_{Φ'∈R} D(Φ, Φ')` where `D` averages a
//! per-attribute match score: `1` if the attribute is absent from `Φ'`,
//! `−0.3` if present with a different constant, `−2` if present with the
//! same constant.

use std::borrow::Borrow;

use crate::pattern::Pattern;

/// Per-attribute match score between two patterns for an attribute
/// constrained in `phi` (paper's `matchscore(Φ, Φ', A)`).
pub fn match_score(phi: &Pattern, other: &Pattern, field: usize) -> f64 {
    let p = phi.pred_on(field).expect("field constrained in phi");
    match other.pred_on(field) {
        None => 1.0,
        Some(q) if q.value == p.value => -2.0,
        Some(_) => -0.3,
    }
}

/// `D(Φ, Φ')`: average match score over `Φ`'s constrained attributes,
/// in `[-2, 1]`. The empty pattern scores 0 by convention.
pub fn diversity_score(phi: &Pattern, other: &Pattern) -> f64 {
    if phi.is_empty() {
        return 0.0;
    }
    let sum: f64 = phi
        .preds()
        .iter()
        .map(|(f, _)| match_score(phi, other, *f))
        .sum();
    sum / phi.len() as f64
}

/// Selects up to `k` items by repeated `wscore` maximization. Each item is
/// `(pattern, f_score)`, the pattern owned or borrowed; returns indices
/// into the input slice in selection order.
pub fn select_top_k_diverse<P: Borrow<Pattern>>(items: &[(P, f64)], k: usize) -> Vec<usize> {
    if items.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut selected: Vec<usize> = Vec::with_capacity(k.min(items.len()));
    let mut remaining: Vec<usize> = (0..items.len()).collect();

    // First pick: highest F-score (ties → lowest index, deterministic).
    // `total_cmp` keeps this a total order even if an F-score is NaN —
    // with `partial_cmp(..).unwrap_or(Equal)` a NaN compared Equal to
    // everything, so which pattern won depended on scan order.
    let first = *remaining
        .iter()
        .max_by(|&&a, &&b| items[a].1.total_cmp(&items[b].1).then(b.cmp(&a)))
        .unwrap();
    selected.push(first);
    remaining.retain(|&i| i != first);

    // `min_div[i]` caches `min_{Φ'∈R} D(Φ_i, Φ')` incrementally: each new
    // pick updates every remaining candidate with one diversity
    // computation, so selection is O(k·n) diversity evaluations instead
    // of the O(k²·n) of recomputing the minimum from scratch per
    // comparison. The cached minimum is the same value, so the selection
    // (including tie-breaks) is unchanged.
    let mut min_div: Vec<f64> = items
        .iter()
        .map(|(pat, _)| diversity_score(pat.borrow(), items[first].0.borrow()))
        .collect();

    while selected.len() < k && !remaining.is_empty() {
        let best = *remaining
            .iter()
            .max_by(|&&a, &&b| {
                let wa = items[a].1 + min_div[a];
                let wb = items[b].1 + min_div[b];
                wa.total_cmp(&wb).then(b.cmp(&a))
            })
            .unwrap();
        selected.push(best);
        remaining.retain(|&i| i != best);
        for &i in &remaining {
            let d = diversity_score(items[i].0.borrow(), items[best].0.borrow());
            min_div[i] = min_div[i].min(d);
        }
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

    #[test]
    fn k_larger_than_input() {
        let items = vec![(pat(&[(0, 1)]), 0.5)];
        let sel = select_top_k_diverse(&items, 10);
        assert_eq!(sel, vec![0]);
        assert!(select_top_k_diverse::<Pattern>(&[], 3).is_empty());
    }
}
