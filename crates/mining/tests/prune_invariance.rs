//! Property test: F-score upper-bound pruning never changes `mine_apt`
//! output.
//!
//! The prune skips lattice children whose TP upper bound
//! (`min(tp_parent, tp_pred)`) caps recall at ≤ λ_recall in every
//! direction — children that could neither be kept nor (by
//! Proposition 3.1) seed a keepable refinement — and, when a single
//! pattern is requested, children whose F-score bound cannot beat the
//! best kept F so far. Explanations (patterns, order, metrics) must be
//! identical with the prune on and off, across randomized databases, join
//! fan-out, samples, question kinds, recall thresholds, and `top_k`.

use std::cell::Cell;

use proptest::prelude::*;

use cajade_mining::{mine_apt, MiningParams, Question};

mod common;
use common::{build_apt, rendered};

#[test]
fn prop_ub_pruning_never_changes_mine_apt_output() {
    let pruned_total = Cell::new(0u64);
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let strategy = (
        proptest::collection::vec(
            (
                0u8..4,
                0u8..3,
                (proptest::bool::ANY, -5i64..15),
                (proptest::bool::ANY, -5i64..15),
            ),
            4..40,
        ),
        proptest::collection::vec(0u8..4, 0..6),
        0u8..6,              // question selector
        proptest::bool::ANY, // single point?
        0u8..3,              // λ_recall selector
        0u8..4,              // bit 0: top_k = 1?  bit 1: λ_F1 sampling?
    );
    runner
        .run(
            &strategy,
            |(rows, fanout, qsel, single_point, recall_sel, mode)| {
                let (top1, f1_sample) = (mode & 1 != 0, mode & 2 != 0);
                let rows: Vec<(u8, u8, Option<i64>, Option<i64>)> = rows
                    .into_iter()
                    .map(|(g, c, (has_x, x), (has_y, y))| {
                        (g, c, has_x.then_some(x), has_y.then_some(y))
                    })
                    .collect();
                let (db, apt, pt, groups) = build_apt(&rows, &fanout);
                let question = if single_point {
                    Question::SinglePoint {
                        t: qsel as usize % groups.max(1),
                    }
                } else {
                    Question::TwoPoint {
                        t1: qsel as usize % groups.max(1),
                        t2: (qsel as usize + 1) % groups.max(1),
                    }
                };
                let mut params = MiningParams {
                    lambda_recall: [0.2, 0.5, 0.8][recall_sel as usize],
                    lambda_pat_samp: 1.0,
                    lambda_f1_samp: if f1_sample { 0.5 } else { 1.0 },
                    top_k: if top1 { 1 } else { 10 },
                    ..Default::default()
                };

                params.refine_ub_prune = true;
                let pruned = mine_apt(&apt, &pt, &question, &params);
                params.refine_ub_prune = false;
                let unpruned = mine_apt(&apt, &pt, &question, &params);

                prop_assert_eq!(rendered(&pruned, &apt, &db), rendered(&unpruned, &apt, &db));
                // Pruning only ever *removes* evaluations.
                prop_assert!(pruned.patterns_evaluated <= unpruned.patterns_evaluated);
                prop_assert_eq!(unpruned.timings.ub_pruned_children, 0);
                pruned_total.set(pruned_total.get() + pruned.timings.ub_pruned_children);
                Ok(())
            },
        )
        .unwrap();
    // The property is vacuous if the prune never fires: across the
    // deterministic case set it must have skipped real children.
    assert!(
        pruned_total.get() > 0,
        "upper-bound pruning never fired across the generated cases"
    );
}
