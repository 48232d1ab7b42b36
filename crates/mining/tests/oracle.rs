//! Production mining against a reference miner written from the paper.
//!
//! [`oracle`] is Algorithm 1 with Definitions 5–8 spelled out as nested
//! loops over APT rows: a pattern is matched row by row, a provenance
//! tuple is covered iff some APT row extending it matches, the refinement
//! lattice is generate-and-dedup over a `done` set, and the only pruning
//! is the λ_recall rule of Proposition 3.1. It shares no scoring or
//! enumeration code with the miner — no index, bitmap, predicate bank,
//! canonical enumeration order or upper bound. It reuses the three steps
//! the paper leaves to a library: LCA candidate generation, fragment
//! boundaries and diversity-aware top-k.
//!
//! With feature selection off and both sample rates at 1.0, `mine_apt`
//! and `prepare_apt` + `mine_prepared` must return the oracle's
//! explanations: same patterns, same order, same supports, same F.

use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;

use cajade_graph::Apt;
use cajade_mining::fragments::fragment_boundaries;
use cajade_mining::{
    lca_candidates, mine_apt, mine_prepared, prepare_apt, select_top_k_diverse, MiningParams,
    PatValue, Pattern, Pred, PredOp, Question,
};
use cajade_query::ProvenanceTable;
use cajade_storage::{AttrKind, Database, Value};

mod common;
use common::{build_apt, nan_apt, rendered, Row};

/// Definition 5, `t ⊨ Φ`: every predicate holds on the row; NULL satisfies
/// nothing, `=` is SQL equality, `≤`/`≥` compare numbers.
fn matches(apt: &Apt, row: usize, pattern: &Pattern) -> bool {
    pattern.preds().iter().all(|(field, pred)| {
        match (apt.value(row, *field), pred.value.to_value(), pred.op) {
            (Value::Null, _, _) => false,
            (Value::Str(a), Value::Str(b), PredOp::Eq) => a == b,
            (Value::Int(a), Value::Int(b), PredOp::Eq) => a == b,
            (cell, constant, op) => match (cell.as_f64(), constant.as_f64(), op) {
                (Some(x), Some(c), PredOp::Eq) => x == c,
                (Some(x), Some(c), PredOp::Le) => x <= c,
                (Some(x), Some(c), PredOp::Ge) => x >= c,
                _ => false,
            },
        }
    })
}

/// Definition 7 for `primary` against `secondary` (`None`: every other
/// output): `(TP, a1, FP, a2)` count provenance tuples, and the
/// denominators are the full `|PT(Q, D, t)|` — an uncovered tuple is a
/// false negative whether the pattern or the join lost it.
fn counts(
    apt: &Apt,
    pt: &ProvenanceTable,
    pattern: &Pattern,
    primary: usize,
    secondary: Option<usize>,
) -> (usize, usize, usize, usize) {
    let mut covered = vec![false; pt.num_rows];
    for row in 0..apt.num_rows {
        if matches(apt, row, pattern) {
            covered[apt.pt_row[row] as usize] = true;
        }
    }
    let support = |member: &dyn Fn(usize) -> bool| {
        let tuples = (0..pt.num_rows).filter(|&t| member(pt.group_of[t] as usize));
        tuples.fold((0, 0), |(hit, all), t| (hit + covered[t] as usize, all + 1))
    };
    let (tp, a1) = support(&|g| g == primary);
    let (fp, a2) = support(&|g| secondary.map_or(g != primary, |s| g == s));
    (tp, a1, fp, a2)
}

/// `(recall, F-score)`: precision `TP / (TP + FP)`, recall `TP / a1`,
/// their harmonic mean; a 0/0 is 0.
fn recall_and_f(tp: usize, a1: usize, fp: usize) -> (f64, f64) {
    let ratio = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let (precision, recall) = (ratio(tp, tp + fp), ratio(tp, a1));
    if precision + recall == 0.0 {
        return (recall, 0.0);
    }
    (recall, 2.0 * precision * recall / (precision + recall))
}

/// Algorithm 1 over one APT. `lca_rows` is the λ_pat-samp sample at rate
/// 1.0: the question's rows for `mine_apt`, every row for `prepare_apt`.
/// Returns the explanations in `common::rendered`'s format.
fn oracle(
    db: &Database,
    apt: &Apt,
    pt: &ProvenanceTable,
    question: &Question,
    params: &MiningParams,
    lca_rows: &[u32],
) -> Vec<String> {
    let directions = question.directions();
    let score = |pattern: &Pattern| -> Vec<_> {
        directions
            .iter()
            .map(|&(t, s)| {
                let (tp, a1, fp, a2) = counts(apt, pt, pattern, t, s);
                let (recall, f) = recall_and_f(tp, a1, fp);
                (t, s, (tp, a1, fp, a2), recall, f)
            })
            .collect()
    };
    let best_recall = |pattern: &Pattern| score(pattern).iter().map(|d| d.3).fold(0.0, f64::max);

    // filterAttrs is off: every non-group-by attribute, split by kind.
    let (numeric, categorical): (Vec<usize>, Vec<usize>) = apt
        .pattern_fields()
        .into_iter()
        .partition(|&f| apt.fields[f].kind == AttrKind::Numeric);

    // LCA candidates, the k_cat with the highest recall first.
    let mut seeds = lca_candidates(apt, lca_rows, &categorical);
    seeds.retain(|p| p.len() <= params.max_cat_attrs);
    let mut seeds: Vec<(f64, Pattern)> = seeds.into_iter().map(|p| (best_recall(&p), p)).collect();
    seeds.sort_by(|a, b| b.0.total_cmp(&a.0));
    seeds.truncate(params.k_cat_patterns);

    // Refinements: one `≤ c` / `≥ c` per fragment boundary of a free
    // numeric attribute; the empty pattern seeds the numeric-only ones.
    let thresholds: Vec<(usize, Vec<f64>)> = numeric
        .iter()
        .map(|&f| (f, fragment_boundaries(apt, f, None, params.num_frags)))
        .collect();
    let mut todo: VecDeque<Pattern> = std::iter::once(Pattern::empty())
        .chain(seeds.into_iter().map(|(_, p)| p))
        .collect();
    let mut done: HashSet<Pattern> = todo.iter().cloned().collect();
    let mut kept = Vec::new();
    while let Some(pattern) = todo.pop_front() {
        let mut best = 0.0f64;
        for (t, s, support, recall, f) in score(&pattern) {
            best = best.max(recall);
            if !pattern.is_empty() && recall > params.lambda_recall {
                kept.push((pattern.clone(), t, s, support, f));
            }
        }
        // Proposition 3.1: refining cannot raise recall.
        if !pattern.is_empty() && best <= params.lambda_recall {
            continue;
        }
        if pattern.num_numeric_preds(apt) >= params.lambda_attr_num {
            continue;
        }
        for (field, boundaries) in thresholds.iter().filter(|(f, _)| pattern.is_free(*f)) {
            for &c in boundaries {
                for op in [PredOp::Le, PredOp::Ge] {
                    let value = PatValue::Float(c.to_bits());
                    let refined = pattern.refine(*field, Pred { op, value });
                    if done.insert(refined.clone()) {
                        todo.push_back(refined);
                    }
                }
            }
        }
    }

    let scored: Vec<(Pattern, f64)> = kept.iter().map(|k| (k.0.clone(), k.4)).collect();
    select_top_k_diverse(&scored, params.top_k)
        .into_iter()
        .map(|i| {
            let (pattern, t, s, support, f) = &kept[i];
            let pattern = pattern.render(apt, db.pool());
            format!("{pattern}|{t}|{s:?}|{support:?}|{f:.12}")
        })
        .collect()
}

/// Both production miners against the oracle; returns how many
/// explanations were compared.
fn check(
    db: &Database,
    apt: &Apt,
    pt: &ProvenanceTable,
    question: &Question,
    top_k: usize,
) -> Result<usize, TestCaseError> {
    let params = MiningParams {
        feature_selection: false,
        lambda_pat_samp: 1.0,
        lambda_f1_samp: 1.0,
        top_k,
        ..Default::default()
    };
    let all_rows: Vec<u32> = (0..apt.num_rows as u32).collect();
    let in_question = |row: &u32| match question {
        Question::TwoPoint { t1, t2 } => {
            let group = pt.group_of[apt.pt_row[*row as usize] as usize] as usize;
            group == *t1 || group == *t2
        }
        Question::SinglePoint { .. } => true,
    };
    let question_rows: Vec<u32> = all_rows.iter().copied().filter(in_question).collect();

    let one_shot = mine_apt(apt, pt, question, &params);
    prop_assert!(one_shot.patterns_evaluated < params.max_patterns);
    let expected = oracle(db, apt, pt, question, &params, &question_rows);
    prop_assert_eq!(rendered(&one_shot, apt, db), expected);

    let prepared = prepare_apt(apt, pt, &params);
    let warm = mine_prepared(&prepared, apt, pt, question, &params);
    prop_assert!(warm.patterns_evaluated < params.max_patterns);
    let expected = oracle(db, apt, pt, question, &params, &all_rows);
    prop_assert_eq!(rendered(&warm, apt, db), expected);
    Ok(one_shot.explanations.len() + warm.explanations.len())
}

#[test]
fn prop_miners_match_the_oracle_on_random_small_apts() {
    let compared = std::cell::Cell::new(0usize);
    let value = || (proptest::bool::ANY, -5i64..15);
    let strategy = (
        proptest::collection::vec((0u8..4, 0u8..3, value(), value()), 4..28),
        proptest::collection::vec(0u8..4, 0..6),
        0u8..6,              // question selector
        proptest::bool::ANY, // single point?
        0usize..3,           // top_k selector
    );
    proptest::test_runner::TestRunner::deterministic()
        .run(&strategy, |(rows, fanout, qsel, single_point, k)| {
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(g, c, (has_x, x), (has_y, y))| {
                    (g, c, has_x.then_some(x), has_y.then_some(y))
                })
                .collect();
            let (db, apt, pt, groups) = build_apt(&rows, &fanout);
            let t = qsel as usize % groups;
            let question = if single_point {
                Question::SinglePoint { t }
            } else {
                Question::TwoPoint {
                    t1: t,
                    t2: (t + 1) % groups,
                }
            };
            compared.set(compared.get() + check(&db, &apt, &pt, &question, [1, 3, 10][k])?);
            Ok(())
        })
        .unwrap();
    assert!(compared.get() > 1000, "compared {}", compared.get());
}

/// `NaN` and `±inf` cells: no boundary, no match for `NaN`, and the
/// planted points gap is still found.
#[test]
fn miners_match_the_oracle_on_nan_and_infinite_cells() {
    let (db, apt, pt) = nan_apt();
    for question in [
        Question::TwoPoint { t1: 1, t2: 0 },
        Question::SinglePoint { t: 0 },
    ] {
        for top_k in [1, 3, 10] {
            assert!(check(&db, &apt, &pt, &question, top_k).unwrap() > 0);
        }
    }
    let params = MiningParams {
        feature_selection: false,
        lambda_pat_samp: 1.0,
        lambda_f1_samp: 1.0,
        ..Default::default()
    };
    let out = mine_apt(&apt, &pt, &Question::TwoPoint { t1: 1, t2: 0 }, &params);
    let found = rendered(&out, &apt, &db);
    assert!(
        found.iter().any(|e| e.starts_with("prov_games_points≥")),
        "{found:#?}"
    );
}
