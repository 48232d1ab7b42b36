//! Production mining against a reference miner written from the paper.
//!
//! [`oracle`] is Algorithm 1 with Definitions 5–8 as nested loops over APT
//! rows: patterns are matched row by row, a provenance tuple is covered
//! iff some APT row extending it matches, the refinement lattice is
//! generate-and-dedup over a `done` set, and the only pruning is the
//! λ_recall rule of Proposition 3.1. It shares no scoring or enumeration
//! code with the miner; it reuses the steps the engines never forked on:
//! LCA candidates, fragment boundaries and diversity-aware top-k.
//!
//! With feature selection off and both sample rates at 1.0, the one
//! Algorithm-1 body must return the oracle's explanations in both of its
//! scopes — `mine_apt` (the question's rows) and `prepare_apt` +
//! `mine_prepared` (every row): same patterns, same order, same supports,
//! same F.

use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;

use cajade_graph::Apt;
use cajade_mining::fragments::fragment_boundaries;
use cajade_mining::{
    group_determining_fields, lca_candidates, mine_apt, mine_prepared, prepare_apt,
    select_top_k_diverse, MiningOutcome, MiningParams, PatValue, Pattern, Pred, PredOp, Question,
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

/// One direction's Definition-7 score: `(TP, a1, FP, a2)` over provenance
/// tuples, recall and F.
type Score = ((usize, usize, usize, usize), f64, f64);

/// Definition 7 for `primary` against `secondary` (`None`: every other
/// output). The denominators are the full `|PT(Q, D, t)|` — an uncovered
/// tuple is a false negative whether the pattern or the join lost it.
/// Precision is `TP / (TP + FP)`, recall `TP / a1`, F their harmonic
/// mean; a 0/0 is 0.
fn score(
    (apt, pt): (&Apt, &ProvenanceTable),
    pattern: &Pattern,
    (primary, secondary): (usize, Option<usize>),
) -> Score {
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
    let ratio = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let (precision, recall) = (ratio(tp, tp + fp), ratio(tp, a1));
    let f = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    ((tp, a1, fp, a2), recall, f)
}

/// Algorithm 1 over one APT, rendered like `common::rendered`. `lca_rows`
/// is the λ_pat-samp sample at rate 1.0: the question's rows for
/// `mine_apt`, every row for `prepare_apt`.
fn oracle(
    (db, apt, pt): (&Database, &Apt, &ProvenanceTable),
    question: &Question,
    params: &MiningParams,
    lca_rows: &[u32],
) -> Vec<String> {
    let directions = question.directions();
    let scores = |pattern: &Pattern| -> Vec<Score> {
        let each = directions.iter().map(|&d| score((apt, pt), pattern, d));
        each.collect()
    };
    let best_recall = |scores: &[Score]| scores.iter().map(|s| s.1).fold(0.0, f64::max);
    // filterAttrs is off: every non-group-by attribute, split by kind.
    let (numeric, categorical): (Vec<usize>, Vec<usize>) = apt
        .pattern_fields()
        .into_iter()
        .partition(|&f| apt.fields[f].kind == AttrKind::Numeric);

    // LCA candidates, the k_cat with the highest recall first.
    let mut seeds = lca_candidates(apt, lca_rows, &categorical);
    seeds.retain(|p| p.len() <= params.max_cat_attrs);
    let mut seeds: Vec<(f64, Pattern)> = seeds
        .into_iter()
        .map(|p| (best_recall(&scores(&p)), p))
        .collect();
    seeds.sort_by(|a, b| b.0.total_cmp(&a.0));
    seeds.truncate(params.k_cat_patterns);

    // Refinements: one `≤ c` / `≥ c` per fragment boundary of a free
    // numeric attribute; the empty pattern seeds the numeric-only ones.
    let thresholds: Vec<(usize, Vec<f64>)> = numeric
        .iter()
        .map(|&f| (f, fragment_boundaries(apt, f, params.num_frags)))
        .collect();
    let seeds = seeds.into_iter().map(|(_, p)| p);
    let mut todo: VecDeque<Pattern> = [Pattern::empty()].into_iter().chain(seeds).collect();
    let mut done: HashSet<Pattern> = todo.iter().cloned().collect();
    let mut kept = Vec::new();
    while let Some(pattern) = todo.pop_front() {
        let scores = scores(&pattern);
        for (&(t, s), &(support, recall, f)) in directions.iter().zip(&scores) {
            if !pattern.is_empty() && recall > params.lambda_recall {
                kept.push((pattern.clone(), t, s, support, f));
            }
        }
        // Proposition 3.1: refining cannot raise recall.
        let hopeless = !pattern.is_empty() && best_recall(&scores) <= params.lambda_recall;
        if hopeless || pattern.num_numeric_preds(apt) >= params.lambda_attr_num {
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
    let top_k = select_top_k_diverse(&scored, params.top_k).into_iter();
    top_k
        .map(|i| {
            let (pattern, t, s, support, f) = &kept[i];
            let pattern = pattern.render(apt, db.pool());
            format!("{pattern}|{t}|{s:?}|{support:?}|{f:.12}")
        })
        .collect()
}

/// Both scopes of the production miner against the oracle; returns how
/// many explanations were compared.
fn check(
    data: (&Database, &Apt, &ProvenanceTable),
    question: &Question,
    top_k: usize,
) -> Result<usize, TestCaseError> {
    let (db, apt, pt) = data;
    let params = MiningParams {
        feature_selection: false,
        lambda_pat_samp: 1.0,
        lambda_f1_samp: 1.0,
        top_k,
        ..Default::default()
    };
    let all_rows: Vec<u32> = (0..apt.num_rows as u32).collect();
    let group_of = |row: &u32| pt.group_of[apt.pt_row[*row as usize] as usize] as usize;
    let question_rows: Vec<u32> = match *question {
        Question::TwoPoint { t1, t2 } => {
            let asked = all_rows.iter().filter(|r| [t1, t2].contains(&group_of(r)));
            asked.copied().collect()
        }
        Question::SinglePoint { .. } => all_rows.clone(),
    };

    let one_shot = mine_apt(apt, pt, question, &params);
    let warm = mine_prepared(&prepare_apt(apt, pt, &params), apt, pt, question, &params);
    // The oracle has no cap, so the cap must not have bound.
    prop_assert!(one_shot.patterns_evaluated.max(warm.patterns_evaluated) < params.max_patterns);
    let expected = oracle(data, question, &params, &question_rows);
    prop_assert_eq!(rendered(&one_shot, apt, db), expected);
    let expected = oracle(data, question, &params, &all_rows);
    prop_assert_eq!(rendered(&warm, apt, db), expected);
    Ok(one_shot.explanations.len() + warm.explanations.len())
}

#[test]
fn prop_miners_match_the_oracle_on_random_small_apts() {
    let compared = std::cell::Cell::new(0usize);
    let cell = || (proptest::bool::ANY, -5i64..15);
    let strategy = (
        proptest::collection::vec((0u8..4, 0u8..3, cell(), cell()), 4..28),
        proptest::collection::vec(0u8..4, 0..6), // join fan-out
        0usize..6,                               // question selector
        proptest::bool::ANY,                     // single point?
        0usize..3,                               // top_k selector
    );
    proptest::test_runner::TestRunner::deterministic()
        .run(&strategy, |(rows, fanout, qsel, single_point, k)| {
            let some = |(present, v): (bool, i64)| present.then_some(v);
            let rows = rows
                .into_iter()
                .map(|(g, c, x, y)| (g, c, some(x), some(y)));
            let (db, apt, pt, groups) = build_apt(&rows.collect::<Vec<Row>>(), &fanout);
            let (t1, t2) = (qsel % groups, (qsel + 1) % groups);
            let question = match single_point {
                true => Question::SinglePoint { t: t1 },
                false => Question::TwoPoint { t1, t2 },
            };
            compared.set(compared.get() + check((&db, &apt, &pt), &question, [1, 3, 10][k])?);
            Ok(())
        })
        .unwrap();
    assert!(compared.get() > 1000, "compared {}", compared.get());
}

/// `NaN` and `±inf` cells (what CSV ingestion can deliver): no boundary
/// comes from them and `NaN` matches nothing, in the miner as in the paper.
#[test]
fn miners_match_the_oracle_on_nan_and_infinite_cells() {
    let (db, apt, pt) = nan_apt();
    for question in [
        Question::TwoPoint { t1: 1, t2: 0 },
        Question::SinglePoint { t: 0 },
    ] {
        for top_k in [1, 3, 10] {
            assert!(check((&db, &apt, &pt), &question, top_k).unwrap() > 0);
        }
    }
}

/// FD exclusion happens at preparation, in the preparation's scope: no
/// reported pattern uses a field that determines the group there — the
/// question's two groups for `mine_apt`, all groups for one `PreparedApt`
/// serving every question. `cat` tells `g0` from `g1` exactly but recurs
/// in `g2`, so it is an FD for that question only.
#[test]
fn fd_exclusion_follows_the_scope_of_the_preparation() {
    let rows: Vec<Row> = (0..36u8)
        .map(|i| {
            let (g, c) = [(0, 0), (1, 1), (2, i / 3 % 2)][i as usize % 3];
            (g, c, Some(i as i64 % 7), Some(i as i64 % 5))
        })
        .collect();
    let (_db, apt, pt, groups) = build_apt(&rows, &[]);
    let cat = apt.field_index("prov_t_cat").unwrap();
    let params = MiningParams {
        feature_selection: false,
        lambda_pat_samp: 1.0,
        lambda_f1_samp: 1.0,
        exclude_fd_attrs: true,
        ..Default::default()
    };
    let uses = |out: &MiningOutcome, fields: &[usize]| {
        let mut patterns = out.explanations.iter().map(|e| &e.pattern);
        patterns.any(|p| fields.iter().any(|&f| !p.is_free(f)))
    };
    let mut questions: Vec<Question> = (0..groups).map(|t| Question::SinglePoint { t }).collect();
    for (t1, t2) in (0..groups).flat_map(|a| (0..groups).map(move |b| (a, b))) {
        questions.extend((t1 != t2).then_some(Question::TwoPoint { t1, t2 }));
    }

    let every_group = group_determining_fields(&apt, &pt, None);
    assert!(!every_group.is_empty() && !every_group.contains(&cat));
    let prepared = prepare_apt(&apt, &pt, &params);
    for question in &questions {
        let asked = group_determining_fields(&apt, &pt, Some(question));
        let one_shot = mine_apt(&apt, &pt, question, &params);
        assert!(!one_shot.explanations.is_empty() && !uses(&one_shot, &asked));
        let warm = mine_prepared(&prepared, &apt, &pt, question, &params);
        assert!(!warm.explanations.is_empty() && !uses(&warm, &every_group));
    }

    // The two scopes differ where the dependency is local to the question.
    let question = Question::TwoPoint { t1: 0, t2: 1 };
    assert!(group_determining_fields(&apt, &pt, Some(&question)).contains(&cat));
    let warm = mine_prepared(&prepared, &apt, &pt, &question, &params);
    assert!(uses(&warm, &[cat]), "`cat` is no FD over all groups");
    let unfiltered = MiningParams {
        exclude_fd_attrs: false,
        ..params
    };
    assert!(uses(&mine_apt(&apt, &pt, &question, &unfiltered), &[cat]));
}
