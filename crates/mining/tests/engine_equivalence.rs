//! The bitmap scoring kernel against its row-at-a-time reference, and
//! the warm path against the cold one:
//!
//! 1. a property test asserts bit-identical [`PatternMetrics`] between
//!    [`ScoreIndex`] and [`Scorer`] on randomized APTs (nulls, join
//!    fan-out, mixed types), random patterns (Eq/Le/Ge), random row
//!    samples, and both question kinds — with every pattern field
//!    encoded, and with a random subset encoded and patterns over that
//!    subset only (what a preparation builds: the fields `filterAttrs`
//!    kept, over the λ_F1 sample and over all rows);
//! 2. the index's bucket-pass scan order is the stable `(group, PT row)`
//!    sort, for ascending and for caller-ordered samples, and a pattern on
//!    a field the index did not encode panics with the field's name;
//! 3. a fresh question on an existing `PreparedApt` gives the answer a
//!    fresh preparation gives.
//!
//! Whole mining runs are checked against the paper-derived reference in
//! `oracle.rs`.
//!
//! [`PatternMetrics`]: cajade_mining::PatternMetrics

use proptest::prelude::*;

use cajade_graph::{Apt, JoinGraph};
use cajade_mining::{
    mine_prepared, prepare_apt, MiningParams, PatValue, Pattern, Pred, PredOp, Question,
    ScoreIndex, Scorer,
};
use cajade_query::{parse_sql, ProvenanceTable};
use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

mod common;
use common::{build_apt, rendered, Row};

/// 2–39 random [`build_apt`] rows: group, category, nullable `x` and `y`.
fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    let cell = || (proptest::bool::ANY, -5i64..15).prop_map(|(has, v)| has.then_some(v));
    proptest::collection::vec((0u8..4, 0u8..3, cell(), cell()), 2..40)
}

/// A pattern over `fields` (a non-empty subset of the APT's pattern
/// fields) from a random spec.
fn pattern_from_spec(fields: &[usize], db: &Database, spec: &[(u8, u8, i64)]) -> Pattern {
    let preds = spec
        .iter()
        .map(|&(fsel, opsel, c)| {
            let field = fields[fsel as usize % fields.len()];
            let pred = match opsel % 4 {
                0 => Pred {
                    op: PredOp::Le,
                    value: PatValue::Int(c),
                },
                1 => Pred {
                    op: PredOp::Ge,
                    value: PatValue::Float((c as f64 / 2.0).to_bits()),
                },
                2 => Pred {
                    op: PredOp::Eq,
                    value: PatValue::Int(c),
                },
                _ => Pred {
                    op: PredOp::Eq,
                    value: PatValue::Str(
                        db.lookup_str(&format!("c{}", c.rem_euclid(3))).unwrap().0,
                    ),
                },
            };
            (field, pred)
        })
        .collect();
    Pattern::from_preds(preds)
}

#[test]
fn prop_vectorized_metrics_bit_identical_to_scalar() {
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let strategy = (
        rows_strategy(),
        proptest::collection::vec(0u8..4, 0..6),
        proptest::collection::vec((0u8..8, 0u8..4, -6i64..16), 0..4),
        proptest::collection::vec(proptest::bool::ANY, 0..40),
        0u8..6,
        proptest::bool::ANY,
    );
    runner
        .run(
            &strategy,
            |(rows, fanout, pat_spec, sample_bits, qsel, single_point)| {
                let (db, apt, pt, groups) = build_apt(&rows, &fanout);
                let fields = apt.pattern_fields();
                let pattern = pattern_from_spec(&fields, &db, &pat_spec);

                // Random sample of APT rows (possibly empty / possibly all).
                let sample: Vec<u32> = (0..apt.num_rows as u32)
                    .filter(|&r| {
                        sample_bits
                            .get(r as usize % sample_bits.len().max(1))
                            .copied()
                            .unwrap_or(true)
                    })
                    .collect();

                let questions: Vec<Question> = if single_point {
                    vec![Question::SinglePoint {
                        t: qsel as usize % groups.max(1),
                    }]
                } else {
                    vec![Question::TwoPoint {
                        t1: qsel as usize % groups.max(1),
                        t2: (qsel as usize + 1) % groups.max(1),
                    }]
                };

                for question in &questions {
                    for &(primary, secondary) in &question.directions() {
                        // Exact scan.
                        let scalar = Scorer::exact(&apt, &pt).score(&pattern, primary, secondary);
                        let vector = ScoreIndex::exact(&apt, &pt)
                            .encode(&apt, &fields)
                            .score(&pattern, primary, secondary);
                        prop_assert_eq!(scalar, vector);

                        // Sampled scan — same fixed sample for both engines.
                        let scalar = Scorer::sampled(&apt, &pt, sample.clone())
                            .score(&pattern, primary, secondary);
                        let vector = ScoreIndex::sampled(&apt, &pt, &sample)
                            .encode(&apt, &fields)
                            .score(&pattern, primary, secondary);
                        prop_assert_eq!(scalar, vector);
                    }
                }
                Ok(())
            },
        )
        .unwrap();
}

/// `(group, PT row)` order of `scan` by the comparison sort the index
/// used before the bucket pass: stable, so rows extending one PT row keep
/// the order `scan` lists them in.
fn stable_group_pt_sort(apt: &Apt, pt: &ProvenanceTable, scan: &[u32]) -> Vec<u32> {
    let mut order = scan.to_vec();
    order.sort_by_key(|&r| {
        let p = apt.pt_row[r as usize];
        (pt.group_of[p as usize], p)
    });
    order
}

/// What a preparation builds: an index encoding only some fields, over a
/// sample and over all rows. On APTs with fan-out, NULLs and lossy joins
/// it scores patterns over those fields bit-identically to the scalar
/// reference, and its scan order is the stable `(group, PT row)` sort —
/// also for a sample listed in descending row order.
#[test]
fn prop_field_restricted_index_matches_scalar() {
    let mut runner = proptest::test_runner::TestRunner::deterministic();
    let strategy = (
        rows_strategy(),
        proptest::collection::vec(0u8..4, 0..6),
        proptest::collection::vec((0u8..8, 0u8..4, -6i64..16), 0..4),
        proptest::collection::vec(proptest::bool::ANY, 1..40),
        1u8..=255,
        0u8..6,
    );
    runner
        .run(
            &strategy,
            |(rows, fanout, pat_spec, sample_bits, field_bits, qsel)| {
                let (db, apt, pt, groups) = build_apt(&rows, &fanout);
                let all = apt.pattern_fields();
                let mut subset: Vec<usize> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| field_bits >> (i % 8) & 1 == 1)
                    .map(|(_, &f)| f)
                    .collect();
                if subset.is_empty() {
                    subset.push(all[field_bits as usize % all.len()]);
                }
                let pattern = pattern_from_spec(&subset, &db, &pat_spec);

                let sample: Vec<u32> = (0..apt.num_rows as u32)
                    .filter(|&r| sample_bits[r as usize % sample_bits.len()])
                    .collect();
                let descending: Vec<u32> = sample.iter().rev().copied().collect();
                let every_row: Vec<u32> = (0..apt.num_rows as u32).collect();

                let exact = ScoreIndex::exact(&apt, &pt).encode(&apt, &subset);
                let sampled = ScoreIndex::sampled(&apt, &pt, &sample).encode(&apt, &subset);
                let reordered = ScoreIndex::sampled(&apt, &pt, &descending).encode(&apt, &subset);
                prop_assert_eq!(exact.order(), stable_group_pt_sort(&apt, &pt, &every_row));
                prop_assert_eq!(sampled.order(), stable_group_pt_sort(&apt, &pt, &sample));
                prop_assert_eq!(
                    reordered.order(),
                    stable_group_pt_sort(&apt, &pt, &descending)
                );

                let t = qsel as usize % groups.max(1);
                for (primary, secondary) in [(t, None), (t, Some((t + 1) % groups.max(1)))] {
                    prop_assert_eq!(
                        Scorer::exact(&apt, &pt).score(&pattern, primary, secondary),
                        exact.score(&pattern, primary, secondary)
                    );
                    let scalar = Scorer::sampled(&apt, &pt, sample.clone())
                        .score(&pattern, primary, secondary);
                    prop_assert_eq!(scalar, sampled.score(&pattern, primary, secondary));
                    prop_assert_eq!(scalar, reordered.score(&pattern, primary, secondary));
                }
                Ok(())
            },
        )
        .unwrap();
}

/// A pattern naming a field the index did not encode is a bug upstream
/// (`filterAttrs` chose the fields, the candidates come from them): it
/// must not score as "matches nothing".
#[test]
#[should_panic(expected = "`prov_t_y`")]
fn unencoded_field_panics_with_its_name() {
    let rows = [(0, 0, Some(1), Some(2)), (1, 1, Some(3), None)];
    let (_db, apt, pt, _groups) = build_apt(&rows, &[]);
    let x = apt.field_index("prov_t_x").unwrap();
    let y = apt.field_index("prov_t_y").unwrap();
    let index = ScoreIndex::exact(&apt, &pt).encode(&apt, &[x]);
    let on_y = Pattern::from_preds(vec![(
        y,
        Pred {
            op: PredOp::Ge,
            value: PatValue::Int(0),
        },
    )]);
    index.score(&on_y, 0, None);
}

fn star_fixture() -> (Database, cajade_query::Query) {
    let mut db = Database::new("m");
    db.create_table(
        SchemaBuilder::new("t")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("season", DataType::Str, AttrKind::Categorical)
            .column("player", DataType::Str, AttrKind::Categorical)
            .column("pts", DataType::Int, AttrKind::Numeric)
            .column("noise", DataType::Int, AttrKind::Numeric)
            .build(),
    )
    .unwrap();
    let s1 = db.intern("s1");
    let s2 = db.intern("s2");
    let star = db.intern("star");
    let other = db.intern("other");
    let mut id = 0i64;
    for (season, base) in [(s1, 10), (s2, 30)] {
        for i in 0..40i64 {
            id += 1;
            db.table_mut("t")
                .unwrap()
                .push_row(vec![
                    Value::Int(id),
                    Value::Str(season),
                    Value::Str(if i % 2 == 0 { star } else { other }),
                    Value::Int(if i % 2 == 0 { base + i % 5 } else { 20 }),
                    Value::Int((i * 13) % 7),
                ])
                .unwrap();
        }
    }
    let q = parse_sql("SELECT count(*) AS c, season FROM t GROUP BY season").unwrap();
    (db, q)
}

/// A fresh question on an existing `PreparedApt` gives the same answer as
/// preparing from scratch (the service's warm-vs-cold identity), and its
/// per-question timings report the skipped phases as zero.
#[test]
fn warm_prepared_matches_fresh_preparation() {
    let (db, q) = star_fixture();
    let pt = ProvenanceTable::compute(&db, &q).unwrap();
    let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
    let params = MiningParams::default();
    let warm_prep = prepare_apt(&apt, &pt, &params);

    for question in [
        Question::TwoPoint { t1: 0, t2: 1 },
        Question::TwoPoint { t1: 1, t2: 0 },
        Question::SinglePoint { t: 1 },
    ] {
        let fresh_prep = prepare_apt(&apt, &pt, &params);
        let fresh = mine_prepared(&fresh_prep, &apt, &pt, &question, &params);
        let warm = mine_prepared(&warm_prep, &apt, &pt, &question, &params);
        assert_eq!(rendered(&warm, &apt, &db), rendered(&fresh, &apt, &db));
        assert_eq!(warm.timings.feature_selection, std::time::Duration::ZERO);
        assert_eq!(warm.timings.gen_pat_cand, std::time::Duration::ZERO);
        assert_eq!(warm.timings.prepare, std::time::Duration::ZERO);
    }
}
