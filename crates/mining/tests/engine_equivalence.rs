//! The bitmap scoring kernel against its row-at-a-time reference, and
//! the warm path against the cold one:
//!
//! 1. a property test asserts bit-identical [`PatternMetrics`] between
//!    [`ScoreIndex`] and [`Scorer`] on randomized APTs (nulls, join
//!    fan-out, mixed types), random patterns (Eq/Le/Ge), random row
//!    samples, and both question kinds;
//! 2. a fresh question on an existing `PreparedApt` gives the answer a
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
use common::{build_apt, rendered};

fn pattern_from_spec(apt: &Apt, db: &Database, spec: &[(u8, u8, i64)]) -> Pattern {
    let fields = apt.pattern_fields();
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
        proptest::collection::vec(
            (
                0u8..4,
                0u8..3,
                (proptest::bool::ANY, -5i64..15),
                (proptest::bool::ANY, -5i64..15),
            ),
            2..40,
        ),
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
                let rows: Vec<(u8, u8, Option<i64>, Option<i64>)> = rows
                    .into_iter()
                    .map(|(g, c, (has_x, x), (has_y, y))| {
                        (g, c, has_x.then_some(x), has_y.then_some(y))
                    })
                    .collect();
                let (db, apt, pt, groups) = build_apt(&rows, &fanout);
                let pattern = pattern_from_spec(&apt, &db, &pat_spec);

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
                        let vector =
                            ScoreIndex::exact(&apt, &pt).score(&pattern, primary, secondary);
                        prop_assert_eq!(scalar, vector);

                        // Sampled scan — same fixed sample for both engines.
                        let scalar = Scorer::sampled(&apt, &pt, sample.clone())
                            .score(&pattern, primary, secondary);
                        let vector = ScoreIndex::sampled(&apt, &pt, &sample)
                            .score(&pattern, primary, secondary);
                        prop_assert_eq!(scalar, vector);
                    }
                }
                Ok(())
            },
        )
        .unwrap();
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
