//! Pins the histogram-forest feature selection on a fixture with a
//! planted signal, as absolute expectations:
//!
//! * the relevance ranking puts the planted signal family far above noise,
//! * the selected feature sets are one representative of that family plus
//!   the remaining independent attributes,
//! * redundant features are never co-selected, even when the restricted
//!   association matrix left their pair unmeasured.
//!
//! (`cajade_ml` compares the histogram trainer itself with the float
//! reference trainer; the file keeps its historical name.)

use cajade_graph::{Apt, JoinGraph};
use cajade_mining::featsel::{select_features_hist, FeatSelConfig};
use cajade_mining::{FeatureSelection, NoSharedStats, Question, ScoreIndex};
use cajade_query::{parse_sql, ProvenanceTable};
use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

/// `signal` separates the two groups; `noise` does not; `dup` duplicates
/// `signal` (must cluster with it); `label_cat` is a categorical
/// restatement of the signal.
fn fixture() -> (Database, cajade_query::Query) {
    let mut db = Database::new("fs");
    db.create_table(
        SchemaBuilder::new("t")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("grp", DataType::Str, AttrKind::Categorical)
            .column("signal", DataType::Int, AttrKind::Numeric)
            .column("dup", DataType::Int, AttrKind::Numeric)
            .column("noise", DataType::Int, AttrKind::Numeric)
            .column("label_cat", DataType::Str, AttrKind::Categorical)
            .build(),
    )
    .unwrap();
    let g1 = db.intern("g1");
    let g2 = db.intern("g2");
    let a = db.intern("a");
    let b = db.intern("b");
    for i in 0..200i64 {
        let grp = if i % 2 == 0 { g1 } else { g2 };
        let signal = if i % 2 == 0 { i % 40 } else { 60 + i % 40 };
        let cat = if i % 2 == 0 { a } else { b };
        db.table_mut("t")
            .unwrap()
            .push_row(vec![
                Value::Int(i),
                Value::Str(grp),
                Value::Int(signal),
                Value::Int(signal * 2),
                Value::Int((i * 7918) % 100), // even multiplier: genuine noise
                Value::Str(cat),
            ])
            .unwrap();
    }
    let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
    (db, q)
}

fn setup() -> (Database, cajade_query::Query, ProvenanceTable, Apt) {
    let (db, q) = fixture();
    let pt = ProvenanceTable::compute(&db, &q).unwrap();
    let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
    (db, q, pt, apt)
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

/// What either selection must find on the fixture: relevance puts the
/// signal family (`signal`, its double `dup`, its categorical restatement
/// `label_cat`) far above `noise`; the family — and the row key `id`,
/// which determines everything — is one cluster, `noise` the other; and
/// the selection is `noise` plus one representative of the family (which
/// member is the trainer's to choose: importance splits freely among
/// perfectly correlated features).
fn assert_planted_signal_found(fs: &FeatureSelection, apt: &Apt) {
    let f = |name: &str| apt.field_index(name).unwrap();
    let (id, noise) = (f("prov_t_id"), f("prov_t_noise"));
    let family = [f("prov_t_signal"), f("prov_t_dup"), f("prov_t_label__cat")];

    let best_family = family.iter().map(|&m| fs.relevance[m]).fold(0.0, f64::max);
    assert!(
        best_family > fs.relevance[noise] * 5.0,
        "relevance did not separate signal from noise: {:?}",
        fs.relevance
    );
    let mut clusters: Vec<Vec<usize>> = fs.clusters.iter().cloned().map(sorted).collect();
    clusters.sort();
    let with_id = sorted([&[id][..], &family[..]].concat());
    assert_eq!(clusters, vec![with_id, vec![noise]]);
    let selected: Vec<usize> = fs
        .num_fields
        .iter()
        .chain(&fs.cat_fields)
        .copied()
        .collect();
    assert_eq!(selected.len(), 2, "{fs:?}");
    assert!(selected.contains(&noise), "{fs:?}");
    assert!(selected.iter().any(|m| family.contains(m)), "{fs:?}");
}

#[test]
fn question_selection_finds_the_planted_signal() {
    let (_db, _q, pt, apt) = setup();
    let index = ScoreIndex::exact(&apt, &pt);
    let fs = select_features_hist(
        &apt,
        &pt,
        index.order(),
        Some(&Question::TwoPoint { t1: 0, t2: 1 }),
        &FeatSelConfig::default(),
        &NoSharedStats,
    );
    assert_planted_signal_found(&fs, &apt);
}

#[test]
fn global_selection_finds_the_planted_signal() {
    let (_db, _q, pt, apt) = setup();
    let index = ScoreIndex::exact(&apt, &pt);
    let cfg = FeatSelConfig::default();
    let fs = select_features_hist(&apt, &pt, index.order(), None, &cfg, &NoSharedStats);
    assert_planted_signal_found(&fs, &apt);
}

/// Pathological shape for the restricted association matrix: more
/// mutually-correlated high-importance features than the measured-pair
/// budget, with duplicate *weak* features in the unmeasured tail. The
/// histogram path must fall back to measuring every pair rather than
/// co-selecting redundant tail features whose associations defaulted to
/// "never merge".
#[test]
fn restricted_assoc_never_coselects_redundant_tail_features() {
    let mut db = Database::new("wide");
    let mut builder = SchemaBuilder::new("t")
        .column_pk("id", DataType::Int, AttrKind::Categorical)
        .column("grp", DataType::Str, AttrKind::Categorical);
    for k in 0..17 {
        builder = builder.column(format!("s{k}"), DataType::Int, AttrKind::Numeric);
    }
    builder = builder
        .column("w", DataType::Int, AttrKind::Numeric)
        .column("w2", DataType::Int, AttrKind::Numeric);
    db.create_table(builder.build()).unwrap();
    let g1 = db.intern("g1");
    let g2 = db.intern("g2");
    for i in 0..240i64 {
        let grp = if i % 2 == 0 { g1 } else { g2 };
        // Strong signal: disjoint ranges per group; 17 exact multiples.
        let s = if i % 2 == 0 { i % 40 } else { 100 + i % 40 };
        // Weak signal: overlapping but shifted ranges; w2 duplicates w.
        let w = (i * 7) % 50 + if i % 2 == 0 { 0 } else { 12 };
        let mut row = vec![Value::Int(i), Value::Str(grp)];
        for k in 0..17i64 {
            row.push(Value::Int(s * (k + 1)));
        }
        row.push(Value::Int(w));
        row.push(Value::Int(w * 3));
        db.table_mut("t").unwrap().push_row(row).unwrap();
    }
    let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
    let pt = ProvenanceTable::compute(&db, &q).unwrap();
    let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();

    let cfg = FeatSelConfig::default(); // λ#sel-attr = 3 → 16 measured pairs
    let index = ScoreIndex::exact(&apt, &pt);
    let order = index.order();
    for fs in [
        select_features_hist(
            &apt,
            &pt,
            order,
            Some(&Question::TwoPoint { t1: 0, t2: 1 }),
            &cfg,
            &NoSharedStats,
        ),
        select_features_hist(&apt, &pt, order, None, &cfg, &NoSharedStats),
    ] {
        let selected: Vec<usize> = fs
            .num_fields
            .iter()
            .chain(&fs.cat_fields)
            .copied()
            .collect();
        let s_family: Vec<usize> = (0..17)
            .map(|k| apt.field_index(&format!("prov_t_s{k}")).unwrap())
            .collect();
        let w_family = [
            apt.field_index("prov_t_w").unwrap(),
            apt.field_index("prov_t_w2").unwrap(),
        ];
        let s_selected = selected.iter().filter(|f| s_family.contains(f)).count();
        let w_selected = selected.iter().filter(|f| w_family.contains(f)).count();
        assert!(
            s_selected <= 1 && w_selected <= 1,
            "redundant co-selection: {s_selected} signal copies and {w_selected} weak \
             duplicates selected ({fs:?})"
        );
    }
}
