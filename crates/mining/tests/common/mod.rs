//! Fixtures shared by the mining integration tests.
#![allow(dead_code)] // each test crate uses its own subset

use cajade_graph::{Apt, JgEdge, JgNode, JoinCond, JoinGraph, NodeLabel};
use cajade_mining::MiningOutcome;
use cajade_query::{parse_sql, ProvenanceTable};
use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

/// One generated row of [`build_apt`]: `(grp, cat, x, y)`.
pub type Row = (u8, u8, Option<i64>, Option<i64>);

/// Builds a database from randomized rows: `grp` (up to 4 groups), a
/// categorical `cat`, and two numeric columns with optional nulls (`x`
/// Int, `y` Float) — optionally joined to a fan-out context table so one
/// PT row extends to several APT rows.
pub fn build_apt(rows: &[Row], fanout: &[u8]) -> (Database, Apt, ProvenanceTable, usize) {
    let mut db = Database::new("p");
    db.create_table(
        SchemaBuilder::new("t")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("grp", DataType::Str, AttrKind::Categorical)
            .column("cat", DataType::Str, AttrKind::Categorical)
            .column("x", DataType::Int, AttrKind::Numeric)
            .column("y", DataType::Float, AttrKind::Numeric)
            .build(),
    )
    .unwrap();
    let grp_ids: Vec<_> = (0..4).map(|g| db.intern(&format!("g{g}"))).collect();
    let cat_ids: Vec<_> = (0..3).map(|c| db.intern(&format!("c{c}"))).collect();
    for (i, &(g, c, x, y)) in rows.iter().enumerate() {
        db.table_mut("t")
            .unwrap()
            .push_row(vec![
                Value::Int(i as i64),
                Value::Str(grp_ids[g as usize % 4]),
                Value::Str(cat_ids[c as usize % 3]),
                x.map(Value::Int).unwrap_or(Value::Null),
                y.map(|v| Value::Float(v as f64 / 2.0))
                    .unwrap_or(Value::Null),
            ])
            .unwrap();
    }
    let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
    let pt = ProvenanceTable::compute(&db, &q).unwrap();

    let graph = if fanout.is_empty() {
        JoinGraph::pt_only()
    } else {
        // Context table: row `id` appears `fanout[id % len] % 4` times, so
        // some PT rows extend to several APT rows and some to none.
        db.create_table(
            SchemaBuilder::new("ctx")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column_pk("copy", DataType::Int, AttrKind::Categorical)
                .column("z", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        for i in 0..rows.len() {
            let copies = fanout[i % fanout.len()] % 4;
            for copy in 0..copies {
                db.table_mut("ctx")
                    .unwrap()
                    .push_row(vec![
                        Value::Int(i as i64),
                        Value::Int(copy as i64),
                        Value::Int((i as i64 * 7 + copy as i64) % 13),
                    ])
                    .unwrap();
            }
        }
        let mut g = JoinGraph::pt_only();
        g.nodes.push(JgNode {
            label: NodeLabel::Rel("ctx".into()),
        });
        g.edges.push(JgEdge {
            from: 0,
            to: 1,
            cond: JoinCond::on(&[("id", "id")]),
            schema_edge: 0,
            cond_idx: 0,
            pt_from_idx: Some(0),
        });
        g
    };
    let apt = Apt::materialize(&db, &pt, &graph).unwrap();
    let groups = pt.rows_of_group.len();
    (db, apt, pt, groups)
}

/// The comparable rendering of a mining run: per explanation, in order,
/// `pattern|primary|secondary|(tp, a1, fp, a2)|F` with F to 12 decimals.
pub fn rendered(out: &MiningOutcome, apt: &Apt, db: &Database) -> Vec<String> {
    out.explanations
        .iter()
        .map(|e| {
            format!(
                "{}|{}|{:?}|{:?}|{:.12}",
                e.pattern.render(apt, db.pool()),
                e.primary_group,
                e.secondary_group,
                (e.metrics.tp, e.metrics.a1, e.metrics.fp, e.metrics.a2),
                e.metrics.f_score
            )
        })
        .collect()
}

/// Hand-built PT-only APT over `SELECT count(*), season FROM games GROUP
/// BY season` whose Float columns hold literal `NaN`, `+inf` and `-inf`
/// cells (what CSV ingestion delivers: `"NaN".parse::<f64>()` succeeds).
/// Season `s2` scores ~20 points more than `s1` wherever the cell is a
/// number.
pub fn nan_apt() -> (Database, Apt, ProvenanceTable) {
    let mut db = Database::new("nan");
    db.create_table(
        SchemaBuilder::new("games")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("season", DataType::Str, AttrKind::Categorical)
            .column("venue", DataType::Str, AttrKind::Categorical)
            .column("points", DataType::Float, AttrKind::Numeric)
            .column("rating", DataType::Float, AttrKind::Numeric)
            .build(),
    )
    .unwrap();
    let seasons = [db.intern("s1"), db.intern("s2")];
    let venues = [db.intern("home"), db.intern("away")];
    for i in 0..32i64 {
        let season = (i / 16) as usize;
        let points = match i % 8 {
            3 => f64::NAN,
            5 => f64::NEG_INFINITY,
            6 if i % 16 == 6 => f64::INFINITY,
            _ => (10 + 20 * season as i64 + i % 5) as f64,
        };
        let rating = if i % 10 == 0 {
            f64::NAN
        } else {
            (i % 7) as f64 * 0.5
        };
        db.table_mut("games")
            .unwrap()
            .push_row(vec![
                Value::Int(i),
                Value::Str(seasons[season]),
                Value::Str(venues[(i % 3 == 0) as usize]),
                Value::Float(points),
                Value::Float(rating),
            ])
            .unwrap();
    }
    let q = parse_sql("SELECT count(*) AS c, season FROM games GROUP BY season").unwrap();
    let pt = ProvenanceTable::compute(&db, &q).unwrap();
    let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
    (db, apt, pt)
}
