//! The shared column-statistics seam of `prepare_apt_with`:
//!
//! * the pass-through provider reproduces the historical per-APT
//!   fragment boundaries bit for bit,
//! * an injected provider's base-table statistics replace the per-APT
//!   computation for context columns (and only for context columns — PT
//!   fields never consult the provider),
//! * mining through a shared preparation still returns explanations.

use std::sync::{Arc, Mutex};

use cajade_graph::{Apt, JgEdge, JgNode, JoinCond, JoinGraph, NodeLabel};
use cajade_mining::{
    base_column_stats, fragments::fragment_boundaries, mine_prepared, prepare_apt,
    prepare_apt_with, ColumnStats, ColumnStatsConfig, ColumnStatsProvider, MiningParams, Question,
};
use cajade_query::{parse_sql, ProvenanceTable};
use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

/// Provider that serves base-table statistics and logs every request.
struct LoggingProvider {
    db: Database,
    cfg: ColumnStatsConfig,
    log: Mutex<Vec<String>>,
}

impl ColumnStatsProvider for LoggingProvider {
    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
        self.log.lock().unwrap().push(format!("{table}.{column}"));
        base_column_stats(&self.db, table, column, &self.cfg).map(Arc::new)
    }
}

/// main(id, grp, x) × ctx(id, y): ctx has extra rows (ids that never
/// join) carrying extreme `y` values, so base-table quantiles of `ctx.y`
/// differ from the APT gather's.
fn fixture() -> (Database, cajade_query::Query, JoinGraph) {
    let mut db = Database::new("shared");
    db.create_table(
        SchemaBuilder::new("main")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("grp", DataType::Str, AttrKind::Categorical)
            .column("x", DataType::Int, AttrKind::Numeric)
            .build(),
    )
    .unwrap();
    db.create_table(
        SchemaBuilder::new("ctx")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("y", DataType::Int, AttrKind::Numeric)
            .build(),
    )
    .unwrap();
    let a = db.intern("a");
    let b = db.intern("b");
    for i in 0..8i64 {
        db.table_mut("main")
            .unwrap()
            .push_row(vec![
                Value::Int(i),
                Value::Str(if i % 2 == 0 { a } else { b }),
                Value::Int(i * 10),
            ])
            .unwrap();
    }
    // Joining ctx rows: y in 0..8. Non-joining rows: y = 1000+.
    for i in 0..8i64 {
        db.table_mut("ctx")
            .unwrap()
            .push_row(vec![Value::Int(i), Value::Int(i)])
            .unwrap();
    }
    for i in 0..8i64 {
        db.table_mut("ctx")
            .unwrap()
            .push_row(vec![Value::Int(100 + i), Value::Int(1000 + i)])
            .unwrap();
    }
    let q = parse_sql("SELECT count(*) AS c, grp FROM main GROUP BY grp").unwrap();

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
    (db, q, g)
}

fn params() -> MiningParams {
    MiningParams {
        lambda_pat_samp: 1.0,
        lambda_f1_samp: 1.0,
        feature_selection: false, // keep every field → deterministic frag list
        ..Default::default()
    }
}

#[test]
fn shared_stats_replace_per_apt_fragments_for_context_columns() {
    let (db, q, graph) = fixture();
    let pt = ProvenanceTable::compute(&db, &q).unwrap();
    let apt = Apt::materialize(&db, &pt, &graph).unwrap();
    let params = params();

    let provider = LoggingProvider {
        db: db.clone(),
        cfg: ColumnStatsConfig::from_params(&params),
        log: Mutex::new(Vec::new()),
    };

    let pass_through = prepare_apt(&apt, &pt, &params);
    let shared = prepare_apt_with(&apt, &pt, &params, &provider);

    let y = apt.field_index("ctx.y").unwrap();
    let x = apt.field_index("prov_main_x").unwrap();

    // Pass-through == historical per-APT computation.
    let apt_y = fragment_boundaries(&apt, y, params.num_frags);
    let pt_frag = |prep: &cajade_mining::PreparedApt, f: usize| {
        prep.frag
            .iter()
            .find(|(field, _)| *field == f)
            .map(|(_, b)| b.clone())
            .expect("field fragmented")
    };
    assert_eq!(pt_frag(&pass_through, y), apt_y);

    // Shared path: ctx.y boundaries come from the *base table* (which
    // contains the non-joining 1000+ values), not the APT gather.
    let base_y = pt_frag(&shared, y);
    assert_ne!(base_y, apt_y, "base-table quantiles must differ by design");
    assert!(base_y.iter().any(|&v| v >= 1000.0));
    let expected = base_column_stats(&db, "ctx", "y", &ColumnStatsConfig::from_params(&params))
        .unwrap()
        .fragments;
    assert_eq!(base_y, expected);

    // PT fields never consult the provider; their boundaries are per-APT
    // under both providers.
    assert_eq!(pt_frag(&shared, x), pt_frag(&pass_through, x));
    let log = provider.log.lock().unwrap().clone();
    assert!(log.iter().all(|e| e.starts_with("ctx.")), "log: {log:?}");
    assert!(log.contains(&"ctx.y".to_string()));

    // Mining through the shared preparation still works end to end.
    let question = Question::TwoPoint { t1: 0, t2: 1 };
    let outcome = mine_prepared(&shared, &apt, &pt, &question, &params);
    assert!(!outcome.explanations.is_empty());
}
