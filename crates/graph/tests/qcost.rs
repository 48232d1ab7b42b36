//! λ_qcost holds on a skewed join. Both join columns below have 101
//! distinct values, but one value holds 90 % of each table's rows, so the
//! textbook equi-join estimate `|PT| · |b| / max(ndv)` — what the
//! enumerator multiplied out before the bound was counted — puts the
//! `PT – b` join at 10⁶ / 101 ≈ 9 901 rows, under a λ_qcost of 10 000,
//! while the join has 810 100. The builder counts the join's output as it
//! probes, stops at the probe that passes the bound and skips every graph
//! whose fold reaches that step, and the heap it took stays proportional
//! to λ_qcost, not to the join.
//!
//! The test reads its own named scope, entered on its own thread, so it
//! sees only the builder's allocations.

use cajade_graph::{Apt, AptBuilder, EnumConfig, Enumeration, JoinCond, SchemaGraph};
use cajade_obs::alloc::scope_snapshot;
use cajade_obs::AllocScope;
use cajade_query::{parse_sql, ProvenanceTable};
use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const MAX_COST: f64 = 10_000.0;
const ROWS: i64 = 1_000;

/// `a(g, k)` and `b(k, v)`, 1 000 rows each, neither with a key: `k` is 0
/// in nine rows of ten and a value of its own in the tenth. `c(v, w)` is
/// the 50-row table `b.v` refers to.
fn skewed() -> (Database, SchemaGraph) {
    let mut db = Database::new("skewed");
    let (int, cat) = (DataType::Int, AttrKind::Categorical);
    let a = SchemaBuilder::new("a")
        .column("g", int, cat)
        .column("k", int, cat);
    let b = SchemaBuilder::new("b")
        .column("k", int, cat)
        .column("v", int, cat);
    let c = SchemaBuilder::new("c")
        .column_pk("v", int, cat)
        .column("w", int, cat);
    for table in [a, b, c] {
        db.create_table(table.build()).unwrap();
    }
    let mut push = |table: &str, cells: [i64; 2]| {
        let cells = cells.into_iter().map(Value::Int).collect();
        db.table_mut(table).unwrap().push_row(cells).unwrap();
    };
    for r in 0..ROWS {
        let k = if r % 10 == 0 { r / 10 + 1 } else { 0 };
        push("a", [r % 4, k]);
        push("b", [k, r % 50]);
    }
    for v in 0..50 {
        push("c", [v, v % 7]);
    }
    let mut schema = SchemaGraph::new();
    schema.add_condition("a", "b", JoinCond::on(&[("k", "k")]));
    schema.add_condition("b", "c", JoinCond::on(&[("v", "v")]));
    (db, schema)
}

#[test]
fn a_skewed_join_is_skipped_with_heap_bounded_by_lambda_qcost() {
    let (db, schema) = skewed();
    let query = parse_sql("SELECT COUNT(*) AS n, g FROM a GROUP BY g").unwrap();
    let pt = ProvenanceTable::compute(&db, &query).unwrap();
    let cfg = EnumConfig {
        max_edges: 2,
        ..EnumConfig::default()
    };
    let graphs = Enumeration::of(&schema, &db, &query, &cfg).unwrap().graphs;
    let pt_b = (graphs.iter())
        .position(|g| g.graph.edges.len() == 1)
        .expect("PT – b is listed");
    assert_eq!(graphs[pt_b].graph.rel_of(1), Some("b"));
    assert!(graphs[pt_b].valid, "b has no key to cover");
    let joined = graphs.iter().filter(|g| !g.graph.edges.is_empty()).count();
    assert!(joined >= 3, "PT – b and its extensions: {joined}");
    let real = Apt::materialize(&db, &pt, &graphs[pt_b].graph).unwrap();
    assert_eq!(real.num_rows, 900 * 900 + 100);

    let scope = AllocScope::enter("test.qcost_skew");
    let builder = AptBuilder::new(&db, &pt, &graphs, MAX_COST);
    let mut skipped = Vec::new();
    for gi in 0..graphs.len() {
        if builder.materialize(gi).unwrap().is_none() {
            skipped.push(gi);
        }
    }
    let counts = (
        builder.graphs_over_cost(),
        builder.join_steps(),
        builder.join_steps_computed(),
    );
    drop(builder);
    drop(scope);

    // Every graph with an edge joins `b` first; the first fold to reach
    // that step computed it, every later one found it over.
    let with_edges: Vec<usize> = (0..graphs.len())
        .filter(|&gi| !graphs[gi].graph.edges.is_empty())
        .collect();
    assert_eq!(skipped, with_edges);
    assert_eq!(counts, (joined as u64, joined as u64, 1));
    let peak = scope_snapshot("test.qcost_skew")
        .expect("scope was entered")
        .peak_net_bytes;
    // Measured: 134 974 bytes, ~13.5 per row of λ_qcost. The step's row
    // ids and emission list may each double once past the bound; the full
    // join takes ~10 MB.
    assert!(
        peak as f64 <= 32.0 * MAX_COST,
        "{peak} bytes at peak under λ_qcost {MAX_COST}"
    );
}
