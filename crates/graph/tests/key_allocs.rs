//! Per-row key tables allocate per distinct key, not per row, counted by
//! the tracking allocator: `KeyIndex::build` encodes each row's key into
//! one reused buffer and copies it out only for a key it has not seen,
//! keeping every key's row ids in one array, and a GROUP BY does the same
//! through `GroupIds`. A key copied out per row, or a row-id vector grown
//! per key, would show as blocks that grow with the rows.
//!
//! Each test reads its own named scope, entered on its own thread, so
//! the two do not see each other's allocations.

use cajade_obs::alloc::scope_snapshot;
use cajade_obs::AllocScope;
use cajade_query::{execute_with_provenance, parse_sql};
use cajade_storage::rowkey::KeyIndex;
use cajade_storage::{AttrKind, Column, DataType, Database, SchemaBuilder, StrId, Value};

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

/// Blocks allocated under `scope` while `f` ran on this thread.
fn blocks<T>(scope: &'static str, f: impl FnOnce() -> T) -> (u64, T) {
    let guard = AllocScope::enter(scope);
    let out = f();
    drop(guard);
    let snap = scope_snapshot(scope).expect("scope was entered");
    (snap.allocated_blocks, out)
}

#[test]
fn key_index_build_allocates_per_distinct_key() {
    const DISTINCT: usize = 10;
    let build = |scope: &'static str, rows: usize| {
        let mut ints = Column::new(DataType::Int);
        let mut strs = Column::new(DataType::Str);
        for r in 0..rows {
            ints.push(Value::Int((r % DISTINCT) as i64), "k").unwrap();
            strs.push(Value::Str(StrId((r % DISTINCT) as u32 % 2)), "s")
                .unwrap();
        }
        let (blocks, index) = blocks(scope, || KeyIndex::build(&[&ints, &strs], 0..rows as u32));
        let hits = index.probe([Value::Int(3), Value::Str(StrId(1))]);
        assert_eq!(hits.len(), rows / DISTINCT);
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "build order");
        blocks
    };
    let small = build("test.key_index_1000", 1_000);
    let large = build("test.key_index_10000", 10_000);
    // One block per distinct key; the rest is the reused key buffer, the
    // map's few doublings, and the row, start and id arrays.
    let bound = (DISTINCT + 12) as u64;
    assert!(large <= bound, "{large} blocks for {DISTINCT} keys");
    assert_eq!(small, large, "independent of the row count");
}

/// One table of `rows` rows whose `g` column holds four strings in turn.
fn grouped_db(rows: usize) -> Database {
    let mut db = Database::new("groups");
    db.create_table(
        SchemaBuilder::new("t")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("g", DataType::Str, AttrKind::Categorical)
            .column("v", DataType::Int, AttrKind::Numeric)
            .build(),
    )
    .unwrap();
    let groups = ["a", "b", "c", "d"].map(|s| db.intern(s));
    let t = db.table_mut("t").unwrap();
    for r in 0..rows {
        t.push_row(vec![
            Value::Int(r as i64),
            Value::Str(groups[r % groups.len()]),
            Value::Int((r % 7) as i64),
        ])
        .unwrap();
    }
    db
}

#[test]
fn group_by_allocates_per_group_not_per_row() {
    const ROWS: usize = 20_000;
    let db = grouped_db(ROWS);
    let query = parse_sql("SELECT count(*) AS c, sum(v) AS s, g FROM t GROUP BY g").unwrap();
    let (blocks, (result, pt)) = blocks("test.group_by_20000", || {
        execute_with_provenance(&db, &query).unwrap()
    });
    assert_eq!(result.num_rows(), 4);
    assert_eq!(pt.num_rows, ROWS);
    assert!(pt.rows_of_group.iter().all(|g| g.len() == ROWS / 4));
    // The scan, the grouping and the aggregate's output, the provenance
    // table's three gathered columns and its per-group row lists: each
    // a fixed handful of blocks or a vector's doublings, and one key per
    // group; two blocks per row were 40 000.
    assert!(blocks <= 250, "{blocks} blocks for a {ROWS}-row GROUP BY");
}
