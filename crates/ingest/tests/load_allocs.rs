//! A CSV load allocates per column, not per row, counted by the tracking
//! allocator: each parsed cell is appended to its column, whose vector is
//! sized from the inferred row count, and the tokenizer reuses one record.
//! A row of values built per CSV line would show as blocks that grow with
//! the rows.
//!
//! The test reads its own named scopes, entered on its own thread; a
//! one-file directory is loaded on the calling thread.

use std::path::PathBuf;

use cajade_ingest::{ingest_dir, IngestOptions};
use cajade_obs::alloc::scope_snapshot;
use cajade_obs::AllocScope;

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

/// Blocks allocated under `scope` while a directory holding one CSV of
/// `rows` rows (an integer key, an integer, one of four strings) was
/// ingested on this thread.
fn ingest_blocks(scope: &'static str, rows: usize) -> u64 {
    let dir =
        std::env::temp_dir().join(format!("cajade_load_allocs_{rows}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut csv = String::from("id,v,g\n");
    for r in 0..rows {
        csv.push_str(&format!("{r},{},{}\n", r % 7, ["a", "b", "c", "d"][r % 4]));
    }
    std::fs::write(dir.join("t.csv"), csv).unwrap();
    let guard = AllocScope::enter(scope);
    let out = ingest_dir(&dir, &IngestOptions::default()).unwrap();
    drop(guard);
    std::fs::remove_dir_all(PathBuf::from(&dir)).ok();
    assert_eq!(out.db.table("t").unwrap().num_rows(), rows);
    scope_snapshot(scope)
        .expect("scope was entered")
        .allocated_blocks
}

#[test]
fn a_load_allocates_per_column_not_per_row() {
    let small = ingest_blocks("test.ingest_1000", 1_000);
    let large = ingest_blocks("test.ingest_10000", 10_000);
    // Measured: 110 and 126, the whole ingest (infer, load, key check,
    // discovery); the larger file adds only the null masks' and the key
    // check's doublings. A row vector per CSV line took 1 111 and 10 127.
    let report = format!("{small} blocks at 1 000 rows, {large} at 10 000");
    assert!(large <= 160 && large - small <= 32, "{report}");
}
