//! The ingestion round-trip workload: export a synthetic corpus to a CSV
//! directory (plus the `dataset.toml` facts CSV cannot carry), re-ingest
//! it with type/key inference and containment-based join discovery, and
//! compare the schema graphs by what actually matters — the set of join
//! graphs they enumerate.
//!
//! The exported manifest pins keys, kinds, and the joins containment
//! discovery cannot propose (composite conditions, self-joins); every
//! single-column join is left for discovery to recover. Parity between
//! the declared-schema and round-tripped enumerations therefore measures
//! discovery's recall *and* precision on a corpus with known ground
//! truth.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use cajade_datagen::GeneratedDb;
use cajade_graph::{EnumConfig, Enumeration, SchemaGraph};
use cajade_ingest::{export_csv_dir, ingest_dir, ExportOptions, IngestOptions, IngestedDataset};
use cajade_query::parse_sql;
use cajade_storage::Database;

use crate::workloads::nba_db;

/// The GSW-wins workload query the round-trip enumerates against.
pub const ROUND_TRIP_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

/// Outcome of one export→ingest round-trip.
pub struct RoundTrip {
    /// The generated corpus with its declared schema graph.
    pub declared: GeneratedDb,
    /// The re-ingested dataset (inferred schemas + pinned/discovered
    /// joins) and its report.
    pub ingested: IngestedDataset,
}

/// Exports `gen` to `dir` and ingests it back. The directory is created;
/// callers own cleanup.
pub fn round_trip(gen: GeneratedDb, dir: &Path) -> RoundTrip {
    export_csv_dir(&gen.db, &gen.schema_graph, dir, &ExportOptions::default()).expect("export");
    let ingested = ingest_dir(dir, &IngestOptions::default()).expect("ingest");
    RoundTrip {
        declared: gen,
        ingested,
    }
}

/// NBA round-trip at `scale` in a fresh temp directory (removed on drop
/// via [`TempDir`]).
pub fn nba_round_trip(scale: f64) -> (RoundTrip, TempDir) {
    let dir = TempDir::new("cajade_nba_roundtrip");
    (round_trip(nba_db(scale), &dir.0), dir)
}

/// Canonical keys of the *valid* join graphs `schema_graph` enumerates
/// for the workload query — the equivalence class the round-trip is
/// judged on. Enumeration does not execute the query.
pub fn enumerated_keys(
    db: &Database,
    schema_graph: &SchemaGraph,
    max_edges: usize,
) -> BTreeSet<String> {
    enumerated_keys_for(db, schema_graph, ROUND_TRIP_SQL, max_edges)
}

/// [`enumerated_keys`] for an arbitrary workload query — the synthetic
/// scale-sweep corpora carry their own SQL ([`cajade_datagen::synth::SYNTH_SQL`]).
pub fn enumerated_keys_for(
    db: &Database,
    schema_graph: &SchemaGraph,
    sql: &str,
    max_edges: usize,
) -> BTreeSet<String> {
    let query = parse_sql(sql).expect("workload SQL");
    let cfg = EnumConfig {
        max_edges,
        ..EnumConfig::default()
    };
    Enumeration::of(schema_graph, db, &query, &cfg)
        .expect("enumerate")
        .graphs
        .into_iter()
        .filter(|g| g.valid)
        .map(|g| g.graph.semantic_key())
        .collect()
}

/// A mkdir-on-new, remove-on-drop temp directory (no tempfile crate in
/// the offline build environment).
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates `$TMPDIR/<prefix>_<pid>_<seq>`.
    pub fn new(prefix: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}_{}_{}", std::process::id(), seq));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
