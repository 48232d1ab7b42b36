//! # cajade-ingest
//!
//! The dataset ingestion subsystem: point CaJaDE at a **directory of CSV
//! files** and get back a registered, explanation-ready database with
//! zero hand-written schema — the paper's §8 future-work direction of
//! using *arbitrary* datasets as context, made a front door.
//!
//! One table per file (the file stem names the relation). Ingestion runs
//! four stages, each timed in the returned [`IngestReport`]:
//!
//! 1. **scan** — list `*.csv` files, parse an optional `dataset.toml`
//!    [`Manifest`] (pinned kinds/keys/joins beat everything inferred);
//! 2. **infer** — stream every file through a sampling type-inference
//!    pass ([`infer`]): `Int ⊑ Float ⊑ Str` lattice with null detection,
//!    capped distinct sketches, single-column key detection, and the
//!    categorical/numeric kind heuristic of Definition 5;
//! 3. **load** — second streaming pass parses cells under the inferred
//!    schema into columnar [`cajade_storage::Table`]s (lenient by
//!    default: post-sample type contradictions coerce to NULL and are
//!    counted; [`IngestOptions::strict_types`] turns them into errors),
//!    then certifies composite keys the single-column pass missed;
//! 4. **discover** — containment-based join discovery
//!    ([`cajade_graph::extend_schema_graph`]) extends the manifest's
//!    pinned joins into a full [`cajade_graph::SchemaGraph`], with
//!    per-join provenance in the report.
//!
//! The result plugs straight into
//! `ExplanationService::register_database` (the service's
//! `register_csv_dir` does exactly that) or a one-shot
//! [`cajade_core::ExplanationSession`]; the `cajade-ingest` binary is
//! the command-line wrapper.

#![warn(missing_docs)]

pub mod export;
pub mod infer;
pub mod manifest;
pub mod report;

use std::collections::HashSet;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use cajade_graph::{extend_schema_graph, DiscoveryConfig, SchemaGraph};
use cajade_graph::{GraphError, JoinCond};
use cajade_obs::Stage;
use cajade_storage::{
    parse_typed_cell, rowkey, CsvReader, DataType, Database, Schema, StorageError, Table,
};

pub use export::{export_csv_dir, ExportOptions};
pub use infer::{InferConfig, TableProfile};
pub use manifest::{Manifest, ManifestJoin, TableManifest};
pub use report::{IngestReport, IngestTimings, JoinOrigin, JoinReport, TableReport};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IngestError>;

/// Ingestion failures.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// Filesystem failure (listing the directory, opening a file).
    Io {
        /// Offending path.
        path: PathBuf,
        /// Rendered OS error.
        msg: String,
    },
    /// The directory holds no loadable `*.csv` file.
    EmptyDirectory(PathBuf),
    /// A storage-layer failure while reading or loading one table.
    Storage {
        /// Table (file stem) being loaded.
        table: String,
        /// Underlying error (CSV structure, type clash, …).
        source: StorageError,
    },
    /// Malformed `dataset.toml` (line 0 = structural, post-parse).
    Manifest {
        /// 1-based manifest line (0 when not line-attributable).
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// Schema-graph assembly or validation failed (e.g. a pinned join
    /// names a missing table or column).
    Graph(GraphError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { path, msg } => write!(f, "{}: {msg}", path.display()),
            IngestError::EmptyDirectory(p) => {
                write!(f, "no *.csv files found in {}", p.display())
            }
            IngestError::Storage { table, source } => {
                write!(f, "table `{table}`: {source}")
            }
            IngestError::Manifest { line, msg } => {
                if *line == 0 {
                    write!(f, "dataset.toml: {msg}")
                } else {
                    write!(f, "dataset.toml line {line}: {msg}")
                }
            }
            IngestError::Graph(e) => write!(f, "schema graph: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<GraphError> for IngestError {
    fn from(e: GraphError) -> Self {
        IngestError::Graph(e)
    }
}

/// Ingestion tuning knobs.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Database name override (else `dataset.toml`, else the directory
    /// stem).
    pub name: Option<String>,
    /// Type/key inference configuration.
    pub infer: InferConfig,
    /// Error on cells that contradict the inferred type after the
    /// sampling window instead of coercing them to NULL. Also controls
    /// per-file failure handling: in the default lenient mode an
    /// unreadable or mid-file-corrupt CSV is skipped with a warning in
    /// [`IngestReport::warnings`]; in strict mode it aborts the whole
    /// ingestion.
    pub strict_types: bool,
    /// Containment-discovery thresholds (manifest `[discovery]` keys
    /// override individual fields).
    pub discovery: DiscoveryConfig,
    /// Cap on accepted discovered joins. `Some` is an *explicit* request
    /// (CLI flag, protocol field) and beats the manifest; `None` falls
    /// back to the manifest's `max_joins`, then
    /// [`DEFAULT_MAX_DISCOVERED_JOINS`].
    pub max_discovered_joins: Option<usize>,
    /// Widest composite primary key the post-load check certifies.
    pub max_pk_width: usize,
}

/// Discovered-join budget when neither the caller nor the manifest
/// picks one.
pub const DEFAULT_MAX_DISCOVERED_JOINS: usize = 24;

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            name: None,
            infer: InferConfig::default(),
            strict_types: false,
            discovery: DiscoveryConfig::default(),
            max_discovered_joins: None,
            max_pk_width: 3,
        }
    }
}

/// An ingested dataset: ready to register or explain against.
#[derive(Debug, Clone)]
pub struct IngestedDataset {
    /// The loaded database.
    pub db: Database,
    /// Pinned + discovered schema graph.
    pub schema_graph: SchemaGraph,
    /// What happened, per stage.
    pub report: IngestReport,
}

/// Ingests a directory of CSV files (see the crate docs for the stage
/// pipeline). Files are loaded in name order so ingestion is
/// deterministic; non-CSV files other than `dataset.toml` are skipped
/// with a warning.
pub fn ingest_dir(dir: impl AsRef<Path>, options: &IngestOptions) -> Result<IngestedDataset> {
    let dir = dir.as_ref();
    let mut warnings = Vec::new();
    let mut timings = IngestTimings::default();

    // ---- Stage 1: scan -------------------------------------------------
    let stage = Stage::detail("ingest_scan");
    let (csv_files, manifest) = scan_dir(dir, &mut warnings)?;
    if csv_files.is_empty() {
        return Err(IngestError::EmptyDirectory(dir.to_path_buf()));
    }
    let dataset_name = options
        .name
        .clone()
        .or_else(|| manifest.name.clone())
        .or_else(|| dir.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "dataset".to_string());
    timings.scan = stage.finish();

    // ---- Stage 2: infer ------------------------------------------------
    let stage = Stage::detail("ingest_infer");
    let mut profiles: Vec<(PathBuf, TableProfile)> = Vec::with_capacity(csv_files.len());
    for path in &csv_files {
        let table = file_stem(path);
        let profiled = cajade_obs::faults::failpoint("ingest.profile")
            .map_err(|msg| IngestError::Io {
                path: path.clone(),
                msg,
            })
            .and_then(|()| profile_file(path, &table, &options.infer));
        match profiled {
            Ok(Some(profile)) => profiles.push((path.clone(), profile)),
            Ok(None) => warnings.push(format!("{}: empty file, skipped", path.display())),
            Err(e) if !options.strict_types => {
                warnings.push(format!("{}: file skipped ({e})", path.display()));
            }
            Err(e) => return Err(e),
        }
    }
    if profiles.is_empty() {
        return Err(IngestError::EmptyDirectory(dir.to_path_buf()));
    }
    validate_manifest_pins(&manifest, &profiles, &mut warnings)?;
    timings.infer = stage.finish();

    // ---- Stage 3: load -------------------------------------------------
    let stage = Stage::detail("ingest_load");
    let mut db = Database::new(dataset_name.clone());
    let mut tables = Vec::with_capacity(profiles.len());
    for (path, profile) in &profiles {
        let schema = profile.into_schema(&manifest);
        warn_all_null_columns(profile, &schema, &mut warnings);
        // `load_file` only inserts the table into `db` once the whole file
        // parsed, so a lenient skip here leaves no partial table behind.
        let loaded = cajade_obs::faults::failpoint("ingest.load")
            .map_err(|msg| IngestError::Io {
                path: path.clone(),
                msg,
            })
            .and_then(|()| load_file(path, profile, schema, &mut db, options, &manifest));
        let report = match loaded {
            Ok(report) => report,
            Err(e) if !options.strict_types => {
                warnings.push(format!("{}: table skipped ({e})", path.display()));
                continue;
            }
            Err(e) => return Err(e),
        };
        if report.ragged_rows > 0 {
            warnings.push(format!(
                "table `{}`: {} ragged record(s) padded/truncated to the header arity",
                report.name, report.ragged_rows
            ));
        }
        if report.coerced_nulls > 0 {
            warnings.push(format!(
                "table `{}`: {} cell(s) contradicted the inferred type after the sampling \
                 window and were coerced to NULL",
                report.name, report.coerced_nulls
            ));
        }
        if !report.key_pinned && profile.columns.iter().any(|c| c.distinct_truncated) {
            warnings.push(format!(
                "table `{}`: distinct tracking capped at {} values, so key inference may \
                 have missed a unique column — pin a key in dataset.toml if [{}] is wrong",
                report.name,
                options.infer.max_distinct,
                report.key.join(", ")
            ));
        }
        tables.push(report);
    }
    if tables.is_empty() {
        // Every table was skipped leniently; an empty database is useless,
        // so surface that the directory yielded nothing loadable.
        return Err(IngestError::EmptyDirectory(dir.to_path_buf()));
    }
    timings.load = stage.finish();

    // ---- Stage 4: discover ---------------------------------------------
    let stage = Stage::detail("ingest_discover");
    let (schema_graph, joins) = assemble_graph(&db, &manifest, options, &mut warnings)?;
    timings.discover = stage.finish();

    Ok(IngestedDataset {
        db,
        schema_graph,
        report: IngestReport {
            dataset: dataset_name,
            manifest_used: manifest != Manifest::default(),
            tables,
            joins,
            warnings,
            timings,
        },
    })
}

/// Lists `*.csv` files (name-sorted) and parses `dataset.toml` if present.
fn scan_dir(dir: &Path, warnings: &mut Vec<String>) -> Result<(Vec<PathBuf>, Manifest)> {
    let entries = std::fs::read_dir(dir).map_err(|e| IngestError::Io {
        path: dir.to_path_buf(),
        msg: e.to_string(),
    })?;
    let mut csv_files = Vec::new();
    let mut manifest = Manifest::default();
    for entry in entries {
        let entry = entry.map_err(|e| IngestError::Io {
            path: dir.to_path_buf(),
            msg: e.to_string(),
        })?;
        let path = entry.path();
        if path.is_dir() {
            continue;
        }
        let ext = path
            .extension()
            .map(|e| e.to_string_lossy().to_ascii_lowercase());
        match ext.as_deref() {
            Some("csv") => csv_files.push(path),
            _ if path.file_name().is_some_and(|n| n == "dataset.toml") => {
                let text = std::fs::read_to_string(&path).map_err(|e| IngestError::Io {
                    path: path.clone(),
                    msg: e.to_string(),
                })?;
                manifest = Manifest::parse(&text)?;
                manifest.validate()?;
            }
            _ => warnings.push(format!("{}: not a CSV file, skipped", path.display())),
        }
    }
    csv_files.sort();
    Ok((csv_files, manifest))
}

fn file_stem(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "table".to_string())
}

fn open(path: &Path) -> Result<BufReader<File>> {
    File::open(path)
        .map(BufReader::new)
        .map_err(|e| IngestError::Io {
            path: path.to_path_buf(),
            msg: e.to_string(),
        })
}

fn storage_err(table: &str, source: StorageError) -> IngestError {
    IngestError::Storage {
        table: table.to_string(),
        source,
    }
}

/// Pass 1 over one file. Returns `None` for files without a header row.
fn profile_file(path: &Path, table: &str, cfg: &InferConfig) -> Result<Option<TableProfile>> {
    let mut rows = CsvReader::new(open(path)?);
    let Some(header) = rows.next_row().map_err(|e| storage_err(table, e))? else {
        return Ok(None);
    };
    check_header(table, &header)?;
    let mut profile = TableProfile::new(table, &header, cfg.clone());
    while let Some(row) = rows.next_row().map_err(|e| storage_err(table, e))? {
        profile.observe_row(&row);
    }
    Ok(Some(profile))
}

fn check_header(table: &str, header: &[String]) -> Result<()> {
    let mut seen = HashSet::new();
    for name in header {
        if name.trim().is_empty() {
            return Err(storage_err(
                table,
                StorageError::Csv {
                    line: 1,
                    msg: "empty column name in header".into(),
                },
            ));
        }
        if !seen.insert(name.as_str()) {
            return Err(storage_err(
                table,
                StorageError::Csv {
                    line: 1,
                    msg: format!("duplicate column name `{name}` in header"),
                },
            ));
        }
    }
    Ok(())
}

/// Every per-table manifest pin must name a real column — a typo'd pin
/// that silently does nothing (a keyless table claiming `key_pinned`)
/// is worse than an error. Pins for tables without a CSV file only
/// warn: a shared manifest may cover more files than one directory.
fn validate_manifest_pins(
    manifest: &Manifest,
    profiles: &[(PathBuf, TableProfile)],
    warnings: &mut Vec<String>,
) -> Result<()> {
    for (table, pins) in &manifest.tables {
        let Some((_, profile)) = profiles.iter().find(|(_, p)| &p.table == table) else {
            warnings.push(format!(
                "dataset.toml pins table `{table}`, but no `{table}.csv` was loaded"
            ));
            continue;
        };
        let check = |cols: &[String], what: &str| -> Result<()> {
            for c in cols {
                if !profile.columns.iter().any(|p| &p.name == c) {
                    return Err(IngestError::Manifest {
                        line: 0,
                        msg: format!(
                            "[tables.{table}] {what} pins unknown column `{c}` \
                             (file has: {})",
                            profile
                                .columns
                                .iter()
                                .map(|p| p.name.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    });
                }
            }
            Ok(())
        };
        if let Some(key) = &pins.key {
            check(key, "key")?;
        }
        check(&pins.categorical, "categorical")?;
        check(&pins.numeric, "numeric")?;
    }
    Ok(())
}

fn warn_all_null_columns(profile: &TableProfile, schema: &Schema, warnings: &mut Vec<String>) {
    for (c, f) in profile.columns.iter().zip(&schema.fields) {
        if c.non_nulls == 0 && profile.rows > 0 {
            warnings.push(format!(
                "table `{}`: column `{}` is entirely NULL; typed as Str",
                profile.table, f.name
            ));
        }
    }
}

/// Pass 2 over one file: typed load under the synthesized schema, then
/// composite-key certification when single-column detection came up dry.
fn load_file(
    path: &Path,
    profile: &TableProfile,
    schema: Schema,
    db: &mut Database,
    options: &IngestOptions,
    manifest: &Manifest,
) -> Result<TableReport> {
    let table_name = schema.name.clone();
    let key_pinned = manifest
        .tables
        .get(&table_name)
        .is_some_and(|t| t.key.is_some());
    let arity = schema.arity();
    let dtypes: Vec<DataType> = schema.fields.iter().map(|f| f.dtype).collect();
    let mut table = Table::with_capacity(schema, profile.rows);
    let mut rows = CsvReader::new(open(path)?);
    rows.next_row().map_err(|e| storage_err(&table_name, e))?; // header
    let mut coerced_nulls = 0usize;
    let mut ragged_rows = 0usize;
    while let Some(row) = rows.next_row().map_err(|e| storage_err(&table_name, e))? {
        if row.len() != arity {
            ragged_rows += 1;
        }
        let mut values = Vec::with_capacity(arity);
        for (i, &dtype) in dtypes.iter().enumerate() {
            let raw = row.get(i).map(String::as_str).unwrap_or("");
            match parse_typed_cell(raw, dtype, db.pool_mut()) {
                Some(v) => values.push(v),
                None if options.strict_types => {
                    return Err(storage_err(
                        &table_name,
                        StorageError::TypeInference {
                            column: table.schema().fields[i].name.clone(),
                            msg: format!(
                                "line {}: `{raw}` does not parse as {} (inferred from the \
                                 first {} rows)",
                                rows.record_line(),
                                dtype.name(),
                                options.infer.sample_rows
                            ),
                        },
                    ));
                }
                None => {
                    coerced_nulls += 1;
                    values.push(cajade_storage::Value::Null);
                }
            }
        }
        table
            .push_row(values)
            .map_err(|e| storage_err(&table_name, e))?;
    }

    if table.schema().primary_key().is_empty() && !key_pinned {
        if let Some(key) = composite_key(&table, options.max_pk_width) {
            table
                .set_primary_key(&key)
                .map_err(|e| storage_err(&table_name, e))?;
        }
    }
    let report = TableReport {
        name: table_name.clone(),
        rows: table.num_rows(),
        columns: table.num_columns(),
        key: table
            .schema()
            .primary_key()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        key_pinned,
        ragged_rows,
        coerced_nulls,
    };
    db.insert_table(table)
        .map_err(|e| storage_err(&table_name, e))?;
    Ok(report)
}

/// Certifies the shortest leading column prefix (≤ `max_width`, no
/// floats, no NULLs) whose value combinations are row-unique. Leading
/// prefixes only: real-world CSVs overwhelmingly put key columns first,
/// and the full subset lattice is exponential.
fn composite_key(table: &Table, max_width: usize) -> Option<Vec<String>> {
    let arity = table.num_columns();
    if table.num_rows() == 0 || arity < 2 {
        return None;
    }
    'width: for width in 2..=max_width.min(arity) {
        let fields = &table.schema().fields[..width];
        if fields.iter().any(|f| f.dtype == DataType::Float) {
            return None; // float keys are asking for trouble
        }
        let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(table.num_rows());
        for r in 0..table.num_rows() {
            let values: Vec<cajade_storage::Value> =
                (0..width).map(|c| table.value(r, c)).collect();
            match rowkey::encode_key(&values) {
                Some(key) => {
                    if !seen.insert(key) {
                        continue 'width; // duplicate — try a wider prefix
                    }
                }
                None => return None, // NULL in a key column
            }
        }
        return Some(fields.iter().map(|f| f.name.clone()).collect());
    }
    None
}

/// Builds the schema graph: manifest-pinned joins first (validated), then
/// containment discovery extends around them.
fn assemble_graph(
    db: &Database,
    manifest: &Manifest,
    options: &IngestOptions,
    warnings: &mut Vec<String>,
) -> Result<(SchemaGraph, Vec<JoinReport>)> {
    let mut base = SchemaGraph::new();
    let mut joins = Vec::new();
    for j in &manifest.joins {
        let pairs: Vec<(&str, &str)> = j
            .from_columns
            .iter()
            .zip(&j.to_columns)
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let cond = JoinCond::on(&pairs);
        joins.push(JoinReport {
            condition: cond.render(&j.from_table, &j.to_table),
            origin: JoinOrigin::Pinned,
            evidence: None,
        });
        base.add_condition(&j.from_table, &j.to_table, cond);
    }
    base.validate(db)?;

    let enabled = manifest.discovery_enabled.unwrap_or(true);
    if !enabled {
        return Ok((base, joins));
    }
    let mut cfg = options.discovery.clone();
    if let Some(v) = manifest.min_containment {
        cfg.min_containment = v;
    }
    if let Some(v) = manifest.min_to_uniqueness {
        cfg.min_to_uniqueness = v;
    }
    if let Some(v) = manifest.min_to_coverage {
        cfg.min_to_coverage = v;
    }
    // Explicit caller option > manifest > default: a user told to "rerun
    // with a higher max_joins" must actually be able to.
    let max_joins = options
        .max_discovered_joins
        .or(manifest.max_joins)
        .unwrap_or(DEFAULT_MAX_DISCOVERED_JOINS);
    let discovered = extend_schema_graph(db, &cfg, base, max_joins)?;
    for cand in &discovered.accepted {
        joins.push(JoinReport {
            condition: format!(
                "{}.{} = {}.{}",
                cand.from_table, cand.from_col, cand.to_table, cand.to_col
            ),
            origin: JoinOrigin::Discovered,
            evidence: Some(cand.clone()),
        });
    }
    if discovered.budget_skipped > 0 {
        warnings.push(format!(
            "join discovery budget ({max_joins}) exhausted with {} viable candidate(s) \
             left over; rerun with a higher max_joins or pin the joins you care about",
            discovered.budget_skipped
        ));
    }
    Ok((discovered.graph, joins))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_key_certifies_leading_prefix() {
        use cajade_storage::{AttrKind, SchemaBuilder, Value};
        let schema = SchemaBuilder::new("g")
            .column("date", DataType::Str, AttrKind::Categorical)
            .column("home", DataType::Int, AttrKind::Categorical)
            .column("pts", DataType::Int, AttrKind::Numeric)
            .build();
        let mut pool = cajade_storage::StringPool::new();
        let d1 = pool.intern("d1");
        let d2 = pool.intern("d2");
        let mut t = Table::new(schema);
        for (d, h, p) in [(d1, 1, 9), (d1, 2, 9), (d2, 1, 9)] {
            t.push_row(vec![Value::Str(d), Value::Int(h), Value::Int(p)])
                .unwrap();
        }
        assert_eq!(
            composite_key(&t, 3),
            Some(vec!["date".to_string(), "home".to_string()])
        );
        // Width 1 is the single-column pass's job; width 2 here suffices,
        // so `pts` never joins the key.
    }

    #[test]
    fn composite_key_gives_up_on_duplicates_and_nulls() {
        use cajade_storage::{AttrKind, SchemaBuilder, Value};
        let schema = SchemaBuilder::new("g")
            .column("a", DataType::Int, AttrKind::Categorical)
            .column("b", DataType::Int, AttrKind::Categorical)
            .build();
        let mut dup = Table::new(schema.clone());
        for (a, b) in [(1, 1), (1, 1)] {
            dup.push_row(vec![Value::Int(a), Value::Int(b)]).unwrap();
        }
        assert_eq!(composite_key(&dup, 3), None);

        let mut nullish = Table::new(schema);
        nullish.push_row(vec![Value::Int(1), Value::Null]).unwrap();
        assert_eq!(composite_key(&nullish, 3), None);
    }
}
