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
//! 2. **infer** — read each file whole and walk its records through a
//!    sampling type-inference pass ([`infer`]): `Int ⊑ Float ⊑ Str`
//!    lattice with null detection, capped distinct sketches,
//!    single-column key detection, and the categorical/numeric kind
//!    heuristic of Definition 5;
//! 3. **load** — read each file again and parse its cells under the
//!    inferred schema into a columnar [`cajade_storage::Table`] whose
//!    strings are ids in a pool of the file's own (lenient by default:
//!    post-sample type contradictions coerce to NULL and are counted;
//!    [`IngestOptions::strict_types`] turns them into errors), then
//!    certify composite keys the single-column pass missed;
//! 4. **discover** — containment-based join discovery
//!    ([`cajade_graph::extend_schema_graph`]) extends the manifest's
//!    pinned joins into a full [`cajade_graph::SchemaGraph`], with
//!    per-join provenance in the report.
//!
//! Infer and load each read the directory's files side by side: one
//! [`fan_out`] per stage, one item per file, the largest file handed
//! out first. Everything that depends on order happens on the caller in
//! file-name order: the `ingest.profile` / `ingest.load` failpoints
//! (evaluated per file before the fan-out), warnings, lenient skips, the
//! first strict error, and the merge that ends the load. The merge
//! interns each file's pool, in id order, into the database's, rewrites
//! the file's `Str` cells through the resulting ids and inserts the
//! table — a file whose table is skipped after it was read still
//! contributes its strings — so every `StrId`, and with them the pool,
//! [`Database::fingerprint`] and the report, is the one a sequential
//! load in name order gives.
//!
//! Both passes run on [`cajade_storage::csv::CsvTokenizer`]: one read
//! and one UTF-8 check per file and pass, and one reused
//! [`cajade_storage::csv::Record`], so neither allocates per line or per
//! cell (the load appends each cell straight to its column and hands the
//! columns to [`Table::from_columns`]). A file's
//! bytes are dropped when its item ends.
//!
//! The result plugs straight into
//! `ExplanationService::register_database` (the service's
//! `register_csv_dir` does exactly that) or a one-shot
//! [`cajade_core::ExplanationSession`]; the `cajade-ingest` binary is
//! the command-line wrapper.

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods)]

pub mod export;
pub mod infer;
pub mod manifest;
pub mod report;

use std::cmp::Reverse;
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cajade_core::pipeline::fan_out;
use cajade_graph::{extend_schema_graph, DiscoveryConfig, SchemaGraph};
use cajade_graph::{GraphError, JoinCond};
use cajade_obs::faults::{self, Site};
use cajade_obs::Stage;
use cajade_storage::csv::{CsvTokenizer, Record};
use cajade_storage::rowkey::{KeyedSet, KeyedState};
use cajade_storage::{
    parse_typed_cell, Column, DataType, Database, Schema, StorageError, StrId, StringPool, Table,
    Value,
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
#[derive(Debug, Clone, Default)]
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
    /// Cap on accepted discovered joins. `Some` is an *explicit* request
    /// (CLI flag, protocol field) and beats the manifest; `None` falls
    /// back to the manifest's `max_joins`, then
    /// [`DEFAULT_MAX_DISCOVERED_JOINS`].
    pub max_discovered_joins: Option<usize>,
}

/// Discovered-join budget when neither the caller nor the manifest
/// picks one.
pub const DEFAULT_MAX_DISCOVERED_JOINS: usize = 24;

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
/// pipeline). Files are read side by side and merged in name order, so
/// ingestion is deterministic; non-CSV files other than `dataset.toml`
/// are skipped with a warning.
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
    let gated = gate_files(
        Site::IngestProfile,
        csv_files.iter().map(PathBuf::as_path),
        options.strict_types,
    );
    let profiled = largest_first(
        &gated,
        |(path, _)| path,
        |(path, gate)| {
            gate.clone()
                .and_then(|()| profile_file(path, &file_stem(path), &options.infer))
        },
    );
    let mut profiles: Vec<(PathBuf, TableProfile)> = Vec::with_capacity(profiled.len());
    for ((path, _), profiled) in gated.iter().zip(profiled) {
        match profiled {
            Ok(Some(profile)) => profiles.push((path.to_path_buf(), profile)),
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
    let paths = profiles.iter().map(|(path, _)| path.as_path());
    let items: Vec<LoadItem> = gate_files(Site::IngestLoad, paths, options.strict_types)
        .into_iter()
        .zip(&profiles)
        .map(|((path, gate), (_, profile))| LoadItem {
            path,
            profile,
            schema: profile.into_schema(&manifest),
            gate,
        })
        .collect();
    let loaded = largest_first(
        &items,
        |item| item.path,
        |item| load_file(item, options, &manifest),
    );
    // The in-order merge: each file's pool joins the database's in
    // file-name order, its strings in first-appearance order, so every
    // id is the one a sequential load would have given it.
    let mut db = Database::new(dataset_name.clone());
    let mut tables = Vec::with_capacity(items.len());
    for (item, (strings, loaded)) in items.iter().zip(loaded) {
        warn_all_null_columns(item.profile, &item.schema, &mut warnings);
        // A file that failed after reading strings keeps them in the
        // pool, as a sequential load would have; its table is dropped
        // whole, so a lenient skip leaves no partial table behind.
        let ids: Vec<StrId> = strings.into_iter().map(|s| db.intern_shared(s)).collect();
        let inserted = loaded.and_then(|(mut table, report)| {
            table.remap_strs(&ids);
            db.insert_table(table)
                .map_err(|e| storage_err(&report.name, e))?;
            Ok(report)
        });
        let report = match inserted {
            Ok(report) => report,
            Err(e) if !options.strict_types => {
                warnings.push(format!("{}: table skipped ({e})", item.path.display()));
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
        if !report.key_pinned && item.profile.columns.iter().any(|c| c.distinct_truncated) {
            warnings.push(format!(
                "table `{}`: distinct tracking capped at {} values, so key inference may \
                 have missed a unique column — pin a key in dataset.toml if [{}] is wrong",
                report.name,
                infer::MAX_DISTINCT,
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

fn read(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| IngestError::Io {
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
    let bytes = read(path)?;
    let mut rows = CsvTokenizer::new(&bytes);
    let mut rec = Record::new();
    if !rows
        .next_record(&mut rec)
        .map_err(|e| storage_err(table, e))?
    {
        return Ok(None);
    }
    let header: Vec<String> = rec.iter().map(str::to_string).collect();
    check_header(table, &header)?;
    let mut profile = TableProfile::new(table, &header, cfg.clone());
    while rows
        .next_record(&mut rec)
        .map_err(|e| storage_err(table, e))?
    {
        profile.observe_row(&rec);
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

/// One file of the load stage.
struct LoadItem<'a> {
    path: &'a Path,
    profile: &'a TableProfile,
    schema: Schema,
    /// The file's load failpoint, evaluated on the caller.
    gate: Result<()>,
}

/// Evaluates `site`'s failpoint once per file, on the caller and in
/// file-name order, so which file an armed fault hits does not depend on
/// which file a worker reads first. In strict mode the first hit ends
/// the list: the stage fails there, and later files are not read.
fn gate_files<'a>(
    site: Site,
    paths: impl Iterator<Item = &'a Path>,
    strict: bool,
) -> Vec<(&'a Path, Result<()>)> {
    let mut gated = Vec::new();
    for path in paths {
        let gate = faults::failpoint(site).map_err(|msg| IngestError::Io {
            path: path.to_path_buf(),
            msg,
        });
        let hit = gate.is_err();
        gated.push((path, gate));
        if hit && strict {
            break;
        }
    }
    gated
}

/// Maps `f` over `items` on [`fan_out`] — the largest file (by byte
/// length) handed out first, so the longest read does not start last —
/// and returns the results in item order, which is file-name order. A
/// directory of one file runs on the caller.
fn largest_first<T: Sync, R: Send>(
    items: &[T],
    path: impl Fn(&T) -> &Path,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    // A file that cannot be stat'ed goes last; its read reports the error.
    order.sort_by_cached_key(|&i| {
        Reverse(std::fs::metadata(path(&items[i])).map_or(0, |m| m.len()))
    });
    let mut done: Vec<(usize, R)> = fan_out(true, &order, |&i| (i, f(&items[i])));
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Pass 2 over one file, against a pool of the file's own. Its strings
/// come back in id order even when the load fails: the strings read
/// before the failure belong in the database's pool all the same. The
/// pool's index is dropped here, on the item's thread.
fn load_file(
    item: &LoadItem,
    options: &IngestOptions,
    manifest: &Manifest,
) -> (Vec<Arc<str>>, Result<(Table, TableReport)>) {
    let mut pool = StringPool::new();
    let loaded = item
        .gate
        .clone()
        .and_then(|()| load_table(item, &mut pool, options, manifest));
    (pool.into_strings(), loaded)
}

/// Typed load under the synthesized schema, then composite-key
/// certification when single-column detection came up dry.
fn load_table(
    item: &LoadItem,
    pool: &mut StringPool,
    options: &IngestOptions,
    manifest: &Manifest,
) -> Result<(Table, TableReport)> {
    let schema = item.schema.clone();
    let table_name = schema.name.clone();
    let key_pinned = manifest
        .tables
        .get(&table_name)
        .is_some_and(|t| t.key.is_some());
    let arity = schema.arity();
    // Each parsed cell goes straight to its column: no row is built.
    let mut columns: Vec<Column> = schema
        .fields
        .iter()
        .map(|f| Column::with_capacity(f.dtype, item.profile.rows))
        .collect();
    let bytes = read(item.path)?;
    let mut rows = CsvTokenizer::new(&bytes);
    let mut rec = Record::new();
    rows.next_record(&mut rec)
        .map_err(|e| storage_err(&table_name, e))?; // header
    let mut coerced_nulls = 0usize;
    let mut ragged_rows = 0usize;
    while rows
        .next_record(&mut rec)
        .map_err(|e| storage_err(&table_name, e))?
    {
        if rec.len() != arity {
            ragged_rows += 1;
        }
        for (i, (column, field)) in columns.iter_mut().zip(&schema.fields).enumerate() {
            let raw = rec.get(i).unwrap_or("");
            let value = match parse_typed_cell(raw, field.dtype, pool) {
                Some(v) => v,
                None if options.strict_types => {
                    return Err(storage_err(
                        &table_name,
                        StorageError::TypeInference {
                            column: field.name.clone(),
                            msg: format!(
                                "line {}: `{raw}` does not parse as {} (inferred from the \
                                 first {} rows)",
                                rec.line(),
                                field.dtype.name(),
                                options.infer.sample_rows
                            ),
                        },
                    ));
                }
                None => {
                    coerced_nulls += 1;
                    Value::Null
                }
            };
            column
                .push(value, &field.name)
                .map_err(|e| storage_err(&table_name, e))?;
        }
    }
    let mut table =
        Table::from_columns(schema, columns).map_err(|e| storage_err(&table_name, e))?;

    if table.schema().primary_key().is_empty() && !key_pinned {
        if let Some(key) = composite_key(&table) {
            table
                .set_primary_key(&key)
                .map_err(|e| storage_err(&table_name, e))?;
        }
    }
    let report = TableReport {
        name: table_name,
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
    Ok((table, report))
}

/// Widest composite primary key the post-load check certifies.
const MAX_PK_WIDTH: usize = 3;

/// Certifies the shortest leading column prefix (≤ [`MAX_PK_WIDTH`], no
/// floats, no NULLs) whose value combinations are row-unique. Leading
/// prefixes only: real-world CSVs overwhelmingly put key columns first,
/// and the full subset lattice is exponential.
fn composite_key(table: &Table) -> Option<Vec<String>> {
    let arity = table.num_columns();
    if table.num_rows() == 0 || arity < 2 {
        return None;
    }
    'width: for width in 2..=MAX_PK_WIDTH.min(arity) {
        let fields = &table.schema().fields[..width];
        if fields.iter().any(|f| f.dtype == DataType::Float) {
            return None; // float keys are asking for trouble
        }
        // Within a prefix each column keeps one type, so a key is its
        // cells' `i64`s and string ids, with no tag and no buffer.
        let mut seen: KeyedSet<[u64; MAX_PK_WIDTH]> =
            KeyedSet::with_capacity_and_hasher(table.num_rows(), KeyedState::default());
        for r in 0..table.num_rows() {
            let mut key = [0; MAX_PK_WIDTH];
            for (c, k) in key[..width].iter_mut().enumerate() {
                *k = match table.value(r, c) {
                    Value::Int(i) => i as u64,
                    Value::Str(s) => u64::from(s.0),
                    // NULL in a key column; floats were refused above.
                    Value::Null | Value::Float(_) => return None,
                };
            }
            if !seen.insert(key) {
                continue 'width; // duplicate — try a wider prefix
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
    let mut cfg = DiscoveryConfig::default();
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
            composite_key(&t),
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
        assert_eq!(composite_key(&dup), None);

        let mut nullish = Table::new(schema);
        nullish.push_row(vec![Value::Int(1), Value::Null]).unwrap();
        assert_eq!(composite_key(&nullish), None);
    }
}
