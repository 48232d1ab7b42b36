//! Column type, kind, and key inference over tokenized CSV records.
//!
//! The infer stage, one file per item of its fan-out (the load stage
//! reads each file again, merged into the database in file-name order;
//! see the crate docs): every record of a file flows, as the
//! tokenizer's one reused [`Record`], through a [`TableProfile`] that
//! accumulates, per column,
//!
//! * a **type lattice** position (`Int ⊑ Float ⊑ Str`): a cell that
//!   fails integer parsing promotes the column to `Float`, a cell that
//!   fails float parsing promotes it to `Str` — but only within the
//!   sampling window ([`InferConfig::sample_rows`]); later rows still
//!   count nulls/distincts but no longer refine the type (the paper-\
//!   scale corpora are far too large for full-scan inference),
//! * **null statistics** (empty cells are NULL for numeric columns),
//! * a capped **distinct-value sketch** (FNV hashes of the cell text)
//!   driving key detection and the categorical/numeric kind heuristic.
//!   The FNV values are the set's keys, and the set hashes them again
//!   under [`cajade_storage::rowkey::KeyedState`], the one hasher of
//!   every per-row table over user data: one multiply under a key drawn
//!   per set, so a file's cells cannot be chosen to make FNV values
//!   collide in whatever bits the set indexes by.
//!
//! A cell is classified only as far as its column's lattice position
//! needs: a `Str` column only asks whether the cell is empty, a `Float`
//! column whether it parses as `f64`.
//!
//! [`TableProfile::into_schema`] then synthesizes a [`Schema`]:
//! single-column unique keys are marked primary, integer columns with
//! id-like names or key status stay categorical (equality-only in the
//! pattern language), and everything a `dataset.toml` manifest pins
//! overrides the inference.

use cajade_storage::csv::Record;
use cajade_storage::rowkey::KeyedSet;
use cajade_storage::{AttrKind, DataType, Field, Schema};

use crate::manifest::Manifest;

/// Inference tuning knobs (subset of [`crate::IngestOptions`]).
#[derive(Debug, Clone)]
pub struct InferConfig {
    /// Rows examined for *type* decisions; rows beyond the window update
    /// null/distinct statistics only.
    pub sample_rows: usize,
}

impl Default for InferConfig {
    fn default() -> Self {
        Self {
            sample_rows: 100_000,
        }
    }
}

/// Cap on tracked distinct values per column (memory guard, ~8 MB per
/// column worst case). A column that overflows the cap is treated as
/// "many distinct" — fine for keys, which is what the sketch is for; key
/// detection degrades (with a warning) rather than erring on tables
/// beyond this.
pub(crate) const MAX_DISTINCT: usize = 1 << 20;

/// Integer columns with at most this many distinct values are treated as
/// categorical codes (flags, enumerations) rather than measures.
const SMALL_INT_DOMAIN: usize = 12;

/// The type of a trimmed, non-empty cell (cheapest check first).
fn cell_type(t: &str) -> DataType {
    if t.parse::<i64>().is_ok() {
        DataType::Int
    } else if t.parse::<f64>().is_ok() {
        DataType::Float
    } else {
        DataType::Str
    }
}

/// Per-column accumulator.
#[derive(Debug)]
pub struct ColumnProfile {
    /// Column (header) name.
    pub name: String,
    /// Current type-lattice position (valid for the sampled window).
    dtype: DataType,
    /// True until the first non-empty cell fixes an initial type.
    untyped: bool,
    /// Empty cells seen.
    pub nulls: usize,
    /// Non-empty cells seen.
    pub non_nulls: usize,
    /// Capped distinct sketch (FNV-hashed cell text).
    distinct: KeyedSet<u64>,
    /// True once the sketch hit its cap.
    pub distinct_truncated: bool,
}

impl ColumnProfile {
    fn new(name: String) -> Self {
        Self {
            name,
            dtype: DataType::Str,
            untyped: true,
            nulls: 0,
            non_nulls: 0,
            distinct: KeyedSet::default(),
            distinct_truncated: false,
        }
    }

    /// True iff every cell was non-null and distinct — a single-column
    /// unique key over the scanned rows.
    pub fn is_unique_key(&self) -> bool {
        self.nulls == 0
            && !self.distinct_truncated
            && self.non_nulls > 0
            && self.distinct.len() == self.non_nulls
    }

    /// The inferred physical type. All-null columns fall back to `Str`.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    fn observe(&mut self, raw: &str, in_sample: bool) {
        let t = raw.trim();
        if t.is_empty() {
            // Whitespace-only cells are as empty as empty ones; a
            // space-padded gap must not demote a numeric column to Str.
            self.nulls += 1;
            return;
        }
        self.non_nulls += 1;
        if in_sample {
            self.refine(t);
        }
        let key = fnv1a(t.as_bytes());
        if self.distinct.len() < MAX_DISTINCT {
            self.distinct.insert(key);
        } else if !self.distinct.contains(&key) {
            self.distinct_truncated = true;
        }
    }

    /// Joins the lattice position with a non-empty cell's type, parsing
    /// the cell only as far as the join can still move.
    fn refine(&mut self, t: &str) {
        if self.untyped {
            self.untyped = false;
            self.dtype = cell_type(t);
            return;
        }
        self.dtype = match self.dtype {
            DataType::Str => DataType::Str,
            // Every `i64` text parses as `f64`, and Int ⊔ Float = Float.
            DataType::Float if t.parse::<f64>().is_ok() => DataType::Float,
            DataType::Float => DataType::Str,
            DataType::Int => promote(DataType::Int, cell_type(t)),
        };
    }
}

/// Least upper bound in the `Int ⊑ Float ⊑ Str` lattice.
fn promote(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    match (a, b) {
        (Str, _) | (_, Str) => Str,
        (Float, _) | (_, Float) => Float,
        (Int, Int) => Int,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3); // the FNV-64 prime
    }
    h
}

/// Profile of one CSV table: the infer stage's result for one file.
#[derive(Debug)]
pub struct TableProfile {
    /// Table name (file stem).
    pub table: String,
    /// Per-column accumulators, in header order.
    pub columns: Vec<ColumnProfile>,
    /// Data rows observed.
    pub rows: usize,
    /// Rows whose field count differed from the header's.
    pub ragged_rows: usize,
    cfg: InferConfig,
}

impl TableProfile {
    /// Starts a profile for `table` with the given header.
    pub fn new(table: impl Into<String>, header: &[String], cfg: InferConfig) -> Self {
        Self {
            table: table.into(),
            columns: header
                .iter()
                .map(|name| ColumnProfile::new(name.clone()))
                .collect(),
            rows: 0,
            ragged_rows: 0,
            cfg,
        }
    }

    /// Feeds one record. Short records count missing fields as nulls;
    /// long records' extra fields are ignored; both are tallied as
    /// ragged.
    pub fn observe_row(&mut self, fields: &Record) {
        if fields.len() != self.columns.len() {
            self.ragged_rows += 1;
        }
        let in_sample = self.rows < self.cfg.sample_rows;
        for (i, col) in self.columns.iter_mut().enumerate() {
            let raw = fields.get(i).unwrap_or("");
            col.observe(raw, in_sample);
        }
        self.rows += 1;
    }

    /// Synthesizes the schema: inferred types, kind heuristic, and
    /// single-column key detection, with `manifest` pins overriding all
    /// of it. Composite keys (no single column unique) are detected
    /// post-load by [`crate::ingest_dir`], which sees full rows.
    pub fn into_schema(&self, manifest: &Manifest) -> Schema {
        let pinned = manifest.tables.get(&self.table);
        let pinned_key: Option<&[String]> = pinned.and_then(|t| t.key.as_deref());
        // Default single-column key: the first unique column, preferring
        // id-named ones (a file with both a surrogate id and a unique
        // name column should key on the id).
        let inferred_key: Option<&str> = self
            .columns
            .iter()
            .filter(|c| c.is_unique_key())
            .min_by_key(|c| (!id_like(&c.name), position(&self.columns, &c.name)))
            .map(|c| c.name.as_str());
        let fields = self
            .columns
            .iter()
            .map(|c| {
                let is_pk = match pinned_key {
                    Some(key) => key.iter().any(|k| k == &c.name),
                    None => inferred_key == Some(c.name.as_str()),
                };
                let kind = manifest
                    .pinned_kind(&self.table, &c.name)
                    .unwrap_or_else(|| infer_kind(c, is_pk));
                Field {
                    name: c.name.clone(),
                    dtype: c.dtype(),
                    kind,
                    is_pk,
                }
            })
            .collect();
        Schema {
            name: self.table.clone(),
            fields,
        }
    }
}

fn position(cols: &[ColumnProfile], name: &str) -> usize {
    cols.iter().position(|c| c.name == name).unwrap_or(0)
}

/// Kind heuristic (paper Definition 5: categorical attributes admit only
/// `=` predicates, numeric ones also `≤`/`≥`):
///
/// * strings are categorical, floats are numeric;
/// * integers are categorical when they behave like identifiers — an
///   id-like name, key status, or a tiny domain (flags/codes) — and
///   numeric otherwise (measures like points or amounts).
fn infer_kind(col: &ColumnProfile, is_pk: bool) -> AttrKind {
    match col.dtype() {
        DataType::Str => AttrKind::Categorical,
        DataType::Float => AttrKind::Numeric,
        DataType::Int => {
            if is_pk
                || id_like(&col.name)
                || col.is_unique_key()
                || (!col.distinct_truncated && col.distinct.len() <= SMALL_INT_DOMAIN)
            {
                AttrKind::Categorical
            } else {
                AttrKind::Numeric
            }
        }
    }
}

/// Name-based identifier detection: `id`, `*_id`, `*_key`, `*_code`,
/// `*_date` (case-insensitive) and their camel variants.
fn id_like(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower == "id"
        || lower == "key"
        || lower == "code"
        || lower.ends_with("_id")
        || lower.ends_with("id") && lower.len() > 2 && !lower.ends_with("paid")
        || lower.ends_with("_key")
        || lower.ends_with("_code")
        || lower.ends_with("_date")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(rows: &[&[&str]], header: &[&str]) -> TableProfile {
        let header: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        let mut p = TableProfile::new("t", &header, InferConfig::default());
        for r in rows {
            p.observe_row(&r.iter().copied().collect());
        }
        p
    }

    #[test]
    fn int_float_str_lattice() {
        let p = profile(
            &[
                &["1", "1", "1", ""],
                &["2", "2.5", "x", "3"],
                &["3", "", "2", ""],
            ],
            &["a", "b", "c", "d"],
        );
        assert_eq!(p.columns[0].dtype(), DataType::Int);
        assert_eq!(p.columns[1].dtype(), DataType::Float, "int ⊔ float = float");
        assert_eq!(p.columns[2].dtype(), DataType::Str, "any string wins");
        assert_eq!(p.columns[3].dtype(), DataType::Int, "nulls don't type");
        assert_eq!(p.columns[3].nulls, 2);
    }

    #[test]
    fn all_null_column_falls_back_to_str() {
        let p = profile(&[&[""], &[""]], &["ghost"]);
        assert_eq!(p.columns[0].dtype(), DataType::Str);
        assert!(!p.columns[0].is_unique_key());
    }

    #[test]
    fn unique_key_detection_prefers_id_named_columns() {
        let p = profile(
            &[&["1", "alice", "7"], &["2", "bob", "7"]],
            &["user_id", "name", "group"],
        );
        let m = Manifest::default();
        let schema = p.into_schema(&m);
        assert_eq!(schema.primary_key(), vec!["user_id"]);
        // `name` is unique too, but the id-named column wins.
        assert!(p.columns[1].is_unique_key());
    }

    #[test]
    fn kind_heuristic_separates_ids_from_measures() {
        let p = profile(
            &[
                &["1", "101", "23", "1"],
                &["2", "102", "31", "0"],
                &["3", "103", "44", "1"],
                &["4", "101", "52", "0"],
                &["5", "102", "19", "1"],
                &["6", "103", "28", "0"],
                &["7", "101", "33", "1"],
                &["8", "102", "41", "0"],
                &["9", "103", "27", "1"],
                &["10", "101", "38", "0"],
                &["11", "102", "45", "1"],
                &["12", "103", "22", "0"],
                &["13", "101", "36", "1"],
                &["14", "102", "23", "0"],
            ],
            &["row_id", "store_id", "points", "flag"],
        );
        let m = Manifest::default();
        let s = p.into_schema(&m);
        assert_eq!(s.field("row_id").unwrap().kind, AttrKind::Categorical);
        assert_eq!(s.field("store_id").unwrap().kind, AttrKind::Categorical);
        assert_eq!(s.field("points").unwrap().kind, AttrKind::Numeric);
        assert_eq!(
            s.field("flag").unwrap().kind,
            AttrKind::Categorical,
            "tiny integer domains are codes"
        );
    }

    #[test]
    fn manifest_pins_beat_inference() {
        let mut m = Manifest::default();
        m.tables.insert(
            "t".into(),
            crate::manifest::TableManifest {
                key: Some(vec!["zip".into()]),
                categorical: vec!["points".into()],
                numeric: vec![],
            },
        );
        let p = profile(&[&["90210", "23"], &["10001", "31"]], &["zip", "points"]);
        let s = p.into_schema(&m);
        assert_eq!(s.primary_key(), vec!["zip"]);
        assert_eq!(s.field("points").unwrap().kind, AttrKind::Categorical);
    }

    #[test]
    fn sampling_window_freezes_the_type() {
        let header = vec!["x".to_string()];
        let mut p = TableProfile::new("t", &header, InferConfig { sample_rows: 2 });
        for cell in ["1", "2", "not a number"] {
            // The third row is beyond the window.
            p.observe_row(&[cell].into_iter().collect());
        }
        assert_eq!(p.columns[0].dtype(), DataType::Int);
        assert_eq!(p.rows, 3);
    }

    #[test]
    fn ragged_rows_are_tallied_and_padded() {
        let p = profile(&[&["1", "a"], &["2"], &["3", "b", "zzz"]], &["id", "v"]);
        assert_eq!(p.ragged_rows, 2);
        assert_eq!(p.rows, 3);
        assert_eq!(p.columns[1].nulls, 1, "missing field counts as null");
    }
}
