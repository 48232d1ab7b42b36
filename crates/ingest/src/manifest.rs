//! The optional `dataset.toml` manifest: user-declared facts that
//! override (or complete) what inference and discovery would conclude
//! from the raw CSV files.
//!
//! The format is a small TOML subset — sections, string/number/bool
//! scalars, and string arrays — parsed by hand because the build
//! environment vendors no TOML crate. Everything is optional; an absent
//! manifest means "infer everything".
//!
//! ```toml
//! [dataset]
//! name = "retail"
//!
//! [discovery]                      # containment-discovery thresholds
//! enabled = true
//! min_containment = 0.95
//! min_to_uniqueness = 0.9
//! min_to_coverage = 0.5
//! max_joins = 16
//!
//! [tables.stores]
//! key = ["store_id"]               # pins the primary key
//! categorical = ["zip"]            # pins attribute kinds (Definition 5)
//! numeric = ["capacity"]
//!
//! [[joins]]                        # pins a join condition
//! from_table = "sales"
//! from_columns = ["store_id"]
//! to_table = "stores"
//! to_columns = ["store_id"]
//! ```
//!
//! Pinned joins become schema-graph edges verbatim (composite conditions
//! and self-joins included — shapes containment discovery cannot
//! propose); pinned keys and kinds beat inference.

use std::collections::BTreeMap;

use crate::{IngestError, Result};

/// Parsed `dataset.toml`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// `[dataset] name` — overrides the directory-derived database name.
    pub name: Option<String>,
    /// `[discovery] enabled` — `false` turns containment discovery off
    /// (pinned joins only).
    pub discovery_enabled: Option<bool>,
    /// `[discovery] min_containment` threshold override.
    pub min_containment: Option<f64>,
    /// `[discovery] min_to_uniqueness` threshold override.
    pub min_to_uniqueness: Option<f64>,
    /// `[discovery] min_to_coverage` threshold override.
    pub min_to_coverage: Option<f64>,
    /// `[discovery] max_joins` — cap on accepted discovered joins.
    pub max_joins: Option<usize>,
    /// Per-table pins, keyed by table (= file stem) name.
    pub tables: BTreeMap<String, TableManifest>,
    /// Pinned join conditions.
    pub joins: Vec<ManifestJoin>,
}

/// Per-table manifest section (`[tables.<name>]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableManifest {
    /// Pinned primary-key columns (in key order).
    pub key: Option<Vec<String>>,
    /// Columns pinned to the categorical kind.
    pub categorical: Vec<String>,
    /// Columns pinned to the numeric kind.
    pub numeric: Vec<String>,
}

/// One pinned join condition (`[[joins]]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManifestJoin {
    /// Referencing relation.
    pub from_table: String,
    /// Referencing attributes.
    pub from_columns: Vec<String>,
    /// Referenced relation (may equal `from_table` for self-joins).
    pub to_table: String,
    /// Referenced attributes (pairs with `from_columns` positionally).
    pub to_columns: Vec<String>,
}

/// Which manifest section a parsed line belongs to.
#[derive(Debug, Clone, PartialEq)]
enum Section {
    None,
    Dataset,
    Discovery,
    Table(String),
    Join,
    /// A recognized-but-unknown section; keys are ignored (forward
    /// compatibility) rather than rejected.
    Unknown,
}

impl Manifest {
    /// Parses manifest text. Unknown sections and keys are ignored;
    /// structurally malformed lines are errors with their line number.
    pub fn parse(text: &str) -> Result<Manifest> {
        let mut m = Manifest::default();
        let mut section = Section::None;
        for (idx, raw_line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw_line).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix("[[") {
                let name = header.trim_end_matches("]]").trim();
                if name.len() + 4 != line.len() {
                    return err(lineno, "malformed [[section]] header");
                }
                section = match name {
                    "joins" => {
                        m.joins.push(ManifestJoin::default());
                        Section::Join
                    }
                    _ => Section::Unknown,
                };
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header.trim_end_matches(']').trim();
                if name.len() + 2 != line.len() {
                    return err(lineno, "malformed [section] header");
                }
                section = match name.split_once('.') {
                    None if name == "dataset" => Section::Dataset,
                    None if name == "discovery" => Section::Discovery,
                    Some(("tables", table)) if !table.is_empty() => {
                        Section::Table(table.to_string())
                    }
                    _ => Section::Unknown,
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(lineno, "expected `key = value` or a [section] header");
            };
            let key = key.trim();
            let value = Value::parse(value.trim(), lineno)?;
            m.apply(&section, key, value, lineno)?;
        }
        Ok(m)
    }

    fn apply(&mut self, section: &Section, key: &str, value: Value, lineno: usize) -> Result<()> {
        match section {
            Section::Dataset => {
                if key == "name" {
                    self.name = Some(value.into_str(lineno)?);
                }
            }
            Section::Discovery => match key {
                "enabled" => self.discovery_enabled = Some(value.into_bool(lineno)?),
                "min_containment" => self.min_containment = Some(value.into_share(key, lineno)?),
                "min_to_uniqueness" => {
                    self.min_to_uniqueness = Some(value.into_share(key, lineno)?)
                }
                "min_to_coverage" => self.min_to_coverage = Some(value.into_share(key, lineno)?),
                "max_joins" => self.max_joins = Some(value.into_count(key, lineno)?),
                _ => {}
            },
            Section::Table(table) => {
                let t = self.tables.entry(table.clone()).or_default();
                match key {
                    "key" => t.key = Some(value.into_str_array(lineno)?),
                    "categorical" => t.categorical = value.into_str_array(lineno)?,
                    "numeric" => t.numeric = value.into_str_array(lineno)?,
                    _ => {}
                }
            }
            Section::Join => {
                let j = self
                    .joins
                    .last_mut()
                    .expect("Section::Join implies a pushed join");
                match key {
                    "from_table" => j.from_table = value.into_str(lineno)?,
                    "to_table" => j.to_table = value.into_str(lineno)?,
                    "from_columns" => j.from_columns = value.into_str_array(lineno)?,
                    "to_columns" => j.to_columns = value.into_str_array(lineno)?,
                    _ => {}
                }
            }
            Section::None => {
                return err(lineno, "key outside of any [section]");
            }
            Section::Unknown => {}
        }
        Ok(())
    }

    /// Structural validation of the pinned joins (columns pair up,
    /// tables named). Existence against the loaded schemas is checked
    /// later by schema-graph validation.
    pub fn validate(&self) -> Result<()> {
        for (i, j) in self.joins.iter().enumerate() {
            if j.from_table.is_empty() || j.to_table.is_empty() {
                return err(0, &format!("[[joins]] #{}: missing table name", i + 1));
            }
            if j.from_columns.is_empty() || j.from_columns.len() != j.to_columns.len() {
                return err(
                    0,
                    &format!(
                        "[[joins]] #{} ({} → {}): from_columns and to_columns must be \
                         equal-length and non-empty",
                        i + 1,
                        j.from_table,
                        j.to_table
                    ),
                );
            }
        }
        Ok(())
    }

    /// The pinned kind for `table.column`, if any.
    pub fn pinned_kind(&self, table: &str, column: &str) -> Option<cajade_storage::AttrKind> {
        let t = self.tables.get(table)?;
        if t.categorical.iter().any(|c| c == column) {
            Some(cajade_storage::AttrKind::Categorical)
        } else if t.numeric.iter().any(|c| c == column) {
            Some(cajade_storage::AttrKind::Numeric)
        } else {
            None
        }
    }
}

fn err<T>(line: usize, msg: &str) -> Result<T> {
    Err(IngestError::Manifest {
        line,
        msg: msg.to_string(),
    })
}

/// Strips a `#` comment, honouring quoted strings (with `\"` escapes).
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits an array body on top-level commas, honouring quoted strings
/// (with `\"` escapes) so a comma inside a name does not split an item.
fn split_array_items(body: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut in_quotes = false;
    let mut escaped = false;
    let mut start = 0;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&body[start..]);
    items
}

/// Undoes [`crate::export`]'s string escaping (`\"` and `\\`).
fn unescape(s: &str, lineno: usize) -> Result<String> {
    if !s.contains('\\') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            other => {
                return err(
                    lineno,
                    &format!("unsupported escape `\\{}`", other.unwrap_or(' ')),
                )
            }
        }
    }
    Ok(out)
}

/// A scalar or string-array manifest value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    Bool(bool),
    StrArray(Vec<String>),
}

impl Value {
    fn parse(text: &str, lineno: usize) -> Result<Value> {
        if let Some(body) = text.strip_prefix('[') {
            let body = body
                .strip_suffix(']')
                .ok_or_else(|| IngestError::Manifest {
                    line: lineno,
                    msg: "unterminated array".into(),
                })?
                .trim();
            let mut items = Vec::new();
            if !body.is_empty() {
                for item in split_array_items(body) {
                    let item = item.trim();
                    if item.is_empty() {
                        continue; // trailing comma
                    }
                    match Value::parse(item, lineno)? {
                        Value::Str(s) => items.push(s),
                        _ => {
                            return err(lineno, "arrays may contain only quoted strings");
                        }
                    }
                }
            }
            return Ok(Value::StrArray(items));
        }
        if let Some(body) = text.strip_prefix('"') {
            let body = body
                .strip_suffix('"')
                .ok_or_else(|| IngestError::Manifest {
                    line: lineno,
                    msg: "unterminated string".into(),
                })?;
            return Ok(Value::Str(unescape(body, lineno)?));
        }
        match text {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            _ => {}
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| IngestError::Manifest {
                line: lineno,
                msg: format!("unrecognized value `{text}`"),
            })
    }

    fn into_str(self, lineno: usize) -> Result<String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => err(lineno, "expected a quoted string"),
        }
    }

    fn into_f64(self, lineno: usize) -> Result<f64> {
        match self {
            Value::Num(n) => Ok(n),
            _ => err(lineno, "expected a number"),
        }
    }

    /// A threshold: a finite number in [0, 1]. `nan` would switch its
    /// filter off (every comparison with it is false).
    fn into_share(self, key: &str, lineno: usize) -> Result<f64> {
        match self.into_f64(lineno)? {
            n if (0.0..=1.0).contains(&n) => Ok(n),
            n => err(
                lineno,
                &format!("{key} must be a number in [0, 1], not {n:?}"),
            ),
        }
    }

    /// A count: a non-negative integer that `usize` holds exactly.
    fn into_count(self, key: &str, lineno: usize) -> Result<usize> {
        match self.into_f64(lineno)? {
            n if n >= 0.0 && n.fract() == 0.0 && n < usize::MAX as f64 => Ok(n as usize),
            n => err(
                lineno,
                &format!("{key} must be a non-negative integer, not {n:?}"),
            ),
        }
    }

    fn into_bool(self, lineno: usize) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(b),
            _ => err(lineno, "expected true or false"),
        }
    }

    fn into_str_array(self, lineno: usize) -> Result<Vec<String>> {
        match self {
            Value::StrArray(items) => Ok(items),
            _ => err(lineno, "expected an array of quoted strings"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_manifest_round_trip() {
        let text = r#"
# retail demo
[dataset]
name = "retail"

[discovery]
enabled = true
min_containment = 0.9   # relaxed
max_joins = 8

[tables.stores]
key = ["store_id"]
categorical = ["zip"]

[tables.sales]
numeric = ["amount"]

[[joins]]
from_table = "sales"
from_columns = ["store_id"]
to_table = "stores"
to_columns = ["store_id"]

[[joins]]
from_table = "stats"
from_columns = ["game_date", "home_id"]
to_table = "game"
to_columns = ["game_date", "home_id"]
"#;
        let m = Manifest::parse(text).unwrap();
        m.validate().unwrap();
        assert_eq!(m.name.as_deref(), Some("retail"));
        assert_eq!(m.discovery_enabled, Some(true));
        assert_eq!(m.min_containment, Some(0.9));
        assert_eq!(m.max_joins, Some(8));
        assert_eq!(
            m.tables["stores"].key.as_deref(),
            Some(&["store_id".to_string()][..])
        );
        assert_eq!(
            m.pinned_kind("stores", "zip"),
            Some(cajade_storage::AttrKind::Categorical)
        );
        assert_eq!(
            m.pinned_kind("sales", "amount"),
            Some(cajade_storage::AttrKind::Numeric)
        );
        assert_eq!(m.pinned_kind("sales", "channel"), None);
        assert_eq!(m.joins.len(), 2);
        assert_eq!(m.joins[1].from_columns.len(), 2);
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        let cases = [
            ("[dataset]\nname = ", 2),
            ("stray = 1", 1),
            ("[dataset]\nname = \"unterminated", 2),
            ("[tables.t]\nkey = [\"a\"", 2),
            ("[tables.t]\nkey = [1, 2]", 2),
            ("[discovery]\nenabled = \"yes\"", 2),
        ];
        for (text, want_line) in cases {
            match Manifest::parse(text) {
                Err(IngestError::Manifest { line, .. }) => {
                    assert_eq!(line, want_line, "{text:?}")
                }
                other => panic!("{text:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn escaped_quotes_and_commas_round_trip() {
        let text = "[dataset]\nname = \"my \\\"prod\\\" data\"\n[tables.t]\nkey = [\"a,b\", \"c\\\\d\"]  # comment with \" quote\n";
        let m = Manifest::parse(text).unwrap();
        assert_eq!(m.name.as_deref(), Some("my \"prod\" data"));
        assert_eq!(
            m.tables["t"].key.as_deref(),
            Some(&["a,b".to_string(), "c\\d".to_string()][..])
        );
    }

    #[test]
    fn discovery_coverage_override_parses() {
        let m = Manifest::parse("[discovery]\nmin_to_coverage = 0.2\n").unwrap();
        assert_eq!(m.min_to_coverage, Some(0.2));
    }

    /// Every `[discovery]` threshold `value` is rejected at line 2.
    fn assert_thresholds_rejected(value: &str) {
        for key in ["min_containment", "min_to_uniqueness", "min_to_coverage"] {
            let text = format!("[discovery]\n{key} = {value}\n");
            match Manifest::parse(&text) {
                Err(IngestError::Manifest { line: 2, msg }) => {
                    assert!(msg.contains(key), "{text:?}: {msg}")
                }
                other => panic!("{text:?} → {other:?}"),
            }
        }
    }

    /// `max_joins = value` is rejected at line 2.
    fn assert_max_joins_rejected(value: &str) {
        let text = format!("[discovery]\nmax_joins = {value}\n");
        match Manifest::parse(&text) {
            Err(IngestError::Manifest { line: 2, msg }) => {
                assert!(msg.contains("max_joins"), "{text:?}: {msg}")
            }
            other => panic!("{text:?} → {other:?}"),
        }
    }

    #[test]
    fn nan_threshold_is_rejected() {
        assert_thresholds_rejected("nan");
        assert_thresholds_rejected("NaN");
    }

    #[test]
    fn infinite_threshold_is_rejected() {
        assert_thresholds_rejected("inf");
        assert_thresholds_rejected("-infinity");
    }

    #[test]
    fn threshold_outside_the_unit_interval_is_rejected() {
        assert_thresholds_rejected("-0.1");
        assert_thresholds_rejected("1.5");
    }

    #[test]
    fn thresholds_at_the_unit_interval_bounds_parse() {
        let m = Manifest::parse("[discovery]\nmin_containment = 0\nmin_to_coverage = 1\n").unwrap();
        assert_eq!(m.min_containment, Some(0.0));
        assert_eq!(m.min_to_coverage, Some(1.0));
    }

    #[test]
    fn negative_max_joins_is_rejected() {
        assert_max_joins_rejected("-3");
    }

    #[test]
    fn fractional_max_joins_is_rejected() {
        assert_max_joins_rejected("2.5");
    }

    #[test]
    fn infinite_or_nan_max_joins_is_rejected() {
        assert_max_joins_rejected("inf");
        assert_max_joins_rejected("nan");
        assert_max_joins_rejected("1e300");
    }

    #[test]
    fn zero_max_joins_parses() {
        let m = Manifest::parse("[discovery]\nmax_joins = 0\n").unwrap();
        assert_eq!(m.max_joins, Some(0));
    }

    #[test]
    fn unknown_sections_and_keys_are_ignored() {
        let m = Manifest::parse("[future]\nshiny = true\n[dataset]\nbogus = 1\nname = \"x\"\n")
            .unwrap();
        assert_eq!(m.name.as_deref(), Some("x"));
    }

    #[test]
    fn join_validation_catches_arity_mismatch() {
        let text = "[[joins]]\nfrom_table = \"a\"\nto_table = \"b\"\nfrom_columns = [\"x\"]\nto_columns = []\n";
        let m = Manifest::parse(text).unwrap();
        assert!(m.validate().is_err());
    }
}
