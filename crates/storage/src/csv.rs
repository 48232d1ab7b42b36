//! CSV import/export — the adoption path for using CaJaDE on your own
//! data: load tables from CSV files, declare kinds/keys via the schema
//! (or let `cajade-ingest` infer them), and explain away.
//!
//! The dialect is RFC-4180-ish: comma-separated, double-quote quoting
//! with `""` escapes, `\n` or `\r\n` line ends, one header row, an
//! optional UTF-8 BOM. Empty fields parse as NULL for numeric columns
//! and as the empty string for string columns.
//!
//! [`CsvTokenizer`] is the one record reader. It walks a whole file's
//! bytes, held in memory and checked as UTF-8 once, and refills one
//! reusable [`Record`], so reading allocates nothing per line or per
//! cell. Both passes of the ingestion subsystem's load (infer, then
//! typed load) run on it.

use std::io::Write;

use crate::pool::StringPool;
use crate::schema::DataType;
use crate::table::Table;
use crate::value::Value;
use crate::{Result, StorageError};

/// Writes `table` as CSV with a header row.
pub fn write_csv<W: Write>(table: &Table, pool: &StringPool, out: &mut W) -> std::io::Result<()> {
    let header: Vec<String> = table
        .schema()
        .fields
        .iter()
        .map(|f| quote(&f.name))
        .collect();
    writeln!(out, "{}", header.join(","))?;
    for r in 0..table.num_rows() {
        let cells: Vec<String> = (0..table.num_columns())
            .map(|c| match table.value(r, c) {
                Value::Null => String::new(),
                Value::Str(id) => quote(pool.resolve(id)),
                v => v.render(pool),
            })
            .collect();
        writeln!(out, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Parses one CSV cell under a known [`DataType`]. Empty cells become
/// NULL for numeric columns and the empty string for string columns.
/// Returns `None` when the text does not parse as the requested type —
/// callers decide whether that is an error (the ingestion subsystem's
/// strict mode) or a coercion to NULL (its lenient mode).
pub fn parse_typed_cell(raw: &str, dtype: DataType, pool: &mut StringPool) -> Option<Value> {
    match dtype {
        DataType::Str => Some(Value::Str(pool.intern(raw))),
        DataType::Int => {
            let t = raw.trim();
            if t.is_empty() {
                Some(Value::Null)
            } else {
                t.parse::<i64>().ok().map(Value::Int)
            }
        }
        DataType::Float => {
            let t = raw.trim();
            if t.is_empty() {
                Some(Value::Null)
            } else {
                t.parse::<f64>().ok().map(Value::Float)
            }
        }
    }
}

fn quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The error an invalid UTF-8 byte gives, as `std::io` words it.
const INVALID_UTF8: &str = "stream did not contain valid UTF-8";

/// One CSV record: its unescaped fields back to back in one buffer, plus
/// each field's end offset. [`CsvTokenizer::next_record`] refills it, so
/// one `Record` serves a whole file and allocates only while a record
/// outgrows every earlier one.
#[derive(Debug, Clone, Default)]
pub struct Record {
    text: String,
    ends: Vec<usize>,
    line: u64,
}

impl Record {
    /// An empty record, ready to be filled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff the record has no field (only before the first fill).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th field, unescaped.
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.text[start..end])
    }

    /// The fields in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i).unwrap_or_default())
    }

    /// 1-based physical line where the record starts (0 for a record
    /// built from fields).
    pub fn line(&self) -> u64 {
        self.line
    }
}

impl<'a> FromIterator<&'a str> for Record {
    fn from_iter<I: IntoIterator<Item = &'a str>>(fields: I) -> Self {
        let mut rec = Record::new();
        for field in fields {
            rec.text.push_str(field);
            rec.ends.push(rec.text.len());
        }
        rec
    }
}

/// Tokenizes a CSV file's bytes, held in memory, into [`Record`]s.
///
/// Quoted fields may embed commas, `""`-escaped quotes and newlines: a
/// `\n` ends a record only outside quotes. Trailing `\r`/`\n` are trimmed
/// off each record, blank records are skipped, and a UTF-8 byte-order
/// mark at the head of the file is dropped.
///
/// The bytes are checked as UTF-8 once, up front. A file with an invalid
/// byte still yields every record before the line that holds it; the
/// record that reaches that line is a [`StorageError::Csv`] naming it.
#[derive(Debug, Clone)]
pub struct CsvTokenizer<'a> {
    /// The valid text: the whole file, or the lines before the first
    /// invalid byte.
    text: &'a str,
    /// Byte offset of the next record.
    pos: usize,
    /// 1-based physical line at `pos`.
    line: u64,
    /// The line holding the first invalid byte, if any.
    bad_line: Option<u64>,
}

impl<'a> CsvTokenizer<'a> {
    /// Checks `bytes` as UTF-8 and strips a leading byte-order mark.
    pub fn new(bytes: &'a [u8]) -> Self {
        let (text, bad_line) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, None),
            Err(e) => {
                let valid = &bytes[..e.valid_up_to()];
                let line_start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let text = std::str::from_utf8(&valid[..line_start])
                    .expect("a valid prefix cut after a newline is valid");
                (text, Some(1 + newlines(valid)))
            }
        };
        Self {
            text: text.strip_prefix('\u{feff}').unwrap_or(text),
            pos: 0,
            line: 1,
            bad_line,
        }
    }

    /// Fills `rec` with the next record. Returns `Ok(false)` at the end
    /// of the file.
    pub fn next_record(&mut self, rec: &mut Record) -> Result<bool> {
        let text = self.text;
        let bytes = text.as_bytes();
        loop {
            if self.pos == bytes.len() {
                return self.end_of_text().map(|()| false);
            }
            rec.text.clear();
            rec.ends.clear();
            rec.line = self.line;
            let mut i = self.pos;
            let mut in_quotes = false;
            let mut quoted = false;
            // Trailing `\r`/`\n` are trimmed back to here at most: the
            // last quote or comma.
            let mut keep = 0;
            loop {
                let start = i;
                if in_quotes {
                    while i < bytes.len() && bytes[i] != b'"' {
                        self.line += u64::from(bytes[i] == b'\n');
                        i += 1;
                    }
                } else {
                    while i < bytes.len() && !matches!(bytes[i], b',' | b'"' | b'\n') {
                        i += 1;
                    }
                }
                rec.text.push_str(&text[start..i]);
                if i == bytes.len() {
                    self.end_of_text()?;
                    break;
                }
                match bytes[i] {
                    b'"' if in_quotes && bytes.get(i + 1) == Some(&b'"') => {
                        rec.text.push('"');
                        i += 1;
                    }
                    b'"' => {
                        in_quotes = !in_quotes;
                        quoted = true;
                    }
                    b',' => rec.ends.push(rec.text.len()),
                    _ => {
                        self.line += 1;
                        i += 1;
                        break;
                    }
                }
                i += 1;
                keep = rec.text.len();
            }
            self.pos = i;
            while rec.text.len() > keep && rec.text.ends_with(['\r', '\n']) {
                rec.text.pop();
            }
            if rec.ends.is_empty() && !quoted && rec.text.is_empty() {
                continue; // a blank line
            }
            rec.ends.push(rec.text.len());
            return Ok(true);
        }
    }

    /// The end of the valid text: the end of the file, or the line with
    /// the invalid byte.
    fn end_of_text(&self) -> Result<()> {
        match self.bad_line {
            None => Ok(()),
            Some(line) => Err(StorageError::Csv {
                line,
                msg: INVALID_UTF8.into(),
            }),
        }
    }
}

fn newlines(bytes: &[u8]) -> u64 {
    bytes.iter().filter(|&&b| b == b'\n').count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrKind, Schema, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("t")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("name", DataType::Str, AttrKind::Categorical)
            .column("score", DataType::Float, AttrKind::Numeric)
            .build()
    }

    #[test]
    fn round_trip() {
        let mut pool = StringPool::new();
        let mut t = Table::new(schema());
        let a = pool.intern("plain");
        let b = pool.intern("with, comma and \"quotes\"");
        let c = pool.intern("line1\nline2");
        t.push_row(vec![Value::Int(1), Value::Str(a), Value::Float(0.5)])
            .unwrap();
        t.push_row(vec![Value::Int(2), Value::Str(b), Value::Null])
            .unwrap();
        t.push_row(vec![Value::Null, Value::Str(c), Value::Float(-3.0)])
            .unwrap();

        let mut buf = Vec::new();
        write_csv(&t, &pool, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("id,name,score\n"));
        assert!(text.contains("\"with, comma and \"\"quotes\"\"\""));

        let mut rows = CsvTokenizer::new(&buf);
        let mut rec = Record::new();
        assert!(rows.next_record(&mut rec).unwrap());
        assert_eq!(rec.iter().collect::<Vec<_>>(), ["id", "name", "score"]);
        let dtypes: Vec<DataType> = t.schema().fields.iter().map(|f| f.dtype).collect();
        let mut back = Vec::new();
        while rows.next_record(&mut rec).unwrap() {
            let row: Vec<Value> = (0..dtypes.len())
                .map(|c| parse_typed_cell(rec.get(c).unwrap(), dtypes[c], &mut pool).unwrap())
                .collect();
            back.push(row);
        }
        let want: Vec<Vec<Value>> = (0..t.num_rows())
            .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
            .collect();
        assert_eq!(back, want);
    }

    /// Every record of `csv` as `(line, fields)`.
    fn records(csv: &str) -> Vec<(u64, Vec<String>)> {
        let mut rows = CsvTokenizer::new(csv.as_bytes());
        let mut rec = Record::new();
        let mut out = Vec::new();
        while rows.next_record(&mut rec).unwrap() {
            out.push((rec.line(), rec.iter().map(str::to_string).collect()));
        }
        out
    }

    #[test]
    fn tokenizer_tracks_record_lines_across_embedded_newlines() {
        let csv = "id,name\n1,\"a\nb\"\n2,c\n";
        assert_eq!(
            records(csv),
            vec![
                (1, vec!["id".to_string(), "name".to_string()]),
                (2, vec!["1".to_string(), "a\nb".to_string()]),
                (4, vec!["2".to_string(), "c".to_string()]),
            ],
            "the quoted field consumed two lines"
        );
    }

    #[test]
    fn bom_and_crlf_are_transparent() {
        let csv = "\u{feff}id,name\r\n1,x\r\n";
        let fields: Vec<Vec<String>> = records(csv).into_iter().map(|(_, f)| f).collect();
        assert_eq!(fields, vec![vec!["id", "name"], vec!["1", "x"]]);
    }

    #[test]
    fn trailing_line_ends_are_trimmed_outside_the_last_quote_only() {
        let fields =
            |csv: &str| -> Vec<Vec<String>> { records(csv).into_iter().map(|(_, f)| f).collect() };
        assert_eq!(fields("a,\"b\r\"\r\r\n"), vec![vec!["a", "b\r"]]);
        // An unterminated quote runs to the end of the file, which is
        // trimmed like any record's end.
        assert_eq!(fields("a,\"b\nc\n\n"), vec![vec!["a", "b\nc"]]);
        // A line of `\r`s is blank; a line holding only `""` is not.
        assert_eq!(fields("\r\n\"\"\n"), vec![vec![""]]);
    }

    #[test]
    fn invalid_utf8_fails_at_its_line_after_the_records_before_it() {
        let mut bytes = b"id,name\n1,\"a\nb\"\n2,".to_vec();
        bytes.push(0xff);
        bytes.extend_from_slice(b"\n3,c\n");
        let mut rows = CsvTokenizer::new(&bytes);
        let mut rec = Record::new();
        assert!(rows.next_record(&mut rec).unwrap());
        assert!(rows.next_record(&mut rec).unwrap());
        assert_eq!(rec.get(1), Some("a\nb"));
        let err = rows.next_record(&mut rec).unwrap_err();
        assert_eq!(
            err,
            StorageError::Csv {
                line: 4,
                msg: INVALID_UTF8.into()
            }
        );
    }

    #[test]
    fn quoted_field_spanning_many_lines_is_linear() {
        let lines = 200_000;
        let csv = format!("id,notes\n1,\"{}\"\n2,x\n", "line\n".repeat(lines));
        let got = records(&csv);
        assert_eq!(got.len(), 3);
        assert_eq!(got[1].1[1].len(), 5 * lines);
        assert_eq!(got[2].0, 3 + lines as u64);
    }
}
