//! `CsvTokenizer` against the line reader it replaced.
//!
//! The oracle below is that reader, kept verbatim: it read one physical
//! line at a time with `BufRead::read_line`, counted the quotes of the
//! whole accumulated record after every line to decide whether a newline
//! was quoted, then split the record. The tokenizer reads the same bytes
//! in one pass over the file. On arbitrary text — heavy in `"`, `,`,
//! `\r`, `\n`, byte-order marks and multi-byte characters, with invalid
//! UTF-8 bytes mixed in — both must yield the same records, the same
//! fields, the same starting lines and, at an invalid byte, the same
//! error.

use std::io::BufRead;

use cajade_storage::csv::{CsvTokenizer, Record};
use cajade_storage::{Result, StorageError};
use proptest::collection::vec;
use proptest::prelude::*;

/// Streaming CSV record reader supporting quoted fields with embedded
/// commas, quotes, and newlines, plus CRLF line ends and a UTF-8 BOM.
///
/// Tracks physical line numbers so parse failures can be reported
/// against the source file ([`StorageError::Csv`]). Blank lines between
/// records are skipped.
pub struct CsvReader<R: BufRead> {
    input: R,
    /// Physical lines consumed so far.
    lines_read: u64,
    /// Line where the most recently returned record started.
    record_line: u64,
    first: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// Wraps a buffered reader.
    pub fn new(input: R) -> Self {
        Self {
            input,
            lines_read: 0,
            record_line: 0,
            first: true,
        }
    }

    /// 1-based physical line where the last record returned by
    /// [`next_row`](Self::next_row) started (0 before the first record).
    pub fn record_line(&self) -> u64 {
        self.record_line
    }

    /// Reads the next logical record (which may span multiple physical
    /// lines when a quoted field embeds newlines). Returns `Ok(None)` at
    /// end of input.
    pub fn next_row(&mut self) -> Result<Option<Vec<String>>> {
        loop {
            let mut raw = String::new();
            let start_line = self.lines_read + 1;
            // Accumulate physical lines until quotes balance (embedded \n).
            loop {
                let mut line = String::new();
                let n = self
                    .input
                    .read_line(&mut line)
                    .map_err(|e| StorageError::Csv {
                        line: self.lines_read + 1,
                        msg: e.to_string(),
                    })?;
                if n == 0 {
                    if raw.is_empty() {
                        return Ok(None);
                    }
                    break;
                }
                self.lines_read += 1;
                if self.first {
                    // Strip a UTF-8 byte-order mark from the head of the file.
                    if let Some(rest) = line.strip_prefix('\u{feff}') {
                        line = rest.to_string();
                    }
                    self.first = false;
                }
                raw.push_str(&line);
                if raw.matches('"').count().is_multiple_of(2) {
                    break;
                }
            }
            let raw = raw.trim_end_matches(['\n', '\r']);
            if raw.is_empty() {
                // Skip blank lines between records.
                continue;
            }
            self.record_line = start_line;
            return Ok(Some(split_record(raw)));
        }
    }
}

/// Splits one logical record into fields, honouring quoting.
fn split_record(raw: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = raw.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// What a reader made of a file: `(record line, fields)` per record,
/// then the error that stopped it, if any.
type Outcome = (Vec<(u64, Vec<String>)>, Option<StorageError>);

fn oracle(bytes: &[u8]) -> Outcome {
    let mut reader = CsvReader::new(bytes);
    let mut records = Vec::new();
    loop {
        match reader.next_row() {
            Ok(Some(fields)) => records.push((reader.record_line(), fields)),
            Ok(None) => return (records, None),
            Err(e) => return (records, Some(e)),
        }
    }
}

fn tokenized(bytes: &[u8]) -> Outcome {
    let mut rows = CsvTokenizer::new(bytes);
    let mut rec = Record::new();
    let mut records = Vec::new();
    loop {
        match rows.next_record(&mut rec) {
            Ok(true) => records.push((rec.line(), rec.iter().map(str::to_string).collect())),
            Ok(false) => return (records, None),
            Err(e) => return (records, Some(e)),
        }
    }
}

/// The alphabet, structural characters first and repeated so that they
/// dominate.
const PIECES: &[&str] = &[
    "\"", "\"", "\"", ",", ",", ",", "\n", "\n", "\r", "\r\n", "\"\"", "\u{feff}", "a", "b", "7",
    " ", "é", "中", "😀", "\t",
];

/// Bytes that are never valid where they land, or only sometimes (a
/// lead byte missing its continuation, a stray continuation byte).
const INVALID: &[&[u8]] = &[b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"];

fn text() -> impl Strategy<Value = String> {
    vec(0..PIECES.len(), 0..64).prop_map(|picks| picks.iter().map(|&i| PIECES[i]).collect())
}

/// Text with invalid byte sequences spliced in at arbitrary offsets
/// (which may also split a multi-byte character).
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    (text(), vec((any::<u32>(), 0..INVALID.len()), 1..4)).prop_map(|(text, splices)| {
        let mut bytes = text.into_bytes();
        for (at, which) in splices {
            let at = at as usize % (bytes.len() + 1);
            bytes.splice(at..at, INVALID[which].iter().copied());
        }
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    fn tokenizer_matches_the_line_reader_on_text(text in text()) {
        prop_assert_eq!(tokenized(text.as_bytes()), oracle(text.as_bytes()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]
    #[test]
    fn tokenizer_matches_the_line_reader_on_invalid_utf8(bytes in bytes()) {
        // A splice may also complete a character, so check validity.
        let (records, error) = tokenized(&bytes);
        prop_assert_eq!(error.is_some(), std::str::from_utf8(&bytes).is_err());
        prop_assert_eq!((records, error), oracle(&bytes));
    }
}

/// The shapes the generators hit only by chance, spelled out.
#[test]
fn tokenizer_matches_the_line_reader_on_edge_cases() {
    for case in [
        "",
        "\n\n",
        "\u{feff}",
        "\u{feff}\u{feff}a\n",
        "a\n\u{feff}b\n",
        "a,b\r\n\r\n,\n",
        "\"\"",
        "\"",
        "\"a\n\n",
        "a\"b,c\nd\"e\n",
        "\"a\"\"\"b,\"\"\"\"\n",
        "a,\"b\r\"\r\r\n\r",
        "x\r",
        "\r\r\n\r",
    ] {
        assert_eq!(
            tokenized(case.as_bytes()),
            oracle(case.as_bytes()),
            "{case:?}"
        );
    }
}
