//! Adversarial CSV directories: `ingest_dir` never panics, and every
//! directory it refuses is answered through `protocol::handle_line`'s
//! `register` as a well-formed `ingest` error.
//!
//! Each case is a fresh temporary directory holding one CSV file of
//! arbitrary records — cells heavy in quotes, commas, line ends,
//! number-like text and byte-order marks, and in one file of four an
//! invalid UTF-8 sequence — and, half of the time, a `dataset.toml` of
//! arbitrary sections, keys and values. Both the lenient and the
//! strict mode run on it, in the library and through the protocol.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use cajade::ingest::{ingest_dir, IngestOptions};
use cajade::service::json::Json;
use cajade::service::{protocol, ExplanationService};
use proptest::collection::vec;
use proptest::prelude::*;

/// Cells, quoted and not: numbers of every lattice type, the texts
/// `f64` also accepts, embedded separators, stray quotes, a byte-order
/// mark and a multi-byte character.
const CELLS: &[&str] = &[
    "",
    "",
    "1",
    "2",
    "-7",
    "3.5",
    "1e3",
    "nan",
    "inf",
    "x",
    "y",
    " ",
    " 4 ",
    "\"q,r\"",
    "\"a\"\"b\"",
    "\"multi\nline\"",
    "\"",
    "x\"y",
    "\u{feff}",
    "é",
    "\r",
];

/// Record ends: newline, CRLF, none (two records run together), a blank
/// line.
const ENDS: &[&str] = &["\n", "\n", "\r\n", "", "\n\n"];

/// Byte sequences that are invalid UTF-8 wherever they land (or split a
/// character they land in).
const INVALID: &[&[u8]] = &[b"\xff", b"\x80", b"\xc3", b"\xe2\x82"];

/// Manifest section headers, well-formed and not.
const SECTIONS: &[&str] = &[
    "[dataset]",
    "[discovery]",
    "[tables.t]",
    "[tables.x]",
    "[[joins]]",
    "[future]",
    "[tables.]",
    "[[joins]",
    "[",
];

/// Every key the manifest parser knows, and one it does not.
const KEYS: &[&str] = &[
    "name",
    "enabled",
    "min_containment",
    "min_to_uniqueness",
    "min_to_coverage",
    "max_joins",
    "key",
    "categorical",
    "numeric",
    "from_table",
    "to_table",
    "from_columns",
    "to_columns",
    "shiny",
];

/// Values of every manifest type, and the numbers it must refuse.
const VALUES: &[&str] = &[
    "\"t\"",
    "\"a\"",
    "\"x\\\"y\"",
    "[\"a\"]",
    "[\"a\", \"b\"]",
    "[\"id\", \"zzz\"]",
    "[]",
    "0",
    "0.5",
    "1",
    "3",
    "-1",
    "2.5",
    "nan",
    "inf",
    "-inf",
    "1e300",
    "true",
    "false",
    "\"unterminated",
    "[\"a\"",
    "",
];

fn csv_bytes() -> impl Strategy<Value = Vec<u8>> {
    let row = (vec(0..CELLS.len(), 0..5), 0..ENDS.len());
    (
        any::<bool>(),
        vec(row, 0..12),
        (0u8..4, any::<u32>(), 0..INVALID.len()),
    )
        .prop_map(|(header, rows, (splice, at, which))| {
            let mut text = String::from(if header { "a,b,id\n" } else { "" });
            for (cells, end) in rows {
                let cells: Vec<&str> = cells.iter().map(|&c| CELLS[c]).collect();
                text.push_str(&cells.join(","));
                text.push_str(ENDS[end]);
            }
            let mut bytes = text.into_bytes();
            // One file in four gets an invalid byte sequence.
            if splice == 0 {
                let at = at as usize % (bytes.len() + 1);
                bytes.splice(at..at, INVALID[which].iter().copied());
            }
            bytes
        })
}

fn manifest() -> impl Strategy<Value = Option<String>> {
    let line = (0u8..4, 0..SECTIONS.len(), 0..KEYS.len(), 0..VALUES.len());
    (any::<bool>(), 0..SECTIONS.len(), vec(line, 0..10)).prop_map(|(present, first, lines)| {
        present.then(|| {
            let lines: Vec<String> = lines
                .into_iter()
                .map(|(kind, section, key, value)| match kind {
                    0 => SECTIONS[section].to_string(),
                    _ => format!("{} = {}", KEYS[key], VALUES[value]),
                })
                .collect();
            format!("{}\n{}", SECTIONS[first], lines.join("\n"))
        })
    })
}

/// A fresh directory holding `t.csv` and, if given, `dataset.toml`.
fn write_dir(csv: &[u8], manifest: Option<&str>) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cajade_ingest_adversarial_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("t.csv"), csv).unwrap();
    if let Some(text) = manifest {
        std::fs::write(dir.join("dataset.toml"), text).unwrap();
    }
    dir
}

fn service() -> &'static ExplanationService {
    static SERVICE: OnceLock<ExplanationService> = OnceLock::new();
    SERVICE.get_or_init(ExplanationService::default)
}

/// Ingests `dir` in the library and through the protocol, in both modes:
/// the protocol answers `ok` exactly when the library does, and every
/// refusal is an `ingest` error with a message.
fn check(dir: &std::path::Path) -> Result<(), TestCaseError> {
    for strict in [false, true] {
        let options = IngestOptions {
            strict_types: strict,
            ..IngestOptions::default()
        };
        let ingested = ingest_dir(dir, &options);
        let line = Json::obj([
            ("op", Json::str("register")),
            ("db", Json::str("adversarial")),
            ("source", Json::str("csv_dir")),
            ("path", Json::str(dir.display().to_string())),
            ("strict", Json::Bool(strict)),
        ])
        .render();
        let resp = protocol::handle_line(service(), &line);
        let rendered = resp.render();
        match ingested {
            Ok(_) => prop_assert!(resp.get("ok") == Some(&Json::Bool(true)), "{rendered}"),
            Err(e) => {
                prop_assert!(!e.to_string().is_empty());
                prop_assert!(resp.get("ok") == Some(&Json::Bool(false)), "{rendered}");
                let error = resp.get("error");
                let code = error.and_then(|e| e.get("code")).and_then(Json::as_str);
                let message = error.and_then(|e| e.get("message")).and_then(Json::as_str);
                prop_assert!(code == Some("ingest"), "{rendered}");
                prop_assert!(message.is_some_and(|m| !m.is_empty()), "{rendered}");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn arbitrary_csv_directories_are_ingested_or_refused_never_panicked_on(
        csv in csv_bytes(),
        manifest in manifest(),
    ) {
        let dir = write_dir(&csv, manifest.as_deref());
        let outcome = check(&dir);
        std::fs::remove_dir_all(&dir).ok();
        outcome?;
    }
}

/// A quoted field spanning 100 000 lines ingests: the reader that counted
/// every quote of the record so far after each line was quadratic here.
#[test]
fn quoted_field_spanning_100_000_lines_ingests() {
    let lines = 100_000;
    let csv = format!("id,notes\n1,\"{}\"\n2,short\n", "x\n".repeat(lines));
    let dir = write_dir(csv.as_bytes(), None);
    let ingested = ingest_dir(&dir, &IngestOptions::default());
    std::fs::remove_dir_all(&dir).ok();
    let ingested = ingested.unwrap();
    let table = ingested.db.table("t").unwrap();
    assert_eq!(table.num_rows(), 2);
    let notes = table.schema().field_index("notes").unwrap();
    let first = table.value(0, notes).render(ingested.db.pool());
    assert_eq!(first.len(), 2 * lines);
}
