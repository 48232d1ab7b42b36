//! Ingestion of messy real-world CSV: quoting, ragged rows, type
//! promotion, null semantics, BOMs, CRLF, and manifest overrides.

use std::path::{Path, PathBuf};

use cajade_ingest::{IngestError, IngestOptions, IngestedDataset};
use cajade_storage::{AttrKind, DataType, StorageError, Value};

/// [`cajade_ingest::ingest_dir`] under the fault plan's test guard. The
/// plan is process-global and tests run on parallel threads: an unguarded
/// call can consume the `ingest.load` fire that
/// `lenient_mode_skips_files_that_fail_mid_load` armed for its own.
fn ingest_dir(
    dir: impl AsRef<Path>,
    options: &IngestOptions,
) -> Result<IngestedDataset, IngestError> {
    let _guard = cajade_obs::faults::test_guard();
    cajade_ingest::ingest_dir(dir, options)
}

/// Self-cleaning fixture directory.
struct Fixture(PathBuf);

impl Fixture {
    fn new(name: &str, files: &[(&str, &str)]) -> Fixture {
        let dir = std::env::temp_dir().join(format!("cajade_messy_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for (file, content) in files {
            std::fs::write(dir.join(file), content).unwrap();
        }
        Fixture(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn quoted_fields_with_embedded_newlines_and_commas() {
    let fx = Fixture::new(
        "quotes",
        &[(
            "notes.csv",
            "id,note\n1,\"line one\nline two\"\n2,\"has, comma and \"\"quotes\"\"\"\n3,plain\n",
        )],
    );
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    let t = out.db.table("notes").unwrap();
    assert_eq!(t.num_rows(), 3);
    let resolve = |r: usize| match t.value(r, 1) {
        Value::Str(id) => out.db.resolve(id).to_string(),
        other => panic!("{other:?}"),
    };
    assert_eq!(resolve(0), "line one\nline two");
    assert_eq!(resolve(1), "has, comma and \"quotes\"");
    assert_eq!(out.report.tables[0].ragged_rows, 0);
}

#[test]
fn ragged_rows_pad_truncate_and_count() {
    let fx = Fixture::new(
        "ragged",
        &[(
            "r.csv",
            "id,name,score\n1,a,10\n2,b\n3,c,30,EXTRA\n4,d,40\n",
        )],
    );
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    let t = out.db.table("r").unwrap();
    assert_eq!(t.num_rows(), 4);
    assert_eq!(out.report.tables[0].ragged_rows, 2);
    // Short row: missing score is NULL. Long row: extra field dropped.
    assert_eq!(t.value(1, 2), Value::Null);
    assert_eq!(t.value(2, 2), Value::Int(30));
    assert!(
        out.report.warnings.iter().any(|w| w.contains("ragged")),
        "{:?}",
        out.report.warnings
    );
}

#[test]
fn mixed_int_float_promotes_to_float() {
    let fx = Fixture::new("promote", &[("m.csv", "id,v\n1,1\n2,2.5\n3,3\n")]);
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    let t = out.db.table("m").unwrap();
    let f = t.schema().field("v").unwrap();
    assert_eq!(f.dtype, DataType::Float);
    assert_eq!(f.kind, AttrKind::Numeric);
    assert_eq!(t.value(0, 1), Value::Float(1.0));
    assert_eq!(t.value(1, 1), Value::Float(2.5));
}

#[test]
fn empty_string_vs_null_semantics() {
    let fx = Fixture::new("nulls", &[("n.csv", "id,label,score\n1,,\n2,x,5\n3,,7\n")]);
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    let t = out.db.table("n").unwrap();
    // String column: empty cell is the empty string, not NULL.
    match t.value(0, 1) {
        Value::Str(id) => assert_eq!(out.db.resolve(id), ""),
        other => panic!("{other:?}"),
    }
    // Numeric column: empty cell is NULL and doesn't break Int inference.
    assert_eq!(t.schema().field("score").unwrap().dtype, DataType::Int);
    assert_eq!(t.value(0, 2), Value::Null);
    assert_eq!(t.value(1, 2), Value::Int(5));
}

#[test]
fn bom_and_crlf_are_handled() {
    let fx = Fixture::new(
        "bom",
        &[("b.csv", "\u{feff}id,name\r\n1,alpha\r\n2,beta\r\n")],
    );
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    let t = out.db.table("b").unwrap();
    // The BOM must not glue itself onto the first header name.
    assert_eq!(t.schema().fields[0].name, "id");
    assert_eq!(t.num_rows(), 2);
    assert_eq!(t.value(1, 0), Value::Int(2));
}

#[test]
fn manifest_override_beats_wrong_inference() {
    // `zip` ingests as an Int measure without help (many distinct values,
    // not id-named); the manifest pins it categorical and keys the table
    // on it.
    let zips: String = (0..40)
        .map(|i| format!("{},{}\n", 10000 + i * 7, (i % 4) * 25))
        .collect();
    let with_manifest = Fixture::new(
        "override",
        &[
            ("areas.csv", &*format!("zip,tax\n{zips}")),
            (
                "dataset.toml",
                "[tables.areas]\nkey = [\"zip\"]\ncategorical = [\"zip\"]\n",
            ),
        ],
    );
    let out = ingest_dir(with_manifest.path(), &IngestOptions::default()).unwrap();
    let schema = out.db.table("areas").unwrap().schema().clone();
    assert_eq!(schema.field("zip").unwrap().kind, AttrKind::Categorical);
    assert_eq!(schema.primary_key(), vec!["zip"]);
    assert!(out.report.manifest_used);
    assert!(out.report.tables[0].key_pinned);

    // Control: without the manifest the same data stays a measure (it is
    // unique, so it would be *keyed*, but the kind pin is what forces
    // equality-only mining semantics).
    let bare = Fixture::new(
        "override_bare",
        &[("areas.csv", &*format!("zip,tax\n{zips}"))],
    );
    let out = ingest_dir(bare.path(), &IngestOptions::default()).unwrap();
    let schema = out.db.table("areas").unwrap().schema().clone();
    assert_eq!(
        schema.field("zip").unwrap().kind,
        AttrKind::Categorical,
        "unique key columns are categorical even un-pinned"
    );
    assert!(!out.report.manifest_used);
}

#[test]
fn post_sample_type_clash_lenient_vs_strict() {
    // The sampling window sees only integers; row 6 is text.
    let mut csv = String::from("id,v\n");
    for i in 0..5 {
        csv.push_str(&format!("{i},{}\n", i * 10));
    }
    csv.push_str("5,oops\n");
    let options = |strict: bool| IngestOptions {
        strict_types: strict,
        infer: cajade_ingest::InferConfig {
            sample_rows: 5,
            ..Default::default()
        },
        ..Default::default()
    };

    let fx = Fixture::new("clash_lenient", &[("t.csv", &*csv)]);
    let out = ingest_dir(fx.path(), &options(false)).unwrap();
    let t = out.db.table("t").unwrap();
    assert_eq!(t.schema().field("v").unwrap().dtype, DataType::Int);
    assert_eq!(t.value(5, 1), Value::Null, "lenient mode coerces to NULL");
    assert_eq!(out.report.tables[0].coerced_nulls, 1);
    assert!(out.report.warnings.iter().any(|w| w.contains("coerced")));

    let fx = Fixture::new("clash_strict", &[("t.csv", &*csv)]);
    let err = ingest_dir(fx.path(), &options(true)).unwrap_err();
    match err {
        IngestError::Storage {
            table,
            source: StorageError::TypeInference { column, msg },
        } => {
            assert_eq!(table, "t");
            assert_eq!(column, "v");
            assert!(msg.contains("line 7"), "{msg}");
            assert!(msg.contains("oops"), "{msg}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn whitespace_only_cells_are_null_not_str() {
    let fx = Fixture::new("whitespace", &[("w.csv", "id,amount\n1,10\n2,   \n3,30\n")]);
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    let t = out.db.table("w").unwrap();
    // A space-padded gap must not demote the column to Str.
    assert_eq!(t.schema().field("amount").unwrap().dtype, DataType::Int);
    assert_eq!(t.value(1, 1), Value::Null);
    assert_eq!(out.report.tables[0].coerced_nulls, 0);
}

#[test]
fn manifest_pin_naming_unknown_column_errors() {
    let fx = Fixture::new(
        "badpin",
        &[
            ("sales.csv", "sale_id,amount\n1,10\n2,20\n"),
            ("dataset.toml", "[tables.sales]\nkey = [\"sale_ID\"]\n"),
        ],
    );
    let err = ingest_dir(fx.path(), &IngestOptions::default()).unwrap_err();
    match err {
        IngestError::Manifest { msg, .. } => {
            assert!(msg.contains("sale_ID"), "{msg}");
            assert!(msg.contains("sale_id"), "suggests the real columns: {msg}");
        }
        other => panic!("{other:?}"),
    }

    // Pins for a table with no CSV file only warn.
    let fx = Fixture::new(
        "ghostpin",
        &[
            ("sales.csv", "sale_id,amount\n1,10\n2,20\n"),
            ("dataset.toml", "[tables.ghost]\nkey = [\"x\"]\n"),
        ],
    );
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    assert!(
        out.report.warnings.iter().any(|w| w.contains("ghost")),
        "{:?}",
        out.report.warnings
    );
}

#[test]
fn explicit_max_joins_beats_manifest_budget() {
    // Two genuine FKs; the manifest caps discovery at 1 and the explicit
    // option must be able to raise it back.
    // Disjoint id ranges so the only containments are the two true FKs.
    let mut facts = String::from("fact_id,a_id,b_id\n");
    for i in 0..30 {
        facts.push_str(&format!("{i},{},{}\n", 100 + i % 5, 200 + i % 7));
    }
    let a: String = (0..5).map(|i| format!("{},x{i}\n", 100 + i)).collect();
    let b: String = (0..7).map(|i| format!("{},y{i}\n", 200 + i)).collect();
    let files = [
        ("facts.csv", &*facts),
        ("a.csv", &*format!("a_id,name\n{a}")),
        ("b.csv", &*format!("b_id,name\n{b}")),
        ("dataset.toml", "[discovery]\nmax_joins = 1\n"),
    ];

    let fx = Fixture::new("budget_manifest", &files);
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    assert_eq!(out.report.discovered_join_count(), 1);
    assert!(
        out.report
            .warnings
            .iter()
            .any(|w| w.contains("budget") && w.contains("1 viable")),
        "{:?}",
        out.report.warnings
    );

    let fx = Fixture::new("budget_explicit", &files);
    let out = ingest_dir(
        fx.path(),
        &IngestOptions {
            max_discovered_joins: Some(10),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(out.report.discovered_join_count(), 2);
    assert!(!out.report.warnings.iter().any(|w| w.contains("budget")));
}

#[test]
fn empty_directory_and_unreadable_files_error_cleanly() {
    let fx = Fixture::new("empty", &[("README.md", "not a csv\n")]);
    let err = ingest_dir(fx.path(), &IngestOptions::default()).unwrap_err();
    assert!(matches!(err, IngestError::EmptyDirectory(_)));

    let err = ingest_dir("/nonexistent/cajade/path", &IngestOptions::default()).unwrap_err();
    assert!(matches!(err, IngestError::Io { .. }));
}

#[test]
fn duplicate_header_names_error_with_line() {
    // Strict mode aborts the whole ingestion and pinpoints the line.
    let fx = Fixture::new("dupheader", &[("d.csv", "id,id\n1,2\n")]);
    let strict = IngestOptions {
        strict_types: true,
        ..Default::default()
    };
    let err = ingest_dir(fx.path(), &strict).unwrap_err();
    match err {
        IngestError::Storage {
            source: StorageError::Csv { line, msg },
            ..
        } => {
            assert_eq!(line, 1);
            assert!(msg.contains("duplicate"), "{msg}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn lenient_mode_skips_corrupt_file_and_keeps_the_rest() {
    // Default (lenient) mode: the corrupt-header file is skipped with a
    // warning and the good file still loads.
    let fx = Fixture::new(
        "dupheader_lenient",
        &[("d.csv", "id,id\n1,2\n"), ("ok.csv", "id,v\n1,10\n2,20\n")],
    );
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    assert_eq!(out.report.tables.len(), 1);
    assert_eq!(out.report.tables[0].name, "ok");
    assert!(
        out.report
            .warnings
            .iter()
            .any(|w| w.contains("d.csv") && w.contains("skipped")),
        "{:?}",
        out.report.warnings
    );

    // If every file is corrupt, lenient mode still fails cleanly rather
    // than returning an empty database.
    let fx = Fixture::new("dupheader_all_bad", &[("d.csv", "id,id\n1,2\n")]);
    let err = ingest_dir(fx.path(), &IngestOptions::default()).unwrap_err();
    assert!(matches!(err, IngestError::EmptyDirectory(_)));
}

#[test]
fn lenient_mode_skips_files_that_fail_mid_load() {
    // A mid-file I/O failure (simulated via the fault-injection harness)
    // hits `a.csv` during the typed load; lenient mode skips the table and
    // leaves no partial load behind, strict mode aborts. The guard is
    // held across arm → ingest → clear, so the calls go to the crate's
    // function, not the guarded wrapper.
    let _guard = cajade_obs::faults::test_guard();
    use cajade_ingest::ingest_dir;
    let files = [
        ("a.csv", "id,v\n1,10\n2,20\n"),
        ("b.csv", "id,v\n1,10\n2,20\n"),
    ];

    let fx = Fixture::new("faultload_lenient", &files);
    cajade_obs::faults::set_plan("ingest.load=error@1").unwrap();
    let out = ingest_dir(fx.path(), &IngestOptions::default());
    cajade_obs::faults::clear();
    let out = out.unwrap();
    assert_eq!(out.report.tables.len(), 1);
    assert_eq!(out.report.tables[0].name, "b");
    assert!(
        out.report
            .warnings
            .iter()
            .any(|w| w.contains("a.csv") && w.contains("skipped")),
        "{:?}",
        out.report.warnings
    );

    let fx = Fixture::new("faultload_strict", &files);
    cajade_obs::faults::set_plan("ingest.load=error@1").unwrap();
    let err = ingest_dir(
        fx.path(),
        &IngestOptions {
            strict_types: true,
            ..Default::default()
        },
    );
    cajade_obs::faults::clear();
    assert!(matches!(err.unwrap_err(), IngestError::Io { .. }));
}
