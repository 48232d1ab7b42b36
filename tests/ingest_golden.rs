//! What `ingest_dir` builds, pinned input by input.
//!
//! Inputs: the two CSV fixture directories under `tests/data`, and the
//! three benchmark corpora (NBA 0.05 `rich_stats`, MIMIC 0.1 and the
//! 20 000-row 4×6 synthetic star, each at the first corpus seed
//! `e2e_bench` derives from `--seed 1`), exported to a temporary
//! directory with `export_csv_dir`'s defaults and ingested back.
//!
//! Per input, one line each for: `Database::fingerprint`; the string
//! pool in id order (which the fingerprint does not see); every table's
//! schema (dtypes, kinds, keys) and its typed values, raw `StrId`s
//! included; and the `IngestReport` without its timings. Every line must
//! equal its line in `tests/data/ingest_identity.golden`: a change to
//! how CSV is read must build the same database, id for id.
//!
//! Recording: run with `-- --nocapture`; the test prints its actual
//! lines before comparing.

use std::path::{Path, PathBuf};

use cajade::datagen::synth::{self, SynthConfig};
use cajade::datagen::{mimic, nba, GeneratedDb};
use cajade::ingest::{export_csv_dir, ingest_dir, ExportOptions, IngestOptions, IngestReport};
use cajade::storage::{Database, StrId, Value};

/// The first corpus seed `e2e_bench` derives from `--seed 1` for the
/// corpus kind at position `kind` (NBA 0, MIMIC 1, synth 2).
fn corpus_seed(kind: u64) -> u64 {
    0x9E37_79B9u64.wrapping_add(kind * 1000)
}

fn golden_path() -> String {
    format!(
        "{}/tests/data/ingest_identity.golden",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// 64-bit FNV-1a over a stream of words: stable across runs, platforms
/// and toolchains, unlike the std hashers.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn db_lines(name: &str, db: &Database) -> Vec<String> {
    let mut lines = vec![format!("{name}/fingerprint {:016x}", db.fingerprint())];
    let pool = db.pool();
    let mut d = Digest::new();
    for i in 0..pool.len() {
        d.str(pool.resolve(StrId(i as u32)));
    }
    lines.push(format!("{name}/pool {} {}", pool.len(), d.hex()));
    for t in db.tables() {
        let schema: Vec<String> = t
            .schema()
            .fields
            .iter()
            .map(|f| {
                format!(
                    "{}:{}:{:?}{}",
                    f.name,
                    f.dtype.name(),
                    f.kind,
                    if f.is_pk { ":pk" } else { "" }
                )
            })
            .collect();
        lines.push(format!("{name}/schema/{} {}", t.name(), schema.join(",")));
        let mut d = Digest::new();
        for c in 0..t.num_columns() {
            for r in 0..t.num_rows() {
                match t.value(r, c) {
                    Value::Null => d.u64(0),
                    Value::Int(i) => {
                        d.u64(1);
                        d.u64(i as u64);
                    }
                    Value::Float(f) => {
                        d.u64(2);
                        d.u64(f.to_bits());
                    }
                    Value::Str(id) => {
                        d.u64(3);
                        d.u64(id.0 as u64);
                    }
                }
            }
        }
        lines.push(format!(
            "{name}/values/{} {} {}",
            t.name(),
            t.num_rows(),
            d.hex()
        ));
    }
    lines
}

/// The report without its timings; the input directory's path is
/// replaced by `<dir>` so warnings do not depend on where it lives.
fn report_lines(name: &str, report: &IngestReport, dir: &Path) -> Vec<String> {
    let dir = dir.display().to_string();
    let mut lines = vec![format!(
        "{name}/report dataset={} manifest_used={}",
        report.dataset, report.manifest_used
    )];
    for t in &report.tables {
        lines.push(format!(
            "{name}/report/table {} rows={} columns={} key=[{}] pinned={} ragged={} coerced={}",
            t.name,
            t.rows,
            t.columns,
            t.key.join(","),
            t.key_pinned,
            t.ragged_rows,
            t.coerced_nulls
        ));
    }
    for j in &report.joins {
        let evidence = j.evidence.as_ref().map(|e| {
            format!(
                " {}.{}->{}.{} containment={:016x} uniqueness={:016x} coverage={:016x} score={:016x}",
                e.from_table,
                e.from_col,
                e.to_table,
                e.to_col,
                e.containment.to_bits(),
                e.to_uniqueness.to_bits(),
                e.to_coverage.to_bits(),
                e.score.to_bits()
            )
        });
        lines.push(format!(
            "{name}/report/join {} {}{}",
            j.origin.label(),
            j.condition,
            evidence.unwrap_or_default()
        ));
    }
    for w in &report.warnings {
        lines.push(format!(
            "{name}/report/warning {}",
            w.replace(&dir, "<dir>")
        ));
    }
    lines
}

fn ingest_lines(name: &str, dir: &Path) -> Vec<String> {
    let ingested =
        ingest_dir(dir, &IngestOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut lines = db_lines(name, &ingested.db);
    lines.extend(report_lines(name, &ingested.report, dir));
    lines
}

/// Exports `gen` under a fresh temporary directory and ingests it back.
fn corpus_lines(name: &str, gen: GeneratedDb) -> Vec<String> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "cajade_ingest_golden_{name}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    export_csv_dir(&gen.db, &gen.schema_graph, &dir, &ExportOptions::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let lines = ingest_lines(name, &dir);
    std::fs::remove_dir_all(&dir).ok();
    lines
}

#[test]
fn ingested_databases_match_the_golden_id_for_id() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let mut actual = ingest_lines("retail_csv", &data.join("retail_csv"));
    actual.extend(ingest_lines("nan_csv", &data.join("nan_csv")));
    actual.extend(corpus_lines(
        "nba",
        nba::generate(nba::NbaConfig {
            rich_stats: true,
            seed: corpus_seed(0),
            ..nba::NbaConfig::scaled(0.05)
        }),
    ));
    actual.extend(corpus_lines(
        "mimic",
        mimic::generate(mimic::MimicConfig {
            seed: corpus_seed(1),
            ..mimic::MimicConfig::scaled(0.1)
        }),
    ));
    actual.extend(corpus_lines(
        "synth",
        synth::generate(&SynthConfig {
            seed: corpus_seed(2),
            ..SynthConfig::small().with_rows(20_000).with_width(4, 6)
        }),
    ));
    for line in &actual {
        println!("{line}");
    }
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden");
    let expected: Vec<&str> = golden.lines().collect();
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "line {} of the golden", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "lines in the golden");
}
