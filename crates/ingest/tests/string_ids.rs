//! Files read side by side keep the string ids of a sequential load.
//!
//! `ingest_dir` reads a directory's files concurrently, largest first,
//! each against a pool of its own, and merges the pools into the
//! database's in file-name order. The database must come out id for id
//! as if every file had been interned one after another in name order —
//! including the strings of a file whose table was skipped after it was
//! read. The expected pools, fingerprints, tables and warnings below
//! were recorded from the sequential load.

use std::path::{Path, PathBuf};

use cajade_ingest::{ingest_dir, InferConfig, IngestError, IngestOptions, IngestedDataset};
use cajade_storage::{StorageError, StrId};

/// Self-cleaning fixture directory.
struct Fixture(PathBuf);

impl Fixture {
    fn new(name: &str, files: &[(&str, String)]) -> Fixture {
        let dir = std::env::temp_dir().join(format!("cajade_ids_{name}_{}", std::process::id()));
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

/// The pool in id order.
fn pool(out: &IngestedDataset) -> Vec<&str> {
    let pool = out.db.pool();
    (0..pool.len())
        .map(|i| pool.resolve(StrId(i as u32)))
        .collect()
}

/// `name rows key` per table, in insertion order.
fn tables(out: &IngestedDataset) -> Vec<String> {
    out.report
        .tables
        .iter()
        .map(|t| format!("{} {} [{}]", t.name, t.rows, t.key.join(",")))
        .collect()
}

/// The warnings, with the fixture directory cut from their paths.
fn warnings(out: &IngestedDataset, dir: &Path) -> Vec<String> {
    let prefix = format!("{}/", dir.display());
    out.report
        .warnings
        .iter()
        .map(|w| w.replace(&prefix, ""))
        .collect()
}

/// A directory whose files' size order is not their name order, whose
/// files share strings, with a manifest-pinned key, a composite key, an
/// empty file, and two files with one stem, `t.CSV` and `t.csv`: the
/// second is skipped as a duplicate table after its strings were read.
fn adversarial_files() -> Vec<(&'static str, String)> {
    let teams = ["GSW", "CLE", "SAS", "HOU"];
    let big: String = (0..3000)
        .map(|i| {
            format!(
                "{},{},w{},{}\n",
                teams[(i * 7) % 4],
                i % 30,
                (i * 13) % 97,
                i % 11
            )
        })
        .collect();
    let mid: String = (0..400)
        .map(|i| format!("{},w{},{}\n", i, (i * 5) % 61, teams[3 - i % 4]))
        .collect();
    vec![
        ("a_mid.csv", format!("id,word,team\n{mid}")),
        ("b_empty.csv", String::new()),
        ("t.CSV", "word\ngamma\ndelta\n".to_string()),
        ("t.csv", "word\nalpha\nbeta\n".to_string()),
        ("u.csv", "word\nbeta\nepsilon\n".to_string()),
        (
            "v_small.csv",
            "code,word,note\n1,delta,\n2,zeta,x\n3,beta\n".to_string(),
        ),
        ("w_big.csv", format!("team,day,word,pts\n{big}")),
        (
            "x_pinned.csv",
            "team,word,n\nGSW,eta,1\nCLE,eta,2\nGSW,theta,3\n".to_string(),
        ),
        (
            "dataset.toml",
            "[dataset]\nname = \"adversarial\"\n\n[tables.x_pinned]\nkey = [\"team\", \"word\"]\n"
                .to_string(),
        ),
    ]
}

#[test]
fn string_ids_equal_a_sequential_load_of_an_adversarial_directory() {
    let fx = Fixture::new("adversarial", &adversarial_files());
    let out = ingest_dir(fx.path(), &IngestOptions::default()).unwrap();
    // `a_mid`'s strings first although `w_big` is read first; `t.csv`'s
    // `alpha` and `beta` although its table is skipped; `""` from the
    // empty cell of `v_small`'s ragged record.
    let expected_pool = concat!(
        "w0|HOU|w5|SAS|w10|CLE|w15|GSW|w20|w25|w30|w35|w40|w45|w50|",
        "w55|w60|w4|w9|w14|w19|w24|w29|w34|w39|w44|w49|w54|w59|w3|w8|",
        "w13|w18|w23|w28|w33|w38|w43|w48|w53|w58|w2|w7|w12|w17|w22|",
        "w27|w32|w37|w42|w47|w52|w57|w1|w6|w11|w16|w21|w26|w31|w36|",
        "w41|w46|w51|w56|gamma|delta|alpha|beta|epsilon||zeta|x|w65|",
        "w78|w91|w72|w85|w66|w79|w92|w73|w86|w67|w80|w93|w61|w74|w87|",
        "w68|w81|w94|w62|w75|w88|w69|w82|w95|w63|w76|w89|w70|w83|w96|",
        "w64|w77|w90|w71|w84|eta|theta",
    );
    let pool = pool(&out);
    assert_eq!(pool.len(), 111);
    assert_eq!(pool.join("|"), expected_pool);
    assert_eq!(format!("{:016x}", out.db.fingerprint()), "3e7ba8494032b1ec");
    assert_eq!(
        tables(&out),
        [
            "a_mid 400 [id]",
            "t 2 [word]",
            "u 2 [word]",
            "v_small 3 [code]",
            "w_big 3000 [team,day,word]",
            "x_pinned 3 [team,word]",
        ]
    );
    assert_eq!(
        warnings(&out, fx.path()),
        [
            "b_empty.csv: empty file, skipped",
            "t.csv: table skipped (table `t`: table `t` already exists)",
            "table `v_small`: 1 ragged record(s) padded/truncated to the header arity",
        ]
    );
}

#[test]
fn the_first_strict_error_is_the_first_failing_file_by_name() {
    // Both files contradict their sampled type past the window; the
    // larger one sorts second and is read first.
    let clash: String = (0..500).map(|i| format!("{i},n{i}\n")).collect();
    let fx = Fixture::new(
        "strict",
        &[
            ("a.csv", "id,v\n1,1\n2,2\n3,x\n".to_string()),
            ("b.csv", format!("id,v\n0,0\n{clash}oops,1\n")),
        ],
    );
    let strict = IngestOptions {
        strict_types: true,
        infer: InferConfig { sample_rows: 2 },
        ..Default::default()
    };
    let err = ingest_dir(fx.path(), &strict).unwrap_err();
    assert!(
        matches!(&err, IngestError::Storage { table, source: StorageError::TypeInference { .. } } if table == "a"),
        "{err}"
    );
}
