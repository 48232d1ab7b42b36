//! NaN-safety end to end: a CSV directory whose float columns contain
//! literal `NaN` / `inf` / `-inf` cells (all of which
//! `"…".parse::<f64>()` happily accepts, so ingestion delivers them into
//! the mining path) must complete `register_csv_dir` → `ask` without a
//! panic, produce the same ranked output on every run, and still find
//! the planted story. (`crates/mining/tests/oracle.rs` checks what the
//! miner makes of such cells against a reference miner.)
//!
//! Before the NaN-safety sweep this fixture panicked in
//! `fragments::fragment_boundaries` (`partial_cmp(..).unwrap()` on the
//! first NaN cell of a selected numeric column).

use cajade::core::{Params, UserQuestion};
use cajade::ingest::IngestOptions;
use cajade::service::{ExplanationService, ServiceConfig};

fn fixture_dir() -> String {
    format!("{}/tests/data/nan_csv", env!("CARGO_MANIFEST_DIR"))
}

const SQL: &str = "SELECT count(*) AS games, season FROM games GROUP BY season";

fn question() -> UserQuestion {
    UserQuestion::two_point(&[("season", "s2")], &[("season", "s1")])
}

/// One full register → ask pass; returns the comparable rendering of the
/// ranked explanations.
fn register_and_ask() -> Vec<String> {
    let service = ExplanationService::new(ServiceConfig {
        params: Params::paper(),
        ..ServiceConfig::default()
    });
    let (outcome, report) = service
        .register_csv_dir("nangames", fixture_dir(), &IngestOptions::default())
        .expect("ingest the NaN fixture");
    assert!(!outcome.replaced);
    assert_eq!(report.tables.len(), 2);

    let session = service.open_session("nangames", SQL).unwrap();
    let answer = session.ask(&question()).expect("ask must not panic");
    assert!(
        !answer.result.explanations.is_empty(),
        "the planted points gap must yield explanations"
    );
    answer
        .result
        .explanations
        .iter()
        .map(|e| {
            format!(
                "{}|{}|{}|{:?}|{:.12}",
                e.pattern_desc,
                e.graph_structure,
                e.primary,
                (e.metrics.tp, e.metrics.a1, e.metrics.fp, e.metrics.a2),
                e.metrics.f_score
            )
        })
        .collect()
}

#[test]
fn nan_cells_survive_register_ask_deterministically() {
    let ranked = register_and_ask();
    assert_eq!(
        ranked,
        register_and_ask(),
        "repeated runs must rank identically"
    );

    // The planted story survives the junk cells: season s2's points jump
    // shows up as a ≥-threshold pattern on the points column.
    assert!(
        ranked
            .iter()
            .any(|e| e.contains("points") && e.contains("season=s2")),
        "expected a points-threshold explanation for s2: {ranked:#?}"
    );
}
