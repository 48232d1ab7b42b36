//! Whole `ask` answers through the serve protocol, pinned field by field.
//!
//! `protocol::handle_line` drives one NBA 0.05 session and one MIMIC 0.1
//! session — `register`, `query`, then two asks, the first of which
//! prepares every join graph and the second of which mines the prepared
//! graphs warm. Every explanation of every ask response must equal its
//! line in `tests/data/ask_answers.golden`: pattern, predicates, join
//! graph and join conditions, primary tuple, F-score, precision, recall
//! and `provenance_only`, numbers as the protocol renders them (shortest
//! round-trip form). The benchmark's answer digests cover pattern, join
//! graph and F-score only; this covers the rest of what a client reads.
//!
//! Recording: run with `-- --nocapture`; the test prints its actual lines
//! (one per explanation, prefixed `nba/` or `mimic/`) before comparing.

use cajade::service::json::Json;
use cajade::service::{protocol, ExplanationService};

const NBA_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
     GROUP BY s.season_name";

const MIMIC_SQL: &str = "SELECT 1.0*SUM(a.hospital_expire_flag)/COUNT(*) AS death_rate, d.chapter \
     FROM admissions a, diagnoses d WHERE a.hadm_id = d.hadm_id GROUP BY d.chapter";

fn golden_path() -> String {
    format!(
        "{}/tests/data/ask_answers.golden",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// One request through the protocol; the response must be `ok`.
fn call(service: &ExplanationService, line: &str) -> Json {
    let resp = protocol::handle_line(service, line);
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{line}: {resp:?}"
    );
    resp
}

/// Registers `dataset` at `scale`, opens a session on `sql` and asks each
/// of `asks` (the question fields of an `ask` line) in turn. Returns one
/// line per explanation: `<name>/<ask>#<rank> <explanation JSON>`.
fn session_lines(name: &str, dataset: &str, scale: f64, sql: &str, asks: &[&str]) -> Vec<String> {
    let service = ExplanationService::default();
    call(
        &service,
        &format!(r#"{{"op":"register","db":"{name}","dataset":"{dataset}","scale":{scale}}}"#),
    );
    let query = Json::obj([
        ("op", Json::str("query")),
        ("db", Json::str(name)),
        ("sql", Json::str(sql)),
    ]);
    let session = call(&service, &query.render())
        .get("session")
        .and_then(Json::as_u64)
        .expect("session id");
    let mut lines = Vec::new();
    for (ai, fields) in asks.iter().enumerate() {
        let resp = call(
            &service,
            &format!(r#"{{"op":"ask","session":{session},{fields}}}"#),
        );
        let cache = resp.get("cache").expect("cache block");
        let apt_misses = cache.get("apt_misses").and_then(Json::as_u64);
        // The first ask prepares every graph; the second is served warm.
        assert_eq!(apt_misses == Some(0), ai > 0, "{name} ask {ai}: {cache:?}");
        let explanations = resp
            .get("explanations")
            .and_then(Json::as_array)
            .expect("explanations array");
        assert!(!explanations.is_empty(), "{name} ask {ai}: no explanation");
        for (rank, e) in explanations.iter().enumerate() {
            lines.push(format!("{name}/{ai}#{rank} {}", e.render()));
        }
    }
    lines
}

#[test]
fn nba_and_mimic_ask_answers_match_the_golden_field_by_field() {
    let mut actual = session_lines(
        "nba",
        "nba",
        0.05,
        NBA_SQL,
        &[
            r#""t1":{"season_name":"2015-16"},"t2":{"season_name":"2012-13"}"#,
            r#""t":{"season_name":"2016-17"}"#,
        ],
    );
    actual.extend(session_lines(
        "mimic",
        "mimic",
        0.1,
        MIMIC_SQL,
        &[
            r#""t1":{"chapter":"2"},"t2":{"chapter":"13"}"#,
            r#""t1":{"chapter":"14"},"t2":{"chapter":"10"}"#,
        ],
    ));
    for line in &actual {
        println!("{line}");
    }
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden");
    let expected: Vec<&str> = golden.lines().collect();
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "line {} of the golden", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "explanations in the golden");
}
