//! The serve-protocol CSV-ingestion round trip over the committed fixture
//! directory: `register` (source csv_dir) → `query` → `ask` → `stats`,
//! all through `protocol::handle_line` — the exact JSON-lines exchanges
//! the `cajade-serve` binary speaks. (The sibling test in
//! `crates/service/tests` drives the real binary over pipes; this one
//! keeps the same flow under the facade's tier-1 `cargo test` gate.)

use cajade::service::json::Json;
use cajade::service::{protocol, ExplanationService};

fn fixture_dir() -> String {
    format!("{}/tests/data/retail_csv", env!("CARGO_MANIFEST_DIR"))
}

fn ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

#[test]
fn register_csv_dir_query_ask_round_trip() {
    let service = ExplanationService::default();

    // -- register ------------------------------------------------------
    let register = format!(
        r#"{{"op":"register","db":"retail","source":"csv_dir","path":"{}"}}"#,
        fixture_dir()
    );
    let r = protocol::handle_line(&service, &register);
    assert!(ok(&r), "{r:?}");
    assert_eq!(r.get("tables").and_then(Json::as_u64), Some(2));
    assert_eq!(r.get("rows").and_then(Json::as_u64), Some(605));
    let ingest = r.get("ingest").expect("ingest report");
    assert_eq!(
        ingest.get("manifest_used").and_then(Json::as_bool),
        Some(true)
    );
    // The store FK is discovered, not pinned, and comes with evidence.
    let joins = ingest.get("joins").and_then(Json::as_array).unwrap();
    let store_join = joins
        .iter()
        .find(|j| {
            j.get("condition").and_then(Json::as_str) == Some("sales.store_id = stores.store_id")
        })
        .expect("discovered store join");
    assert_eq!(
        store_join.get("origin").and_then(Json::as_str),
        Some("discovered")
    );
    assert!(
        store_join
            .get("containment")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.99
    );
    // Pinned keys made it into the per-table reports.
    let tables = ingest.get("tables").and_then(Json::as_array).unwrap();
    assert!(tables
        .iter()
        .all(|t| t.get("key_pinned").and_then(Json::as_bool).unwrap()));
    // All four stages report a timing.
    let timings = ingest.get("timings_ms").expect("timings");
    for stage in ["scan", "infer", "load", "discover", "total"] {
        assert!(
            timings.get(stage).and_then(Json::as_f64).is_some(),
            "{stage}"
        );
    }

    // Re-registering the unchanged directory is a new registration: a
    // new epoch, replacing the first one.
    let r2 = protocol::handle_line(&service, &register);
    assert!(ok(&r2), "{r2:?}");
    assert_eq!(r2.get("replaced").and_then(Json::as_bool), Some(true));
    let epoch = |r: &Json| r.get("epoch").and_then(Json::as_u64).unwrap();
    assert!(epoch(&r2) > epoch(&r), "{r:?} then {r2:?}");
    // Neither response carries a content fingerprint.
    assert!(r.get("fingerprint").is_none() && r2.get("fingerprint").is_none());

    // -- query ---------------------------------------------------------
    let q = protocol::handle_line(
        &service,
        r#"{"op":"query","db":"retail","sql":"SELECT AVG(amount) AS avg_amount, channel FROM sales GROUP BY channel"}"#,
    );
    assert!(ok(&q), "{q:?}");
    let session = q.get("session").and_then(Json::as_u64).unwrap();
    assert_eq!(q.get("rows").and_then(Json::as_array).unwrap().len(), 2);

    // -- ask -----------------------------------------------------------
    let a = protocol::handle_line(
        &service,
        &format!(
            r#"{{"op":"ask","session":{session},"t1":{{"channel":"online"}},"t2":{{"channel":"in_person"}}}}"#
        ),
    );
    assert!(ok(&a), "{a:?}");
    let explanations = a.get("explanations").and_then(Json::as_array).unwrap();
    assert!(
        !explanations.is_empty(),
        "ingested fixture yields ranked explanations"
    );
    // The planted story: urban stores sell online. At least one
    // explanation should reach through the discovered join into the
    // stores table.
    assert!(
        explanations.iter().any(|e| {
            e.get("join_graph")
                .and_then(Json::as_str)
                .is_some_and(|g| g.contains("stores"))
        }),
        "{explanations:?}"
    );

    // -- stats ---------------------------------------------------------
    let s = protocol::handle_line(&service, r#"{"op":"stats"}"#);
    assert!(ok(&s), "{s:?}");
    let ingest_stats = s.get("ingest").expect("ingest stats");
    assert_eq!(ingest_stats.get("ingests").and_then(Json::as_u64), Some(2));
    assert_eq!(
        ingest_stats.get("rows").and_then(Json::as_u64),
        Some(1210),
        "two ingests of 605 rows"
    );
    assert_eq!(
        ingest_stats.get("joins_discovered").and_then(Json::as_u64),
        Some(2)
    );
}

/// `register` (at `max_joins`) → `query` → `ask` on `service`; returns the
/// register response and the ask response.
fn register_and_ask(service: &ExplanationService, max_joins: u64) -> (Json, Json) {
    let register = format!(
        r#"{{"op":"register","db":"retail","source":"csv_dir","path":"{}","max_joins":{max_joins}}}"#,
        fixture_dir()
    );
    let r = protocol::handle_line(service, &register);
    assert!(ok(&r), "{r:?}");
    let q = protocol::handle_line(
        service,
        r#"{"op":"query","db":"retail","sql":"SELECT AVG(amount) AS avg_amount, channel FROM sales GROUP BY channel"}"#,
    );
    let session = q.get("session").and_then(Json::as_u64).unwrap();
    let a = protocol::handle_line(
        service,
        &format!(
            r#"{{"op":"ask","session":{session},"t1":{{"channel":"online"}},"t2":{{"channel":"in_person"}}}}"#
        ),
    );
    assert!(ok(&a), "{a:?}");
    (r, a)
}

#[test]
fn reregistering_with_more_joins_replaces_the_cached_enumeration() {
    // What `ingest`'s "rerun with a higher max_joins" warning tells the
    // user to do: the rows are the same, the permissible joins are not, so
    // nothing enumerated over the old schema graph may answer.
    let pipeline = |ask: &Json, field: &str| {
        let pipeline = ask.get("pipeline").expect("pipeline counts");
        pipeline.get(field).and_then(Json::as_u64).unwrap()
    };
    let service = ExplanationService::default();
    let (_, capped) = register_and_ask(&service, 0);
    assert_eq!(pipeline(&capped, "graphs_enumerated"), 1);

    let (r, a) = register_and_ask(&service, 4);
    assert_eq!(r.get("replaced").and_then(Json::as_bool), Some(true));
    let answer_cache = a.get("cache").and_then(|c| c.get("answer"));
    assert_eq!(answer_cache.and_then(Json::as_str), Some("miss"));

    let (_, fresh) = register_and_ask(&ExplanationService::default(), 4);
    for field in ["graphs_enumerated", "graphs_mined"] {
        assert_eq!(pipeline(&a, field), pipeline(&fresh, field), "{field}");
    }
    assert_eq!(
        (
            pipeline(&fresh, "graphs_enumerated"),
            pipeline(&fresh, "graphs_mined")
        ),
        (5, 4)
    );
    assert_eq!(
        a.get("explanations").map(Json::render),
        fresh.get("explanations").map(Json::render)
    );
}

#[test]
fn register_csv_dir_bad_path_and_bad_source() {
    let service = ExplanationService::default();
    let r = protocol::handle_line(
        &service,
        r#"{"op":"register","db":"x","source":"csv_dir","path":"/nonexistent/cajade"}"#,
    );
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
    let e = r.get("error").expect("error object");
    assert_eq!(e.get("code").and_then(Json::as_str), Some("ingest"));
    assert!(e
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("/nonexistent/cajade"));

    let r = protocol::handle_line(
        &service,
        r#"{"op":"register","db":"x","source":"wat","path":"y"}"#,
    );
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
    let e = r.get("error").expect("error object");
    assert_eq!(e.get("code").and_then(Json::as_str), Some("bad_request"));
    assert!(e
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("csv_dir"));
}
