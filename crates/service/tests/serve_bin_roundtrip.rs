//! Drives the real `cajade-serve` binary over its stdin/stdout JSON-lines
//! protocol: `register` a CSV directory → `query` (no preview) → traced
//! `ask` → repeat asks → `stats` → `metrics` → `query` → `close`,
//! asserting one well-formed response line per request and the full
//! `stats`/`metrics` response schemas.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use cajade_service::json::Json;

#[test]
fn serve_binary_ingests_csv_dir_and_explains() {
    let fixture = format!("{}/../../tests/data/retail_csv", env!("CARGO_MANIFEST_DIR"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_cajade-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cajade-serve");
    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let mut lines = stdout.lines();
    let mut exchange = |request: String| -> Json {
        writeln!(stdin, "{request}").expect("write request");
        stdin.flush().unwrap();
        let line = lines
            .next()
            .expect("one response line per request")
            .expect("read response");
        Json::parse(&line).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
    };

    let r = exchange(format!(
        r#"{{"op":"register","db":"retail","source":"csv_dir","path":"{fixture}"}}"#
    ));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    assert_eq!(r.get("rows").and_then(Json::as_u64), Some(605));
    assert!(r.get("ingest").is_some());

    // Open without preview so the first ask is fully cold and its span
    // tree covers every stage.
    let q = exchange(
        r#"{"op":"query","db":"retail","sql":"SELECT AVG(amount) AS avg_amount, channel FROM sales GROUP BY channel","preview":false}"#
            .to_string(),
    );
    assert_eq!(q.get("ok").and_then(Json::as_bool), Some(true), "{q:?}");
    assert!(q.get("rows").is_none());
    let session = q.get("session").and_then(Json::as_u64).unwrap();

    let ask = format!(
        r#"{{"op":"ask","session":{session},"t1":{{"channel":"online"}},"t2":{{"channel":"in_person"}}}}"#
    );
    let traced = format!(
        r#"{{"op":"ask","session":{session},"trace":true,"t1":{{"channel":"online"}},"t2":{{"channel":"in_person"}}}}"#
    );
    let a = exchange(traced);
    assert_eq!(a.get("ok").and_then(Json::as_bool), Some(true), "{a:?}");
    assert!(!a
        .get("explanations")
        .and_then(Json::as_array)
        .unwrap()
        .is_empty());
    let trace = a
        .get("trace")
        .and_then(Json::as_array)
        .expect("trace array");
    for required in [
        "ask",
        "provenance",
        "jg_enum",
        "materialize",
        "prepare",
        "mine",
    ] {
        assert!(
            trace
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(required)),
            "span `{required}` missing: {trace:?}"
        );
    }

    // 20 repeat asks so the latency histogram has a population.
    for _ in 0..20 {
        let a = exchange(ask.clone());
        assert_eq!(a.get("ok").and_then(Json::as_bool), Some(true), "{a:?}");
    }

    // Full `stats` schema: top-level counters, all three cache blocks,
    // and the ingest block.
    let s = exchange(r#"{"op":"stats"}"#.to_string());
    assert_eq!(s.get("ok").and_then(Json::as_bool), Some(true), "{s:?}");
    assert_eq!(s.get("databases").and_then(Json::as_u64), Some(1));
    assert_eq!(s.get("open_sessions").and_then(Json::as_u64), Some(1));
    assert_eq!(s.get("sessions_opened").and_then(Json::as_u64), Some(1));
    assert_eq!(s.get("questions_answered").and_then(Json::as_u64), Some(21));
    for field in ["prepared_apt_hits", "prepared_apt_misses", "hit_rate"] {
        assert!(
            s.get(field).and_then(Json::as_f64).is_some(),
            "stats.{field}"
        );
    }
    for cache in ["provenance_cache", "apt_cache", "answer_cache"] {
        let c = s
            .get(cache)
            .unwrap_or_else(|| panic!("stats.{cache} missing"));
        for field in [
            "entries",
            "bytes",
            "budget_bytes",
            "hits",
            "misses",
            "evictions",
            "inserts",
            "rejected",
            "coalesced",
        ] {
            assert!(
                c.get(field).and_then(Json::as_f64).is_some(),
                "stats.{cache}.{field} missing: {c:?}"
            );
        }
    }
    let ing = s.get("ingest").expect("stats.ingest");
    for field in [
        "ingests",
        "tables",
        "rows",
        "joins_pinned",
        "joins_discovered",
        "scan_ms",
        "infer_ms",
        "load_ms",
        "discover_ms",
    ] {
        assert!(
            ing.get(field).and_then(Json::as_f64).is_some(),
            "stats.ingest.{field} missing: {ing:?}"
        );
    }
    assert_eq!(ing.get("ingests").and_then(Json::as_u64), Some(1));
    assert_eq!(ing.get("rows").and_then(Json::as_u64), Some(605));

    // `metrics` op: the ask histogram carries the whole population with
    // percentile estimates, and the prometheus rendering round-trips.
    let m = exchange(r#"{"op":"metrics"}"#.to_string());
    assert_eq!(m.get("ok").and_then(Json::as_bool), Some(true), "{m:?}");
    assert_eq!(
        m.get("counters")
            .and_then(|c| c.get("asks_total"))
            .and_then(Json::as_u64),
        Some(21)
    );
    let hist = m
        .get("histograms")
        .and_then(|h| h.get("ask_total_us"))
        .expect("ask_total_us");
    assert_eq!(hist.get("count").and_then(Json::as_u64), Some(21));
    let p50 = hist.get("p50").and_then(Json::as_u64).expect("p50");
    let p99 = hist.get("p99").and_then(Json::as_u64).expect("p99");
    assert!(p99 > 0 && p99 >= p50, "{hist:?}");
    for field in ["sum", "max", "mean", "p90", "p999"] {
        assert!(hist.get(field).and_then(Json::as_f64).is_some(), "{hist:?}");
    }
    assert!(
        m.get("histograms")
            .and_then(|h| h.get("ingest_total_us"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let p = exchange(r#"{"op":"metrics","format":"prometheus"}"#.to_string());
    let text = p
        .get("text")
        .and_then(Json::as_str)
        .expect("prometheus text");
    assert!(text.contains("# TYPE asks_total counter\nasks_total 21\n"));
    assert!(text.contains("ask_total_us{quantile=\"0.99\"} "));

    // Robustness metrics are pre-registered: they export as 0 even on a
    // process that never panicked or degraded an answer.
    for robustness in [
        "requests_panicked_total",
        "ask_degraded_total",
        "ask_deadline_exceeded_total",
    ] {
        assert_eq!(
            m.get("counters")
                .and_then(|c| c.get(robustness))
                .and_then(Json::as_u64),
            Some(0),
            "{robustness}"
        );
    }

    // Errors carry a stable machine-readable code next to the message.
    let bad = exchange(r#"{"op":"wat"}"#.to_string());
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        bad.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request"),
        "{bad:?}"
    );
    assert!(bad
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .is_some());
    let missing = exchange(
        r#"{"op":"ask","session":999,"t1":{"channel":"online"},"t2":{"channel":"in_person"}}"#
            .to_string(),
    );
    assert_eq!(
        missing
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_session"),
        "{missing:?}"
    );

    // The same (db, sql) re-queried with a preview reuses the session and
    // now returns the answer rows.
    let q2 = exchange(
        r#"{"op":"query","db":"retail","sql":"SELECT AVG(amount) AS avg_amount, channel FROM sales GROUP BY channel"}"#
            .to_string(),
    );
    assert_eq!(q2.get("session").and_then(Json::as_u64), Some(session));
    assert!(!q2.get("rows").and_then(Json::as_array).unwrap().is_empty());

    let c = exchange(format!(r#"{{"op":"close","session":{session}}}"#));
    assert_eq!(c.get("closed").and_then(Json::as_bool), Some(true));

    drop(stdin); // EOF ends the serve loop
    let status = child.wait().expect("serve exit");
    assert!(status.success(), "{status:?}");
}
