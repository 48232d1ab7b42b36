//! End-to-end telemetry acceptance over the JSON-lines protocol:
//!
//! * `query` with `preview: false` leaves every pipeline stage cold, so
//!   the first `ask` with `trace: true` returns a span tree covering
//!   provenance → jg_enum → materialize → prepare → mine with intact
//!   parent links;
//! * tracing must not change the answer (trace-on vs trace-off
//!   explanations are identical);
//! * after ≥ 20 asks the `metrics` op reports an `ask_total_us`
//!   histogram with populated p50/p99.

use cajade_datagen::nba;
use cajade_service::json::Json;
use cajade_service::protocol::handle_line;
use cajade_service::{ExplanationService, ServiceConfig};

// The memory-attribution assertions below need real heap numbers, so the
// test binary installs the tracking allocator exactly like `cajade-serve`
// does.
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

fn tiny_nba_service() -> ExplanationService {
    // Answer cache off: every ask re-mines, so each recorded ask wall is
    // macroscopic and the p50 assertion below cannot flake on a
    // sub-microsecond cache hit.
    let service = ExplanationService::new(ServiceConfig {
        answer_cache_bytes: 0,
        ..ServiceConfig::default()
    });
    let gen = nba::generate(nba::NbaConfig::tiny());
    service.register_database("nba", gen.db, gen.schema_graph);
    service
}

fn ask_line(session: u64, t1: &str, t2: &str, trace: bool) -> String {
    format!(
        r#"{{"op":"ask","session":{session},"trace":{trace},"t1":{{"season_name":"{t1}"}},"t2":{{"season_name":"{t2}"}}}}"#
    )
}

/// Walks parent links from `id` to the root, returning the ancestor
/// names (nearest first). Panics on a dangling parent.
fn ancestors(spans: &[&Json], id: u64) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = Some(id);
    while let Some(c) = cur {
        let span = spans
            .iter()
            .find(|s| s.get("span").and_then(Json::as_u64) == Some(c))
            .unwrap_or_else(|| panic!("dangling span id {c}"));
        out.push(span.get("name").and_then(Json::as_str).unwrap().to_string());
        cur = span.get("parent").and_then(Json::as_u64);
    }
    out
}

#[test]
fn traced_cold_ask_covers_all_stages_and_metrics_percentiles_populate() {
    let service = tiny_nba_service();

    // Open the session without previewing: the pipeline stays fully cold.
    let q = handle_line(
        &service,
        &format!(r#"{{"op":"query","db":"nba","sql":"{GSW_SQL}","preview":false}}"#),
    );
    assert_eq!(q.get("ok").and_then(Json::as_bool), Some(true), "{q:?}");
    assert_eq!(q.get("preview").and_then(Json::as_bool), Some(false));
    assert!(
        q.get("rows").is_none(),
        "preview:false must not run the query"
    );
    let session = q.get("session").and_then(Json::as_u64).unwrap();

    // Cold traced ask: the span tree must cover every stage.
    let a1 = handle_line(&service, &ask_line(session, "2015-16", "2012-13", true));
    assert_eq!(a1.get("ok").and_then(Json::as_bool), Some(true), "{a1:?}");
    assert_eq!(
        a1.get("cache")
            .and_then(|c| c.get("provenance"))
            .and_then(Json::as_str),
        Some("miss"),
        "preview:false should leave the provenance cache cold"
    );
    let trace = a1
        .get("trace")
        .and_then(Json::as_array)
        .expect("trace array");
    let spans: Vec<&Json> = trace.iter().collect();
    for required in [
        "ask",
        "resolve_query",
        "provenance",
        "jg_enum",
        "materialize",
        "prepare",
        "mine",
        "mine_apt",
    ] {
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(required)),
            "span `{required}` missing from trace: {trace:?}"
        );
    }
    // Exactly one root, named "ask"; every other span's parent chain
    // terminates there (ancestors() panics on a dangling link).
    let roots: Vec<&&Json> = spans
        .iter()
        .filter(|s| s.get("parent") == Some(&Json::Null))
        .collect();
    assert_eq!(roots.len(), 1, "{trace:?}");
    assert_eq!(
        roots[0].get("name").and_then(Json::as_str),
        Some("ask"),
        "{trace:?}"
    );
    for s in &spans {
        let id = s.get("span").and_then(Json::as_u64).unwrap();
        let chain = ancestors(&spans, id);
        assert_eq!(chain.last().map(String::as_str), Some("ask"), "{chain:?}");
        assert!(s.get("wall_us").and_then(Json::as_u64).is_some());
        assert!(s.get("start_us").and_then(Json::as_u64).is_some());
        // Memory attribution rides on every span: bytes allocated on the
        // span's thread during its window, and the window's peak-live
        // growth.
        let name = s.get("name").and_then(Json::as_str).unwrap();
        assert!(
            s.get("alloc_bytes").and_then(Json::as_u64).is_some(),
            "span `{name}` lost its alloc_bytes: {s:?}"
        );
        assert!(
            s.get("peak_bytes").and_then(Json::as_u64).is_some(),
            "span `{name}` lost its peak_bytes: {s:?}"
        );
    }
    // The root span's window covers the whole cold ask on the request
    // thread — it must have seen real allocation traffic.
    assert!(
        roots[0].get("alloc_bytes").and_then(Json::as_u64).unwrap() > 0,
        "cold ask allocated nothing?! {trace:?}"
    );
    // The compute spans hang under their stages: provenance/jg_enum are
    // children of resolve_query, mine_apt runs under mine even though the
    // mining executor crosses worker threads.
    for (child, stage) in [
        ("provenance", "resolve_query"),
        ("jg_enum", "resolve_query"),
        ("mine_apt", "mine"),
    ] {
        let id = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(child))
            .and_then(|s| s.get("span"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(
            ancestors(&spans, id).contains(&stage.to_string()),
            "`{child}` is not a descendant of `{stage}`: {trace:?}"
        );
    }

    // Tracing must not change the answer.
    let a2 = handle_line(&service, &ask_line(session, "2015-16", "2012-13", false));
    assert!(a2.get("trace").is_none(), "untraced ask leaked a trace");
    assert_eq!(
        a1.get("explanations").unwrap().render(),
        a2.get("explanations").unwrap().render(),
        "tracing changed the explanations"
    );

    // 19 more asks (21 total), alternating questions; the answer cache is
    // off so each one re-mines and records a macroscopic wall.
    for i in 0..19 {
        let (t1, t2) = if i % 2 == 0 {
            ("2016-17", "2012-13")
        } else {
            ("2015-16", "2012-13")
        };
        let a = handle_line(&service, &ask_line(session, t1, t2, false));
        assert_eq!(a.get("ok").and_then(Json::as_bool), Some(true), "{a:?}");
    }

    // The registry's ask histogram has the full population with non-zero
    // percentile estimates.
    let m = handle_line(&service, r#"{"op":"metrics"}"#);
    assert_eq!(m.get("ok").and_then(Json::as_bool), Some(true), "{m:?}");
    let ask_hist = m
        .get("histograms")
        .and_then(|h| h.get("ask_total_us"))
        .expect("ask_total_us histogram");
    assert_eq!(ask_hist.get("count").and_then(Json::as_u64), Some(21));
    let p50 = ask_hist.get("p50").and_then(Json::as_u64).unwrap();
    let p99 = ask_hist.get("p99").and_then(Json::as_u64).unwrap();
    assert!(p50 > 0, "{ask_hist:?}");
    assert!(p99 >= p50, "{ask_hist:?}");
    // Stage histograms and service counters ride along.
    assert_eq!(
        m.get("counters")
            .and_then(|c| c.get("asks_total"))
            .and_then(Json::as_u64),
        Some(21)
    );
    assert!(
        m.get("histograms")
            .and_then(|h| h.get("ask_mine_us"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    assert!(
        m.get("gauges")
            .and_then(|g| g.get("open_sessions"))
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );

    // Prometheus rendering of the same snapshot.
    let p = handle_line(&service, r#"{"op":"metrics","format":"prometheus"}"#);
    let text = p
        .get("text")
        .and_then(Json::as_str)
        .expect("prometheus text");
    assert!(text.contains("# TYPE asks_total counter\nasks_total 21\n"));
    assert!(text.contains("ask_total_us{quantile=\"0.5\"} "));
    assert!(text.contains("ask_total_us_count 21\n"));

    let bad = handle_line(&service, r#"{"op":"metrics","format":"xml"}"#);
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
}

/// The `metrics` op carries the process-memory watermarks: the peak-RSS
/// gauge (`VmHWM`) and the current-RSS gauge, both from
/// `/proc/self/status`. Non-Linux platforms simply omit the gauges.
#[test]
fn metrics_op_exposes_process_memory_watermarks() {
    let service = tiny_nba_service();
    let m = handle_line(&service, r#"{"op":"metrics"}"#);
    assert_eq!(m.get("ok").and_then(Json::as_bool), Some(true), "{m:?}");
    let gauges = m.get("gauges").expect("gauges object");
    if cfg!(target_os = "linux") {
        let peak = gauges
            .get("process_peak_rss_bytes")
            .and_then(Json::as_u64)
            .expect("peak RSS gauge on Linux");
        let cur = gauges
            .get("process_current_rss_bytes")
            .and_then(Json::as_u64)
            .expect("current RSS gauge on Linux");
        assert!(cur > 0, "{gauges:?}");
        assert!(peak >= cur, "peak {peak} < current {cur}");
        // Prometheus rendering carries the same gauge.
        let p = handle_line(&service, r#"{"op":"metrics","format":"prometheus"}"#);
        let text = p.get("text").and_then(Json::as_str).unwrap();
        assert!(text.contains("# TYPE process_peak_rss_bytes gauge\n"));
    } else {
        assert!(gauges.get("process_peak_rss_bytes").is_none());
    }
}

#[test]
fn cache_counters_mirror_into_the_registry() {
    let service = tiny_nba_service();
    let q = handle_line(
        &service,
        &format!(r#"{{"op":"query","db":"nba","sql":"{GSW_SQL}"}}"#),
    );
    let session = q.get("session").and_then(Json::as_u64).unwrap();
    handle_line(&service, &ask_line(session, "2015-16", "2012-13", false));
    handle_line(&service, &ask_line(session, "2015-16", "2012-13", false));

    let m = handle_line(&service, r#"{"op":"metrics"}"#);
    let counters = m.get("counters").unwrap();
    // The preview warmed the provenance cache, so both asks hit it.
    assert!(
        counters
            .get("cache_provenance_hits_total")
            .and_then(Json::as_u64)
            .unwrap()
            >= 2,
        "{counters:?}"
    );
    assert!(
        counters
            .get("cache_apt_inserts_total")
            .and_then(Json::as_u64)
            .unwrap()
            > 0,
        "{counters:?}"
    );
    // Gauges reflect the snapshot-time cache footprint.
    let bytes = m
        .get("gauges")
        .and_then(|g| g.get("cache_apt_bytes"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(bytes > 0, "{m:?}");
}

/// The `metrics` op's `memory` block: heap ledger totals plus the scoped
/// attribution table. After one cold ask every pipeline-stage scope must
/// have accumulated real bytes, and the same numbers mirror into
/// `heap_*` / `mem_scope_*` registry gauges.
#[test]
fn metrics_memory_block_attributes_stage_scopes() {
    let service = tiny_nba_service();
    let q = handle_line(
        &service,
        &format!(r#"{{"op":"query","db":"nba","sql":"{GSW_SQL}","preview":false}}"#),
    );
    let session = q.get("session").and_then(Json::as_u64).unwrap();
    let a = handle_line(&service, &ask_line(session, "2015-16", "2012-13", false));
    assert_eq!(a.get("ok").and_then(Json::as_bool), Some(true), "{a:?}");

    let m = handle_line(&service, r#"{"op":"metrics"}"#);
    assert_eq!(m.get("ok").and_then(Json::as_bool), Some(true), "{m:?}");
    let mem = m.get("memory").expect("memory block in metrics");
    assert_eq!(
        mem.get("tracking").and_then(Json::as_bool),
        Some(true),
        "tracking allocator is installed in this binary: {mem:?}"
    );
    // RSS sub-block is present on every platform; values are null where
    // /proc is unavailable.
    let rss = mem.get("rss").expect("rss sub-block");
    if cfg!(target_os = "linux") {
        assert!(rss.get("peak_bytes").and_then(Json::as_u64).unwrap() > 0);
    }
    let heap = mem.get("heap").expect("heap ledger when tracking");
    let live = heap.get("live_bytes").and_then(Json::as_u64).unwrap();
    let peak = heap.get("peak_live_bytes").and_then(Json::as_u64).unwrap();
    assert!(live > 0, "{heap:?}");
    assert!(peak >= live, "peak {peak} < live {live}");
    assert!(heap.get("allocated_blocks").and_then(Json::as_u64).unwrap() > 0);

    // Every pipeline stage (and the caches the ask exercised) shows up in
    // the scope table with nonzero allocation.
    let scopes = mem.get("scopes").and_then(Json::as_array).expect("scopes");
    let allocated = |name: &str| -> u64 {
        scopes
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("scope `{name}` missing: {scopes:?}"))
            .get("allocated_bytes")
            .and_then(Json::as_u64)
            .unwrap()
    };
    for stage in [
        "provenance",
        "jg_enum",
        "materialize",
        "prepare",
        "mine",
        "cache.provenance",
        "cache.apt",
        "db.column_stats",
    ] {
        assert!(allocated(stage) > 0, "scope `{stage}` attributed no bytes");
    }

    // Gauge mirror of the same surface.
    let gauges = m.get("gauges").expect("gauges");
    assert!(
        gauges
            .get("heap_live_bytes")
            .and_then(Json::as_u64)
            .unwrap()
            > 0,
        "{gauges:?}"
    );
    assert!(
        gauges
            .get("mem_scope_materialize_allocated_bytes")
            .and_then(Json::as_u64)
            .unwrap()
            > 0,
        "{gauges:?}"
    );
    // Prometheus rendering carries the heap gauges too.
    let p = handle_line(&service, r#"{"op":"metrics","format":"prometheus"}"#);
    let text = p.get("text").and_then(Json::as_str).unwrap();
    assert!(text.contains("# TYPE heap_live_bytes gauge\n"));
    assert!(text.contains("mem_scope_mine_peak_bytes "));
}

/// Satellite: cross-thread attribution. An ambient scope entered on the
/// request thread must absorb the allocations of the mining executor's
/// worker threads — the pipeline re-installs the caller's scope chain on
/// each worker (`ScopeHandle::install`), exactly like traced spans
/// re-parent across the fan-out. A traced ask runs inside the scope so
/// `Collector::with` and the scope chain are proven to compose.
#[test]
fn worker_thread_allocations_fold_into_the_callers_scope() {
    let service = tiny_nba_service();
    let q = handle_line(
        &service,
        &format!(r#"{{"op":"query","db":"nba","sql":"{GSW_SQL}","preview":false}}"#),
    );
    let session = q.get("session").and_then(Json::as_u64).unwrap();

    let before =
        cajade_obs::alloc::scope_snapshot("telemetry_ambient").map_or(0, |s| s.allocated_bytes);
    let ambient = cajade_obs::AllocScope::enter("telemetry_ambient");
    let a = handle_line(&service, &ask_line(session, "2015-16", "2012-13", true));
    drop(ambient);
    assert_eq!(a.get("ok").and_then(Json::as_bool), Some(true), "{a:?}");

    let ambient_bytes = cajade_obs::alloc::scope_snapshot("telemetry_ambient")
        .expect("ambient scope recorded")
        .allocated_bytes
        - before;
    // The root "ask" span's alloc_bytes counts request-thread allocations
    // only; the ambient scope additionally folds in every worker thread
    // the executor fanned to (the pipeline re-installs the caller chain
    // on each worker). So scope ≥ span is the exact containment the
    // cross-thread design guarantees — and unlike global scope totals it
    // is immune to other tests running asks concurrently, because only
    // this test touches `telemetry_ambient`.
    let ask_span_bytes = a
        .get("trace")
        .and_then(Json::as_array)
        .expect("trace array")
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("ask"))
        .and_then(|s| s.get("alloc_bytes"))
        .and_then(Json::as_u64)
        .expect("root span alloc_bytes");
    assert!(ask_span_bytes > 0, "cold traced ask allocated nothing?!");
    assert!(
        ambient_bytes >= ask_span_bytes,
        "ambient scope ({ambient_bytes} B) saw less than the request \
         thread alone ({ask_span_bytes} B) — worker folding regressed"
    );
}
