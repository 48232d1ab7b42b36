//! Robustness end-to-end tests: deadline-bounded anytime asks (request
//! budgets), degraded-answer cache hygiene, free-when-disabled identity,
//! and fault-injected panic isolation across the serve protocol.

use std::time::Duration;

use cajade_core::{Params, UserQuestion};
use cajade_datagen::nba::{self, NbaConfig};
use cajade_service::json::Json;
use cajade_service::{protocol, AskOptions, ExplanationService, ServiceConfig};

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

fn q(t1_season: &str, t2_season: &str) -> UserQuestion {
    UserQuestion::two_point(&[("season_name", t1_season)], &[("season_name", t2_season)])
}

fn tiny_service() -> ExplanationService {
    service_with(Params::fast())
}

/// [`tiny_service`] with worker threads: a panicking preparation has
/// sibling workers inside the same ask's `AptBuilder` and `ReadShare`.
fn parallel_service() -> ExplanationService {
    service_with(Params {
        parallel: true,
        ..Params::fast()
    })
}

fn service_with(params: Params) -> ExplanationService {
    let service = ExplanationService::new(ServiceConfig {
        params,
        ..ServiceConfig::default()
    });
    let gen = nba::generate(NbaConfig::tiny());
    service.register_database("nba", gen.db, gen.schema_graph);
    service
}

/// Explanations rendered comparably (pattern + graph + primary + score).
fn rendered(explanations: &[cajade_core::Explanation]) -> Vec<String> {
    explanations
        .iter()
        .map(|e| {
            format!(
                "{}|{}|{}|{:.12}",
                e.pattern_desc, e.graph_structure, e.primary, e.metrics.f_score
            )
        })
        .collect()
}

fn counter(service: &ExplanationService, name: &str) -> u64 {
    service
        .metrics_snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

#[test]
fn tight_budget_degrades_instead_of_failing() {
    // The fault plan is process-global: stay out of the armed tests' way.
    let _guard = cajade_obs::faults::test_guard();
    let service = tiny_service();
    let session = service.open_session("nba", GSW_SQL).unwrap();

    // A 1ms budget on a cold ask is guaranteed to expire mid-pipeline.
    let degraded = session
        .ask_with(
            &q("2015-16", "2012-13"),
            &AskOptions {
                trace: false,
                timeout: Some(Duration::from_millis(1)),
            },
        )
        .unwrap();
    let r = &degraded.result;
    assert!(r.degraded, "1ms budget must truncate a cold ask");
    assert!(
        !r.truncated.is_empty(),
        "degraded results name the sites that stopped early"
    );
    // Whatever survived is still well-formed, ranked output.
    let fs: Vec<f64> = r.explanations.iter().map(|e| e.metrics.f_score).collect();
    assert!(fs.windows(2).all(|w| w[0] >= w[1] - 1e-12), "{fs:?}");
    for e in &r.explanations {
        assert!(!e.pattern_desc.is_empty());
        assert!(!e.primary.is_empty());
    }

    // The degraded answer was NOT cached: the follow-up unbudgeted ask
    // reruns the pipeline and returns the full answer.
    let full = session.ask(&q("2015-16", "2012-13")).unwrap();
    assert!(
        !full.answer_cache_hit,
        "a degraded answer must never serve from the answer cache"
    );
    assert!(!full.result.degraded);
    assert!(full.result.num_graphs_mined >= r.num_graphs_mined);
    assert!(!full.result.explanations.is_empty());

    // And the full answer matches a service that never saw a budget —
    // truncated prepared state must not leak across requests.
    let control = tiny_service();
    let control_session = control.open_session("nba", GSW_SQL).unwrap();
    let cold = control_session.ask(&q("2015-16", "2012-13")).unwrap();
    assert_eq!(
        rendered(&full.result.explanations),
        rendered(&cold.result.explanations),
        "post-degraded ask must match a never-budgeted cold run"
    );

    assert_eq!(counter(&service, "ask_degraded_total"), 1);
    assert!(counter(&service, "ask_deadline_exceeded_total") >= 1);
}

#[test]
fn generous_budget_is_identical_to_no_budget() {
    // The fault plan is process-global: stay out of the armed tests' way.
    let _guard = cajade_obs::faults::test_guard();
    let unbudgeted = tiny_service();
    let s1 = unbudgeted.open_session("nba", GSW_SQL).unwrap();
    let a1 = s1.ask(&q("2015-16", "2012-13")).unwrap();

    let budgeted = tiny_service();
    let s2 = budgeted.open_session("nba", GSW_SQL).unwrap();
    let a2 = s2
        .ask_with(
            &q("2015-16", "2012-13"),
            &AskOptions {
                trace: false,
                timeout: Some(Duration::from_secs(3600)),
            },
        )
        .unwrap();

    assert!(!a2.result.degraded);
    assert!(a2.result.truncated.is_empty());
    assert_eq!(
        rendered(&a1.result.explanations),
        rendered(&a2.result.explanations),
        "an in-time budget changes nothing about the answer"
    );
    assert_eq!(
        a1.result.num_graphs_mined, a2.result.num_graphs_mined,
        "same graphs mined"
    );
    assert_eq!(a1.result.pt_rows, a2.result.pt_rows);
    assert_eq!(counter(&budgeted, "ask_degraded_total"), 0);
    assert_eq!(counter(&budgeted, "ask_deadline_exceeded_total"), 0);
}

#[test]
fn budgeted_ask_over_the_protocol_reports_degraded() {
    // The fault plan is process-global: stay out of the armed tests' way.
    let _guard = cajade_obs::faults::test_guard();
    let service = tiny_service();
    let query = Json::obj([
        ("op", Json::str("query")),
        ("db", Json::str("nba")),
        ("sql", Json::str(GSW_SQL)),
        ("preview", Json::Bool(false)),
    ])
    .render();
    let session = protocol::handle_line(&service, &query)
        .get("session")
        .and_then(Json::as_u64)
        .unwrap();

    let resp = protocol::handle_line(
        &service,
        &format!(
            r#"{{"op":"ask","session":{session},"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}},"timeout_ms":1}}"#
        ),
    );
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    assert_eq!(
        resp.get("degraded").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    assert!(
        !resp
            .get("truncated")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "{resp:?}"
    );

    // An unbudgeted ask omits both fields entirely (free when disabled:
    // the wire shape is unchanged from a build without budgets).
    let resp = protocol::handle_line(
        &service,
        &format!(
            r#"{{"op":"ask","session":{session},"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}}}}"#
        ),
    );
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(resp.get("degraded").is_none(), "{resp:?}");
    assert!(resp.get("truncated").is_none());
}

#[test]
fn provenance_compute_panic_leaves_service_answering_and_waiters_unblocked() {
    let _guard = cajade_obs::faults::test_guard();
    let service = tiny_service();
    let query = Json::obj([
        ("op", Json::str("query")),
        ("db", Json::str("nba")),
        ("sql", Json::str(GSW_SQL)),
        ("preview", Json::Bool(false)),
    ])
    .render();
    let session = protocol::handle_line(&service, &query)
        .get("session")
        .and_then(Json::as_u64)
        .unwrap();
    let ask = format!(
        r#"{{"op":"ask","session":{session},"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}}}}"#
    );

    // One panic armed inside the single-flighted provenance computation.
    // Two concurrent asks race for the latch: the winner's request
    // panics (isolated to an `internal_panic` response), and the waiter
    // must wake, find the latch cleaned up, and compute successfully —
    // never hang on a latch the panicking winner forgot to remove.
    cajade_obs::faults::set_plan("cache.provenance_compute=panic@1").unwrap();
    let (r1, r2) = std::thread::scope(|s| {
        let t1 = s.spawn(|| protocol::handle_line(&service, &ask));
        let t2 = s.spawn(|| protocol::handle_line(&service, &ask));
        (t1.join().unwrap(), t2.join().unwrap())
    });
    cajade_obs::faults::clear();

    let oks: Vec<bool> = [&r1, &r2]
        .iter()
        .map(|r| r.get("ok").and_then(Json::as_bool).unwrap())
        .collect();
    assert!(
        oks.contains(&false),
        "exactly one request hits the armed panic: {r1:?} {r2:?}"
    );
    for r in [&r1, &r2] {
        if r.get("ok").and_then(Json::as_bool) == Some(false) {
            assert_eq!(
                r.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("internal_panic"),
                "{r:?}"
            );
        } else {
            assert!(!r
                .get("explanations")
                .and_then(Json::as_array)
                .unwrap()
                .is_empty());
        }
    }

    // The service keeps answering after the isolated panic.
    let after = protocol::handle_line(&service, &ask);
    assert_eq!(
        after.get("ok").and_then(Json::as_bool),
        Some(true),
        "{after:?}"
    );
    assert_eq!(counter(&service, "requests_panicked_total"), 1);
    // The fault harness counts its fire in the global registry.
    assert!(
        cajade_obs::global()
            .counter("fault_cache_provenance_compute_fired_total")
            .get()
            >= 1
    );
}

#[test]
fn apt_compute_panic_mid_fanout_leaves_no_waiter_hung_and_the_next_answer_unchanged() {
    let _guard = cajade_obs::faults::test_guard();
    // Parallel, so the panicking materialization has sibling workers that
    // are inside the same ask's `AptBuilder` — computing, or waiting on,
    // the parent joins the panicking graph shares with them.
    let service = parallel_service();
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let sid = session.id();
    let ask = format!(
        r#"{{"op":"ask","session":{sid},"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}}}}"#
    );

    // One panic armed inside the single-flighted APT computation, two
    // concurrent cold asks: the request whose worker hits it fails alone;
    // its sibling workers run to the end of the fan-out, and the other
    // request — waiting on the same per-graph latches — completes.
    cajade_obs::faults::set_plan("cache.apt_compute=panic@1").unwrap();
    let (r1, r2) = std::thread::scope(|s| {
        let t1 = s.spawn(|| protocol::handle_line(&service, &ask));
        let t2 = s.spawn(|| protocol::handle_line(&service, &ask));
        (t1.join().unwrap(), t2.join().unwrap())
    });
    cajade_obs::faults::clear();

    let ok = |r: &Json| r.get("ok").and_then(Json::as_bool).unwrap();
    let (failed, passed) = if ok(&r1) { (&r2, &r1) } else { (&r1, &r2) };
    assert!(
        ok(passed) && !ok(failed),
        "exactly one request fails: {r1:?} {r2:?}"
    );
    assert_eq!(
        failed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("internal_panic"),
        "{failed:?}"
    );
    assert_eq!(counter(&service, "requests_panicked_total"), 1);

    // The next ask — served partly from what the two requests cached,
    // partly through a fresh builder — answers exactly as a service that
    // never saw the fault. (`answer_cache_hit` may be true: the surviving
    // request's answer is a legitimate one.)
    let after = session.ask(&q("2015-16", "2012-13")).unwrap();
    let control = parallel_service();
    let cold = control
        .open_session("nba", GSW_SQL)
        .unwrap()
        .ask(&q("2015-16", "2012-13"))
        .unwrap();
    assert_eq!(
        rendered(&after.result.explanations),
        rendered(&cold.result.explanations),
        "post-panic ask must match a never-faulted cold run"
    );
    assert_eq!(after.result.num_graphs_mined, cold.result.num_graphs_mined);
    // And a new question, which no answer cache can serve, still mines
    // every graph.
    let other = session.ask(&q("2014-15", "2012-13")).unwrap();
    let other_cold = control
        .open_session("nba", GSW_SQL)
        .unwrap()
        .ask(&q("2014-15", "2012-13"))
        .unwrap();
    assert!(!other.answer_cache_hit);
    assert_eq!(
        rendered(&other.result.explanations),
        rendered(&other_cold.result.explanations)
    );
}

/// `fault_cache_apt_compute_fired_total`, which the fault harness keeps in
/// the global registry.
fn apt_compute_fires() -> u64 {
    cajade_obs::global()
        .counter("fault_cache_apt_compute_fired_total")
        .get()
}

#[test]
fn reregistration_between_lookup_and_fill_retains_nothing_of_the_stale_epoch() {
    let _guard = cajade_obs::faults::test_guard();
    let service = tiny_service();
    let session = service.open_session("nba", GSW_SQL).unwrap();

    // The gate: the ask is sequential, so once its first preparation
    // stalls on the failpoint — under the graph's slot lock — it has
    // looked every graph up and stored none. The main thread replaces the
    // database then, and only then lets the preparations through.
    let fired = apt_compute_fires();
    cajade_obs::faults::set_plan("cache.apt_compute=sleep:200").unwrap();
    let stale = std::thread::scope(|scope| {
        let ask = scope.spawn(|| session.ask(&q("2015-16", "2012-13")));
        while apt_compute_fires() == fired && !ask.is_finished() {
            std::thread::yield_now();
        }
        let mut changed = NbaConfig::tiny();
        changed.seed = 99;
        let changed = nba::generate(changed);
        let outcome = service.register_database("nba", changed.db, changed.schema_graph);
        cajade_obs::faults::clear();
        // The query entry went; it held no graph yet.
        assert_eq!((outcome.replaced, outcome.invalidated_entries), (true, 1));
        ask.join().unwrap().unwrap()
    });
    assert!(stale.apt_cache_misses > 0 && !stale.result.explanations.is_empty());

    // Every graph the ask went on to store, it stored into the entry the
    // sweep had dropped: nothing of the old epoch is resident or charged.
    let stats = service.stats();
    for cache in [stats.provenance_cache, stats.apt_cache, stats.answer_cache] {
        assert_eq!((cache.entries, cache.bytes), (0, 0), "{stats:?}");
    }
    // The new epoch's ask is cold throughout, and what is resident after
    // it is its own.
    let current = session.ask(&q("2015-16", "2012-13")).unwrap();
    assert!(!current.answer_cache_hit && !current.provenance_cache_hit);
    assert_eq!(current.apt_cache_hits, 0);
    let stats = service.stats();
    assert_eq!(stats.provenance_cache.entries, 1);
    assert_eq!(stats.apt_cache.entries, current.apt_cache_misses);
    assert!(stats.provenance_cache.bytes > stats.apt_cache.bytes);
}

#[test]
fn apt_compute_panic_still_weighs_what_the_sibling_workers_stored() {
    let _guard = cajade_obs::faults::test_guard();
    let service = parallel_service();
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.preview().unwrap();
    let fresh = service.stats().provenance_cache.bytes;

    cajade_obs::faults::set_plan("cache.apt_compute=panic@1").unwrap();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.ask(&q("2015-16", "2012-13"))
    }));
    cajade_obs::faults::clear();
    assert!(panicked.is_err());

    // The ask never got past its fan-out, but the graphs its other
    // workers stored are resident, and the entry is charged for them.
    let stats = service.stats();
    assert_eq!(
        stats.provenance_cache.bytes,
        fresh + stats.apt_cache.bytes,
        "{stats:?}"
    );
}
