//! Robustness end-to-end tests: deadline-bounded anytime asks (request
//! budgets), degraded-answer cache hygiene, free-when-disabled identity,
//! and fault-injected panic isolation across the serve protocol — at
//! every failpoint, with `panic`, `error` and `sleep` — under fault plans
//! that reach only the requests they are installed around.

use std::sync::Arc;
use std::time::Duration;

use cajade_core::{Params, UserQuestion};
use cajade_datagen::nba::{self, NbaConfig};
use cajade_obs::faults::{Plan, Site};
use cajade_service::json::Json;
use cajade_service::{protocol, AskOptions, ExplanationService, ServiceConfig, SessionHandle};

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

/// The protocol line asking `session` about 2015-16 vs 2012-13.
fn ask_line(session: u64) -> String {
    format!(
        r#"{{"op":"ask","session":{session},"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}}}}"#
    )
}

/// The error code of a failed response.
fn error_code(r: &Json) -> Option<&str> {
    r.get("error")?.get("code")?.as_str()
}

#[test]
fn tight_budget_degrades_instead_of_failing() {
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
    for e in r.explanations.iter() {
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
    let resp = protocol::handle_line(&service, &ask_line(session));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(resp.get("degraded").is_none(), "{resp:?}");
    assert!(resp.get("truncated").is_none());
}

#[test]
fn provenance_compute_panic_leaves_service_answering_and_waiters_unblocked() {
    let service = tiny_service();
    let ask = ask_line(service.open_session("nba", GSW_SQL).unwrap().id());

    // One panic armed inside the single-flighted provenance computation.
    // Two concurrent asks race for the latch: the winner's request
    // panics (isolated to an `internal_panic` response), and the waiter
    // must wake, find the latch cleaned up, and compute successfully —
    // never hang on a latch the panicking winner forgot to remove.
    let plan = Plan::parse("cache.provenance_compute=panic@1").unwrap();
    let [r1, r2] = answer_concurrently(&service, &plan, &[ask.clone(), ask.clone()])
        .try_into()
        .unwrap();

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
            assert_eq!(error_code(r), Some("internal_panic"), "{r:?}");
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
    // Parallel, so the panicking materialization has sibling workers that
    // are inside the same ask's `AptBuilder` — computing, or waiting on,
    // the parent joins the panicking graph shares with them.
    let service = parallel_service();
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let ask = ask_line(session.id());

    // One panic armed inside the single-flighted APT computation, two
    // concurrent cold asks: the request whose worker hits it fails alone;
    // its sibling workers run to the end of the fan-out, and the other
    // request — waiting on the same per-graph latches — completes.
    let plan = Plan::parse("cache.apt_compute=panic@1").unwrap();
    let [r1, r2] = answer_concurrently(&service, &plan, &[ask.clone(), ask.clone()])
        .try_into()
        .unwrap();

    let ok = |r: &Json| r.get("ok").and_then(Json::as_bool).unwrap();
    let (failed, passed) = if ok(&r1) { (&r2, &r1) } else { (&r1, &r2) };
    assert!(
        ok(passed) && !ok(failed),
        "exactly one request fails: {r1:?} {r2:?}"
    );
    assert_eq!(error_code(failed), Some("internal_panic"), "{failed:?}");
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

#[test]
fn reregistration_between_lookup_and_fill_retains_nothing_of_the_stale_epoch() {
    let service = tiny_service();
    let session = service.open_session("nba", GSW_SQL).unwrap();

    // The gate: the ask is sequential, so once its first preparation
    // stalls on the failpoint — under the graph's slot lock — it has
    // looked every graph up and stored none. The main thread replaces the
    // database then, and only then lets the preparations through.
    // The replacement is generated beforehand: only registering it falls
    // inside the 200 ms stall.
    let mut changed = NbaConfig::tiny();
    changed.seed = 99;
    let changed = nba::generate(changed);
    let plan = Plan::parse("cache.apt_compute=sleep:200").unwrap();
    let stale = std::thread::scope(|scope| {
        let ask = scope.spawn(|| plan.install(|| session.ask(&q("2015-16", "2012-13"))));
        while plan.fired(Site::CacheAptCompute) == 0 && !ask.is_finished() {
            std::thread::yield_now();
        }
        let outcome = service.register_database("nba", changed.db, changed.schema_graph);
        plan.disarm();
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

/// A `query` op renders its preview with the registration the preview
/// ran on: re-registering the name with other content while the preview
/// computes leaves the rows a clean preview of the old content gives,
/// never the old result's string ids resolved through the new pool.
#[test]
fn a_preview_renders_with_the_registration_it_ran_on() {
    let query = Json::obj([
        ("op", Json::str("query")),
        ("db", Json::str("nba")),
        ("sql", Json::str(GSW_SQL)),
    ])
    .render();
    let rows = |resp: &Json| resp.get("rows").map(Json::render);
    let clean = protocol::handle_line(&tiny_service(), &query);
    assert!(
        rows(&clean).is_some_and(|r| r.contains("2015-16")),
        "{clean:?}"
    );

    // The gate: the preview stalls in its provenance compute, having
    // pinned the NBA registration; the main thread registers MIMIC under
    // the same name then. The replacement is generated beforehand.
    let service = tiny_service();
    let mimic = cajade_datagen::mimic::generate(cajade_datagen::mimic::MimicConfig::tiny());
    let plan = Plan::parse("cache.provenance_compute=sleep:200@1").unwrap();
    let raced = std::thread::scope(|scope| {
        let preview = scope.spawn(|| plan.install(|| protocol::handle_line(&service, &query)));
        while plan.fired(Site::CacheProvenanceCompute) == 0 && !preview.is_finished() {
            std::thread::yield_now();
        }
        let outcome = service.register_database("nba", mimic.db, mimic.schema_graph);
        assert!(outcome.replaced);
        preview.join().unwrap()
    });
    assert_eq!(plan.fired(Site::CacheProvenanceCompute), 1);
    assert_eq!(rows(&raced), rows(&clean), "{raced:?}");
}

#[test]
fn apt_compute_panic_still_weighs_what_the_sibling_workers_stored() {
    let service = parallel_service();
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.preview().unwrap();
    let fresh = service.stats().provenance_cache.bytes;

    let plan = Plan::parse("cache.apt_compute=panic@1").unwrap();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        plan.install(|| session.ask(&q("2015-16", "2012-13")))
    }));
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

/// A default service (the paper's parameters, worker threads) over the
/// tiny NBA corpus, and a session on the `GSW` query.
fn default_session() -> (ExplanationService, Arc<SessionHandle>) {
    let service = service_with(ServiceConfig::default().params);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    (service, session)
}

/// Asks `question` under `spec`, which must panic the ask.
fn ask_panicking(session: &SessionHandle, question: &UserQuestion, spec: &str) {
    let plan = Plan::parse(spec).unwrap();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        plan.install(|| session.ask(question))
    }));
    assert!(panicked.is_err(), "{spec}");
}

/// A mining worker that panics loses no count of the work its siblings
/// finished: after a cold ask, a warm one that panics in one graph's
/// refinement and its retry, `metrics` counts the all-rows masks filled
/// as a clean service's two asks do (1 554), not only the retry's fills.
#[test]
fn a_mining_panic_still_counts_the_masks_its_siblings_filled() {
    let (cold, warm) = (q("2015-16", "2012-13"), q("2016-17", "2013-14"));
    let (clean, session) = default_session();
    session.ask(&cold).unwrap();
    session.ask(&warm).unwrap();

    let (service, session) = default_session();
    session.ask(&cold).unwrap();
    ask_panicking(&session, &warm, "mine.refine=panic@1");
    let retried = session.ask(&warm).unwrap();
    assert!(!retried.answer_cache_hit);

    let name = "mine_exact_masks_computed_total";
    assert!(counter(&clean, name) > 0);
    assert_eq!(counter(&service, name), counter(&clean, name));
}

/// A cold ask that panics while preparing its graphs — in the store's
/// latch or in a preparation — still counts what its materialize stage
/// did, which ended before the panic, and the candidate-column reads
/// its other preparations made.
#[test]
fn a_preparation_panic_still_counts_the_joins_and_reads_before_it() {
    let cold = q("2015-16", "2012-13");
    let (clean, session) = default_session();
    session.ask(&cold).unwrap();
    let joins = ["apt_join_steps_total", "apt_index_builds_total"];
    assert!(joins.iter().all(|name| counter(&clean, name) > 0));

    for spec in ["cache.apt_compute=panic@1", "mine.prepare=panic@1"] {
        let (service, session) = default_session();
        ask_panicking(&session, &cold, spec);
        for name in joins {
            assert_eq!(
                counter(&service, name),
                counter(&clean, name),
                "{spec}: {name}"
            );
        }
        let reads = counter(&service, "prepare_column_reads_total");
        assert!(reads > 0, "{spec}: no column read counted");
    }
}

#[test]
fn a_plan_faults_only_the_request_it_is_installed_around() {
    // The unarmed ask gets a query of its own, so that no graph it needs is
    // one the armed ask computes.
    let games_sql = "SELECT COUNT(*) AS games, s.season_name FROM game g, season s \
         WHERE g.season_id = s.season_id GROUP BY s.season_name";
    let open = |service: &ExplanationService, sql| {
        ask_line(service.open_session("nba", sql).unwrap().id())
    };
    let service = parallel_service();
    let (armed_ask, free_ask) = (open(&service, GSW_SQL), open(&service, games_sql));

    // The unarmed ask starts first; once it has stored a graph, it has been
    // through the site a process-wide plan would have fired at. Then the
    // armed ask runs beside it, its graphs on the same resident pool.
    let plan = Plan::parse("cache.apt_compute=panic@1").unwrap();
    let (armed, free) = std::thread::scope(|s| {
        let free = s.spawn(|| protocol::handle_line(&service, &free_ask));
        while service.stats().apt_cache.inserts == 0 && !free.is_finished() {
            std::thread::yield_now();
        }
        let armed = plan.install(|| protocol::handle_line(&service, &armed_ask));
        (armed, free.join().unwrap())
    });
    assert_eq!(error_code(&armed), Some("internal_panic"), "{armed:?}");
    assert_eq!(plan.fired(Site::CacheAptCompute), 1);
    let control = parallel_service();
    let control = protocol::handle_line(&control, &open(&control, games_sql));
    let explanations = |r: &Json| r.get("explanations").map(Json::render);
    assert!(explanations(&control).is_some(), "{control:?}");
    assert_eq!(explanations(&free), explanations(&control), "{free:?}");
}

/// Answers `lines` on `service` under `plan`, each from a thread of its
/// own and all at once; fails if some request has not answered within a
/// minute — a waiter left hung on a latch a faulted request never released.
fn answer_concurrently(service: &ExplanationService, plan: &Plan, lines: &[String]) -> Vec<Json> {
    let (tx, rx) = std::sync::mpsc::channel();
    let workers: Vec<_> = (lines.iter().enumerate())
        .map(|(i, line)| {
            let (service, plan, line, tx) =
                (service.clone(), plan.clone(), line.clone(), tx.clone());
            std::thread::spawn(move || {
                tx.send((i, plan.install(|| protocol::handle_line(&service, &line))))
            })
        })
        .collect();
    let mut out: Vec<Option<Json>> = vec![None; lines.len()];
    for _ in lines {
        let (i, r) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a request is still waiting after a minute");
        out[i] = Some(r);
    }
    for worker in workers {
        let sent = worker.join().expect("a request thread panicked");
        sent.expect("the receiver outlives the requests");
    }
    out.into_iter().flatten().collect()
}

/// `ok: true`, or an error object with a listed code and a message.
fn assert_well_formed(r: &Json, what: &str) {
    if r.get("ok").and_then(Json::as_bool) == Some(true) {
        return;
    }
    let error = r.get("error");
    let code = error.and_then(|e| e.get("code")).and_then(Json::as_str);
    assert!(
        code.is_some_and(|c| cajade_service::ERROR_CODES.contains(&c))
            && error
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .is_some(),
        "{what}: {r:?}"
    );
}

/// A CSV registration, a query and two concurrent asks of one question,
/// which take every failpoint, under the fault `plan`; then, with no
/// plan, the explanations of that question on a new session.
fn drive_every_site(service: &ExplanationService, plan: &Plan) -> (Vec<Json>, String) {
    let csv = format!("{}/../../tests/data/retail_csv", env!("CARGO_MANIFEST_DIR"));
    let query = format!(r#"{{"op":"query","db":"nba","sql":"{GSW_SQL}"}}"#);
    let session = |r: &Json| r.get("session").and_then(Json::as_u64);
    let answer = |lines: &[String]| answer_concurrently(service, plan, lines);
    let mut responses = answer(&[format!(
        r#"{{"op":"register","db":"retail","source":"csv_dir","path":"{csv}"}}"#
    )]);
    responses.extend(answer(std::slice::from_ref(&query)));
    if let Some(sid) = responses.last().and_then(session) {
        responses.extend(answer(&[ask_line(sid), ask_line(sid)]));
    }
    let sid = session(&protocol::handle_line(service, &query)).unwrap();
    let after = protocol::handle_line(service, &ask_line(sid));
    let explanations = after.get("explanations").map(Json::render);
    (
        responses,
        explanations.unwrap_or_else(|| panic!("{after:?}")),
    )
}

#[test]
fn every_failpoint_panicking_or_failing_leaves_well_formed_answers_and_the_next_ask_unchanged() {
    let (_, control) = drive_every_site(&tiny_service(), &Plan::parse("").unwrap());
    for site in Site::ALL {
        for action in ["panic", "error", "sleep:1"] {
            let case = format!("{}={action}@1", site.name());
            let plan = Plan::parse(&case).unwrap();
            let (responses, after) = drive_every_site(&tiny_service(), &plan);
            assert_eq!(
                plan.fired(site),
                1,
                "{case}: the driven path never reached the site"
            );
            for r in &responses {
                assert_well_formed(r, &case);
                // A stall fails nothing.
                let ok = r.get("ok").and_then(Json::as_bool) == Some(true);
                assert!(ok || !action.starts_with("sleep"), "{case}: {r:?}");
            }
            assert_eq!(after, control, "{case}: the next ask's answer moved");
        }
    }
}
