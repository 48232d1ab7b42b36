//! The per-registration table of column statistics, read through
//! `column_stats_computed_total`: a base column is analysed once per
//! registered content however many graphs, asks, sessions and queries read
//! it, the table is dropped with the registration that owns it — every
//! re-registration, identical content included, starts a new one — and an
//! ask still running on replaced content keeps the statistics of the
//! content it pinned.

use std::collections::BTreeSet;

use cajade_core::{pipeline, Params, UserQuestion};
use cajade_datagen::nba::{self, NbaConfig};
use cajade_datagen::GeneratedDb;
use cajade_graph::AptBuilder;
use cajade_mining::source_column;
use cajade_obs::faults;
use cajade_query::parse_sql;
use cajade_service::{ExplanationService, ServiceConfig};

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

/// A second query over tables the first one also reaches.
const GAMES_SQL: &str = "SELECT COUNT(*) AS games, s.season_name \
     FROM game g, season s WHERE g.season_id = s.season_id \
     GROUP BY s.season_name";

fn question() -> UserQuestion {
    UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")])
}

fn other_question() -> UserQuestion {
    UserQuestion::two_point(&[("season_name", "2014-15")], &[("season_name", "2012-13")])
}

fn tiny() -> GeneratedDb {
    nba::generate(NbaConfig::tiny())
}

/// The tiny corpus with other content under the same schema.
fn changed() -> GeneratedDb {
    let mut cfg = NbaConfig::tiny();
    cfg.seed = cfg.seed.wrapping_add(1);
    nba::generate(cfg)
}

/// The paper's parameters at λ#edges 2: enough graphs to share columns,
/// few enough for a debug build.
fn params() -> Params {
    Params::paper().with_max_edges(2)
}

fn service_over(gen: &GeneratedDb, parallel: bool) -> ExplanationService {
    let mut config = ServiceConfig {
        params: params(),
        ..ServiceConfig::default()
    };
    config.params.parallel = parallel;
    let service = ExplanationService::new(config);
    service.register_database("nba", gen.db.clone(), gen.schema_graph.clone());
    service
}

fn computed(service: &ExplanationService) -> usize {
    service
        .registry()
        .counter("column_stats_computed_total")
        .get() as usize
}

/// The distinct context columns `sql`'s valid join graphs read: the base
/// column of every non-PT pattern field of every APT (feature selection
/// bins them all).
fn context_columns(gen: &GeneratedDb, sql: &str) -> BTreeSet<(String, String)> {
    let query = parse_sql(sql).unwrap();
    let prepared = pipeline::prepare(&gen.db, &gen.schema_graph, &query, &params()).unwrap();
    let builder = AptBuilder::new(&gen.db, &prepared.pt, &prepared.graphs, f64::INFINITY);
    let mut columns = BTreeSet::new();
    for gi in prepared.valid_graph_indices() {
        let apt = builder.materialize(gi).unwrap().unwrap();
        for f in apt.pattern_fields() {
            if let Some((table, column)) = source_column(&apt, f) {
                columns.insert((table.to_string(), column.to_string()));
            }
        }
    }
    columns
}

fn rendered(answer: &cajade_service::AskResult) -> Vec<String> {
    (answer.result.explanations.iter())
        .map(|e| {
            format!(
                "{}|{}|{}|{:.12}",
                e.pattern_desc, e.graph_structure, e.primary, e.metrics.f_score
            )
        })
        .collect()
}

#[test]
fn a_column_is_analysed_once_whoever_asks() {
    let gen = tiny();
    let gsw = context_columns(&gen, GSW_SQL);
    assert!(gsw.len() > 1, "{gsw:?}");

    // One cold ask analyses every context column its graphs read, once —
    // whether the graphs are prepared one after the other or by workers
    // racing for the same cells.
    let service = service_over(&gen, true);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.ask(&question()).unwrap();
    assert_eq!(computed(&service), gsw.len());
    let sequential = service_over(&gen, false);
    let cold = sequential.open_session("nba", GSW_SQL).unwrap();
    cold.ask(&question()).unwrap();
    assert_eq!(computed(&sequential), gsw.len());

    // A second question and a second session on the query add nothing.
    session.ask(&other_question()).unwrap();
    let session2 = service.open_session("nba", GSW_SQL).unwrap();
    session2
        .ask_between(&[("season_name", "2016-17")], &[("season_name", "2012-13")])
        .unwrap();
    assert_eq!(computed(&service), gsw.len());

    // A second query adds only the columns the first never read.
    let both: BTreeSet<_> = gsw
        .union(&context_columns(&gen, GAMES_SQL))
        .cloned()
        .collect();
    let games = service.open_session("nba", GAMES_SQL).unwrap();
    let answer = games.ask(&question()).unwrap();
    assert!(
        answer.apt_cache_misses > 0,
        "the second query prepares its own graphs"
    );
    assert_eq!(computed(&service), both.len());
}

#[test]
fn the_table_follows_the_content_it_describes() {
    let gen = tiny();
    let gsw = context_columns(&gen, GSW_SQL);
    let both: BTreeSet<_> = gsw
        .union(&context_columns(&gen, GAMES_SQL))
        .cloned()
        .collect();
    let service = service_over(&gen, true);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.ask(&question()).unwrap();
    assert_eq!(computed(&service), gsw.len());

    // Same content → a new registration all the same: the statistics go
    // with the one that owned them, counted with the cache entries the
    // sweep dropped, and the content is analysed again from scratch — each
    // query's columns once more.
    let games = service.open_session("nba", GAMES_SQL).unwrap();
    games.ask(&question()).unwrap();
    assert_eq!(computed(&service), both.len());
    let swept = |service: &ExplanationService| {
        let stats = service.stats();
        let cached = [stats.provenance_cache, stats.apt_cache, stats.answer_cache];
        cached.iter().map(|c| c.entries).sum::<usize>() + both.len()
    };
    let held = swept(&service);
    let outcome = service.register_database("nba", gen.db.clone(), gen.schema_graph.clone());
    assert!(outcome.replaced);
    assert_eq!(outcome.invalidated_entries, held);
    session.ask(&question()).unwrap();
    assert_eq!(computed(&service), both.len() + gsw.len());
    games.ask(&question()).unwrap();
    assert_eq!(computed(&service), 2 * both.len());

    // Different content → the same: the new content is analysed from
    // scratch.
    let held = swept(&service);
    let new = changed();
    let outcome = service.register_database("nba", new.db.clone(), new.schema_graph.clone());
    assert!(outcome.replaced);
    assert_eq!(outcome.invalidated_entries, held);
    session.ask(&question()).unwrap();
    assert_eq!(
        computed(&service),
        2 * both.len() + context_columns(&new, GSW_SQL).len()
    );
}

#[test]
fn an_ask_on_replaced_content_keeps_that_contents_statistics() {
    let (old, new) = (tiny(), changed());
    let service = service_over(&old, false);
    let session = service.open_session("nba", GSW_SQL).unwrap();

    // The gate: each of the ask's 28 preparations stalls on the failpoint
    // before it requests a column, until the plan is disarmed — which the
    // main thread does once it has replaced the database under the ask.
    // By then the ask has pinned the old registration (it has computed
    // provenance) and has most, usually all, of its columns still to
    // analyse.
    let plan = faults::Plan::parse("cache.apt_compute=sleep:200").unwrap();
    let stale = std::thread::scope(|scope| {
        let ask = scope.spawn(|| plan.install(|| session.ask(&question())));
        while service.stats().provenance_cache.inserts == 0 && !ask.is_finished() {
            std::thread::yield_now();
        }
        let outcome = service.register_database("nba", new.db.clone(), new.schema_graph.clone());
        plan.disarm();
        assert!(outcome.replaced);
        ask.join().unwrap().unwrap()
    });
    assert!(stale.apt_cache_misses > 0);

    // It answers for the content it began on, from that content's
    // statistics ...
    let fresh = service_over(&old, false);
    let expected = fresh.open_session("nba", GSW_SQL).unwrap();
    assert_eq!(
        rendered(&stale),
        rendered(&expected.ask(&question()).unwrap())
    );
    // ... which it computed into the table it pinned, not the new one: the
    // next ask analyses the new content's columns, all of them, and
    // answers as a service that never saw the old content does.
    let before = computed(&service);
    assert_eq!(before, context_columns(&old, GSW_SQL).len());
    let current = session.ask(&question()).unwrap();
    assert!(!current.answer_cache_hit);
    assert_eq!(
        computed(&service) - before,
        context_columns(&new, GSW_SQL).len()
    );
    let fresh = service_over(&new, false);
    let expected = fresh.open_session("nba", GSW_SQL).unwrap();
    assert_eq!(
        rendered(&current),
        rendered(&expected.ask(&question()).unwrap())
    );
}

#[test]
fn warm_and_cold_answers_are_identical_under_sharing() {
    // Shared stats are deterministic (computed from the base table), so a
    // cold service and a warm one must answer identically.
    let ask = |svc: &ExplanationService| -> Vec<String> {
        let session = svc.open_session("nba", GSW_SQL).unwrap();
        rendered(&session.ask(&question()).unwrap())
    };
    let service = service_over(&tiny(), true);
    let cold = ask(&service);
    let warm = ask(&service); // same service: stats + APT caches warm
    assert_eq!(cold, warm);
    let fresh = ask(&service_over(&tiny(), true));
    assert_eq!(cold, fresh, "sharing must be deterministic across services");
}
