//! The shared column-statistics cache: cross-graph reuse within one cold
//! ask, cross-ask reuse, epoch invalidation, and identity of warm vs cold
//! answers under sharing.

use cajade_core::UserQuestion;
use cajade_datagen::nba::{self, NbaConfig};
use cajade_service::{ExplanationService, ServiceConfig};

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

fn question() -> UserQuestion {
    UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")])
}

fn tiny_service() -> ExplanationService {
    let service = ExplanationService::new(ServiceConfig::default());
    let gen = nba::generate(NbaConfig::tiny());
    service.register_database("nba", gen.db, gen.schema_graph);
    service
}

#[test]
fn cold_ask_populates_and_reuses_column_stats() {
    let service = tiny_service();
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.ask(&question()).unwrap();

    let s = service.stats().column_stats_cache;
    assert!(
        s.misses >= 1,
        "cold ask must compute some column stats: {s:?}"
    );
    assert!(s.entries >= 1);
    // Reuse within the one cold ask: the fragment stage re-requests the
    // columns feature selection already binned, and graphs that read a
    // context table through row-id vectors of their own re-request each
    // other's columns. (Graphs that read it through the *same* vector no
    // longer ask at all: the ask's `ReadShare` hands them the binned
    // column before the provider is consulted, which is why `hits` fell
    // from ~2 600 to ~1 500 here when it landed.)
    assert!(
        s.hits + s.coalesced >= 1,
        "cross-graph / cross-phase requests must hit: {s:?}"
    );
    // However many requests there are, a column is analyzed once: every
    // miss either computed an entry or waited for the worker computing it.
    assert_eq!(s.misses, s.inserts + s.coalesced, "{s:?}");
    assert_eq!(s.inserts, s.entries as u64, "{s:?}");

    // A second session over a *different* query on the same database
    // reuses the per-column entries outright — no new misses for columns
    // already analyzed.
    let misses_before = s.misses;
    let sql2 = "SELECT COUNT(*) AS games, s.season_name \
         FROM game g, season s WHERE g.season_id = s.season_id \
         GROUP BY s.season_name";
    let session2 = service.open_session("nba", sql2).unwrap();
    session2.ask(&question()).unwrap();
    let s2 = service.stats().column_stats_cache;
    assert!(
        s2.hits > s.hits,
        "second query must reuse shared column stats: {s2:?}"
    );
    // Columns of tables the first query never joined may still miss; the
    // overlap (season/game columns) must not.
    assert!(s2.misses >= misses_before);
}

#[test]
fn re_register_with_different_content_sweeps_stats() {
    let service = tiny_service();
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.ask(&question()).unwrap();
    assert!(service.stats().column_stats_cache.entries >= 1);

    // Same content → same epoch, entries survive.
    let gen = nba::generate(NbaConfig::tiny());
    let outcome = service.register_database("nba", gen.db, gen.schema_graph);
    assert!(!outcome.replaced);
    assert!(service.stats().column_stats_cache.entries >= 1);

    // Different content → epoch advances, stale stats swept.
    let mut cfg = NbaConfig::tiny();
    cfg.seed = cfg.seed.wrapping_add(1);
    let gen = nba::generate(cfg);
    let outcome = service.register_database("nba", gen.db, gen.schema_graph);
    assert!(outcome.replaced);
    assert_eq!(service.stats().column_stats_cache.entries, 0);
}

#[test]
fn warm_and_cold_answers_are_identical_under_sharing() {
    // Shared stats are deterministic (computed from the base table), so a
    // cold service and a warm one must answer identically.
    let rendered = |svc: &ExplanationService| -> Vec<String> {
        let session = svc.open_session("nba", GSW_SQL).unwrap();
        let a = session.ask(&question()).unwrap();
        a.result
            .explanations
            .iter()
            .map(|e| {
                format!(
                    "{}|{}|{}|{:.12}",
                    e.pattern_desc, e.graph_structure, e.primary, e.metrics.f_score
                )
            })
            .collect()
    };
    let service = tiny_service();
    let cold = rendered(&service);
    let warm = rendered(&service); // same service: stats + APT caches warm
    assert_eq!(cold, warm);
    let fresh = rendered(&tiny_service());
    assert_eq!(cold, fresh, "sharing must be deterministic across services");
}
