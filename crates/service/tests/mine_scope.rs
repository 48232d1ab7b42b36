//! What the `mine` alloc scope keeps after an ask, counted by the
//! tracking allocator. Mining allocates each graph's top-k list under
//! `mine`; ranking reads the lists and the ask frees them under `mine`
//! again, so the scope's net bytes say what mining left behind. The only
//! thing an ask keeps from mining is the all-rows masks its exact
//! re-scores fill into the query's prepared graphs, and those are
//! allocated under the scopes the graphs were prepared under
//! (`cache.apt`), where the entry is charged for them.
//!
//! One `#[test]`: the scope ledgers are process-wide, and a sibling test
//! asking on another thread would count into them.

use cajade_core::UserQuestion;
use cajade_datagen::nba::{self, NbaConfig};
use cajade_obs::alloc::scope_snapshot;
use cajade_service::{ExplanationService, ServiceConfig};

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
     GROUP BY s.season_name";

/// What `mine` may still hold after an ask. Measured: 0 after a cold ask
/// and after each warm one. Top-k lists freed outside the scope would
/// leave ~190 000 bytes per computed ask on this corpus.
const MINE_NET_BOUND: i64 = 4 * 1024;

fn net(scope: &str) -> i64 {
    scope_snapshot(scope).map_or(0, |s| s.net_bytes)
}

#[test]
fn mine_keeps_nothing_and_the_entry_keeps_the_filled_masks() {
    let service = ExplanationService::new(ServiceConfig::default());
    let gen = nba::generate(NbaConfig::tiny());
    service.register_database("nba", gen.db, gen.schema_graph);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let ask = |t1: &str, t2: &str| {
        let question = UserQuestion::two_point(&[("season_name", t1)], &[("season_name", t2)]);
        session.ask(&question).unwrap()
    };
    let mine_before = net("mine");

    let cold = ask("2015-16", "2012-13");
    assert!(cold.apt_cache_misses > 0);
    let after_cold = net("mine") - mine_before;
    println!("cold ask: mine net {after_cold} bytes");
    assert!(after_cold.abs() <= MINE_NET_BOUND, "cold ask: {after_cold}");

    // (`cache.apt`'s net, what the entry is charged for its graphs)
    let held = || (net("cache.apt"), service.stats().apt_cache.bytes as i64);
    let mut last = held();
    for (t1, t2) in [
        ("2016-17", "2013-14"),
        ("2014-15", "2012-13"),
        ("2015-16", "2010-11"),
        ("2011-12", "2014-15"),
    ] {
        let warm = ask(t1, t2);
        assert_eq!((warm.answer_cache_hit, warm.apt_cache_misses), (false, 0));
        let mine = net("mine") - mine_before;
        println!("warm ask {t1} vs {t2}: mine net {mine} bytes");
        assert!(
            mine.abs() <= MINE_NET_BOUND,
            "warm ask {t1} vs {t2}: {mine}"
        );
        // What the ask kept is the masks it filled: the entry's charge
        // grew by their bytes, and so did the scope they were made under.
        let now = held();
        assert!(now.1 > last.1, "warm ask {t1} vs {t2} filled no mask");
        assert_eq!(now.0 - last.0, now.1 - last.1, "warm ask {t1} vs {t2}");
        last = now;
    }
}
