//! Join-graph enumeration allocates per listed graph, not per visited
//! extension, counted by the tracking allocator: an extension is keyed in
//! buffers the whole enumeration reuses and is built only when its key is
//! new, and a built graph shares its labels and conditions with its
//! parent. A key allocated per extension, or a relation name or condition
//! copied per listed graph, would show as blocks that grow with the 8 221
//! extensions visited instead of the 438 graphs listed.
//!
//! The test reads its own named scope, entered on its own thread, so it
//! sees only the enumeration's allocations.

use cajade_datagen::nba;
use cajade_graph::{EnumConfig, Enumeration};
use cajade_obs::alloc::scope_snapshot;
use cajade_obs::AllocScope;
use cajade_query::parse_sql;

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
    WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
    GROUP BY s.season_name";

#[test]
fn nba_gsw_enumeration_allocates_per_listed_graph() {
    let gen = nba::generate(nba::NbaConfig {
        rich_stats: true,
        seed: 42,
        ..nba::NbaConfig::scaled(0.05)
    });
    let query = parse_sql(GSW_SQL).unwrap();
    let cfg = EnumConfig::default();

    let guard = AllocScope::enter("test.enumerate_nba_gsw");
    let e = Enumeration::of(&gen.schema_graph, &gen.db, &query, &cfg).unwrap();
    drop(guard);
    let blocks = scope_snapshot("test.enumerate_nba_gsw")
        .expect("scope was entered")
        .allocated_blocks;

    let valid = e.graphs.iter().filter(|g| g.valid).count();
    assert_eq!((e.graphs.len(), valid), (438, 202), "listed / valid graphs");
    assert_eq!(
        (e.extensions_visited, e.extensions_rejected),
        (8_221, 7_473),
        "extensions visited / rejected"
    );
    // Measured: 2 172. Per listed graph its two vectors, its key's two and
    // its PK deficit; the rest is the per-relation tables and the
    // doublings of the listing and the seen set. A key built per extension
    // and names copied per listed graph took 15 207.
    assert!(blocks <= 2_350, "{blocks} blocks for one enumeration");
}
