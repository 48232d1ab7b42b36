//! Calibration of the cache byte-budget estimators against the tracking
//! allocator (satellite of the memory-attribution PR).
//!
//! Every service cache charges entries by `approx_bytes()` — a cheap,
//! allocator-free estimate. If an estimator drifts far from reality the
//! byte budgets stop meaning anything: a cache nominally capped at 64 MB
//! could hold 300 MB of real heap. These tests build each cached
//! artifact (provenance table, APT, column statistics) inside a
//! dedicated allocation scope and require the estimate to land within
//! 2× of the tracked net heap growth, in both directions. A query's
//! cache entry is charged for its provenance table and enumeration once
//! and, per prepared join graph, for the `Apt` view and the `PreparedApt`
//! mined from it; each part is checked, and so is a whole entry with
//! every graph prepared.
//!
//! The 2× band is deliberate: estimators ignore allocator slack and Vec
//! over-capacity, and the tracker ignores nothing — exact equality is
//! neither achievable nor needed for budget enforcement.

use cajade_datagen::nba;
use cajade_graph::{Apt, JoinGraph};
use cajade_mining::{base_column_stats, prepare_apt, ColumnStatsConfig};
use cajade_query::{parse_sql, ProvenanceTable};

// Real heap numbers require the tracking allocator in this test binary,
// same install as `cajade-serve`.
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

/// Builds `build()` under a dedicated scope and returns the artifact
/// plus its tracked net heap growth. The scope name must be unique to
/// one test: scopes are global, and a shared name would absorb a
/// concurrently running test's allocations.
fn tracked_build<T>(scope: &'static str, build: impl FnOnce() -> T) -> (T, u64) {
    let net0 = cajade_obs::alloc::scope_snapshot(scope).map_or(0, |s| s.net_bytes);
    let guard = cajade_obs::AllocScope::enter(scope);
    let artifact = build();
    drop(guard);
    let net1 = cajade_obs::alloc::scope_snapshot(scope)
        .expect("scope recorded")
        .net_bytes;
    // Intermediates allocated and freed inside the scope cancel out of
    // `net`; with the artifact still alive, the delta is its real
    // retained footprint.
    (artifact, (net1 - net0).max(0) as u64)
}

/// `estimate` within 2× of `actual`, both directions.
fn assert_calibrated(what: &str, estimate: usize, actual: u64) {
    let estimate = estimate as u64;
    assert!(actual > 0, "{what}: tracked no retained bytes");
    assert!(
        estimate * 2 >= actual,
        "{what}: approx_bytes {estimate} underestimates tracked {actual} by more than 2x"
    );
    assert!(
        estimate <= actual * 2,
        "{what}: approx_bytes {estimate} overestimates tracked {actual} by more than 2x"
    );
}

#[test]
fn provenance_table_estimate_matches_tracked_bytes() {
    let gen = nba::generate(nba::NbaConfig::tiny());
    let q = parse_sql(GSW_SQL).unwrap();
    let (pt, actual) = tracked_build("calib.provenance", || {
        ProvenanceTable::compute(&gen.db, &q).unwrap()
    });
    assert_calibrated("ProvenanceTable", pt.approx_bytes(), actual);
}

/// A whole provenance-cache entry — fresh: the provenance table and,
/// beside it, the enumeration's listing (graphs, keys, records); then with
/// every slot filled by one cold ask: the same plus each graph's view and
/// preparation, the provenance table still counted once. The service
/// opens the `cache.provenance`, `cache.apt` and `db.column_stats` scopes
/// itself; no other test of this binary goes through a service.
#[test]
fn provenance_cache_charge_matches_tracked_bytes() {
    let held = |scope: &str| {
        let snapshot = cajade_obs::alloc::scope_snapshot(scope).expect("scope recorded");
        snapshot.net_bytes.max(0) as u64
    };
    let gen = nba::generate(nba::NbaConfig::tiny());
    let service = cajade_service::ExplanationService::new(Default::default());
    service.register_database("nba", gen.db, gen.schema_graph);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.preview().unwrap();
    let fresh = service.stats().provenance_cache.bytes;
    assert_calibrated("fresh query entry", fresh, held("cache.provenance"));

    let asked = session
        .ask_between(&[("season_name", "2015-16")], &[("season_name", "2012-13")])
        .unwrap();
    let stats = service.stats();
    assert_eq!(stats.apt_cache.entries, asked.apt_cache_misses);
    assert_eq!(
        stats.provenance_cache.bytes,
        fresh + stats.apt_cache.bytes,
        "the provenance table is charged once, not per graph"
    );
    // `cache.apt` saw the column statistics filled under it; those are
    // the registration's, not the entry's.
    let graphs = held("cache.apt") - held("db.column_stats");
    assert!(stats.apt_cache.bytes > fresh, "the graphs dominate");
    assert_calibrated(
        "filled query entry",
        stats.provenance_cache.bytes,
        held("cache.provenance") + graphs,
    );
}

#[test]
fn apt_estimate_matches_tracked_bytes() {
    let gen = nba::generate(nba::NbaConfig::tiny());
    let q = parse_sql(GSW_SQL).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &q).unwrap();
    let (apt, actual) = tracked_build("calib.apt", || {
        Apt::materialize(&gen.db, &pt, &JoinGraph::pt_only()).unwrap()
    });
    assert_calibrated("Apt", apt.approx_bytes(), actual);
}

/// The prepared half of a prepared graph's charge, on a joined APT (a fan-out
/// context table, so the all-rows index keeps its segment ids) with the
/// service's parameters: λ_F1 < 1, so both indexes are built.
#[test]
fn prepared_apt_estimate_matches_tracked_bytes() {
    let gen = nba::generate(nba::NbaConfig::tiny());
    let q = parse_sql(GSW_SQL).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &q).unwrap();
    let graphs = cajade_graph::enumerate_join_graphs(
        &gen.schema_graph,
        &gen.db,
        &q,
        pt.num_rows,
        &cajade_graph::EnumConfig::default(),
    )
    .unwrap();
    let widest = graphs
        .iter()
        .filter(|g| g.valid)
        .map(|g| Apt::materialize(&gen.db, &pt, &g.graph).unwrap())
        .max_by_key(|apt| apt.num_rows)
        .expect("a valid join graph");
    assert!(widest.num_rows > pt.num_rows, "a fan-out join");
    let params = cajade_core::Params::paper().mining;
    let (prep, actual) = tracked_build("calib.prepared", || prepare_apt(&widest, &pt, &params));
    assert!(prep.exact.is_some(), "λ_F1 < 1 keeps an all-rows index");
    assert_calibrated("PreparedApt", prep.approx_bytes(), actual);
}

#[test]
fn column_stats_estimate_matches_tracked_bytes() {
    let gen = nba::generate(nba::NbaConfig::tiny());
    let cfg = ColumnStatsConfig::from_params(&cajade_core::Params::default().mining);
    // A numeric column (quantile bins + fragment boundaries) and a
    // categorical one (dictionary) exercise both estimator arms.
    for (table, column, scope) in [
        ("team_game_stats", "points", "calib.colstats_num"),
        ("game", "game_date", "calib.colstats_cat"),
    ] {
        let (stats, actual) = tracked_build(scope, || {
            base_column_stats(&gen.db, table, column, &cfg)
                .unwrap_or_else(|| panic!("{table}.{column} resolvable"))
        });
        assert_calibrated(
            &format!("ColumnStats({table}.{column})"),
            stats.approx_bytes(),
            actual,
        );
    }
}
