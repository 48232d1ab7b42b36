//! What one warm `mine_prepared` allocates, counted by the tracking
//! allocator. The refinement BFS builds each child pattern in one
//! allocation at its final length, and the upper bound's per-predicate TP
//! counts sit in one flat array. What is left is a block per child
//! pattern and a mask buffer per item the queue holds at its widest:
//! under two blocks per pattern evaluated (on the graph below, 2 149
//! blocks: 1 142 child patterns, 936 masks). A child cloned and then
//! grown by an insert adds one more per pattern (3 291).
//!
//! One `#[test]`: the count is read off this thread's own scope.

use cajade_datagen::nba;
use cajade_graph::{enumerate_join_graphs, AptBuilder, EnumConfig};
use cajade_mining::{mine_prepared, prepare_apt, MiningParams, Question};
use cajade_obs::alloc::scope_snapshot;
use cajade_obs::AllocScope;
use cajade_query::{parse_sql, ProvenanceTable};

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const NBA_SQL: &str = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
    WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
    GROUP BY s.season_name";

#[test]
fn a_warm_mine_allocates_under_two_blocks_per_pattern() {
    let gen = nba::generate(nba::NbaConfig::tiny());
    let query = parse_sql(NBA_SQL).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &query).unwrap();
    let graphs = enumerate_join_graphs(
        &gen.schema_graph,
        &gen.db,
        &query,
        pt.num_rows,
        &EnumConfig::default(),
    )
    .unwrap();
    let builder = AptBuilder::new(&gen.db, &pt, &graphs, f64::INFINITY);
    let params = MiningParams::default();
    let question = Question::TwoPoint { t1: 0, t2: 1 };

    // The valid graph whose mining evaluates the most patterns.
    let (apt, prepared, patterns) = (0..graphs.len())
        .filter(|&gi| graphs[gi].valid)
        .map(|gi| {
            let apt = builder.materialize(gi).unwrap().unwrap();
            let prepared = prepare_apt(&apt, &pt, &params);
            let patterns =
                mine_prepared(&prepared, &apt, &pt, &question, &params).patterns_evaluated;
            (apt, prepared, patterns)
        })
        .max_by_key(|(_, _, patterns)| *patterns)
        .expect("a valid graph");
    assert!(
        patterns >= 1_000,
        "{patterns} patterns on the busiest graph"
    );

    // Asked before, so the exact re-score fills no mask: what is left is
    // the per-question work.
    let guard = AllocScope::enter("test.warm_mine_prepared");
    let outcome = mine_prepared(&prepared, &apt, &pt, &question, &params);
    drop(guard);
    assert_eq!(outcome.patterns_evaluated, patterns);
    assert!(!outcome.explanations.is_empty());
    assert_eq!(outcome.exact_masks.computed, 0);
    let blocks = scope_snapshot("test.warm_mine_prepared")
        .expect("scope was entered")
        .allocated_blocks;
    // A block per child pattern and per mask buffer, the explanations'
    // patterns, and the queue's, store's and kept list's doublings.
    let bound = 2 * patterns as u64;
    assert!(
        blocks <= bound,
        "{blocks} blocks for {patterns} patterns evaluated (bound {bound})"
    );
}
