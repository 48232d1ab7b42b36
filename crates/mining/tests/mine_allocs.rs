//! What one warm `mine_prepared` allocates, counted by the tracking
//! allocator. The refinement BFS scores each lattice child where it is
//! generated, in one reused scratch buffer, and the upper bound's
//! per-predicate TP counts sit in one flat array. What is left is a block
//! per pattern kept (built once, at its final length) and a mask buffer
//! per pattern the queue of patterns still to refine holds at its widest,
//! plus the doublings of a few lists: on the graph below, 1 352 blocks
//! for 1 143 patterns evaluated (1 015 patterns stored, 273 masks). A
//! leaf — a child below λ_recall or at λ_attrNum — is never queued, so it
//! takes no mask, and no pattern unless it is kept. When every child was
//! queued with its own pattern and mask, the count was 2 148; a child
//! cloned and then grown by an insert added one more per pattern (3 291).
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
fn a_warm_mine_allocates_a_block_per_kept_pattern_and_queued_mask() {
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
    // A block per kept pattern and per queued mask buffer, the
    // explanations' patterns, and the queue's, store's and kept list's
    // doublings.
    let bound = (patterns + patterns / 4) as u64;
    assert!(
        blocks <= bound,
        "{blocks} blocks for {patterns} patterns evaluated (bound {bound})"
    );
}
