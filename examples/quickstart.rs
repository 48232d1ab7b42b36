//! Quickstart: the paper's running example (Example 1 / UQ1).
//!
//! "Why did GSW win 73 games in season 2015-16 compared to 47 games in
//! 2012-13?" — generate the synthetic NBA database, run the win-count
//! query, and ask CaJaDE for context-aware explanations.
//!
//! Run with: `cargo run --release --example quickstart`

#![deny(clippy::disallowed_methods)]

use cajade::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small synthetic NBA database with the paper's planted story.
    let nba = cajade::datagen::nba::generate(NbaConfig::tiny());
    println!(
        "generated NBA database: {} tables, {} rows total\n",
        nba.db.tables().len(),
        nba.db.total_rows()
    );

    // 2. The user's query: GSW wins per season (paper query Q1 / Q'1).
    let query = parse_sql(
        "SELECT COUNT(*) AS win, s.season_name \
         FROM team t, game g, season s \
         WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
           AND t.team = 'GSW' \
         GROUP BY s.season_name",
    )?;
    let result = cajade::query::execute(&nba.db, &query)?;
    println!("query result:\n{}", result.render(&nba.db));

    // 3. The user question UQ1: 2015-16 (t1) vs 2012-13 (t2).
    let session = ExplanationSession::new(&nba.db, &nba.schema_graph, Params::fast());
    let outcome = session.explain_between(
        &query,
        &[("season_name", "2015-16")],
        &[("season_name", "2012-13")],
    )?;

    println!(
        "enumerated {} join graphs, mined {} (PT has {} rows)\n",
        outcome.num_graphs_enumerated, outcome.num_graphs_mined, outcome.pt_rows
    );
    println!("top explanations:");
    for (i, e) in outcome.explanations.iter().take(8).enumerate() {
        println!("  {:>2}. {}", i + 1, e.render_line());
    }
    println!("\nruntime breakdown:\n{}", outcome.timings.render());
    Ok(())
}
