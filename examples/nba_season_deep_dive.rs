//! NBA case study (paper §6.1): Draymond Green's scoring drop and
//! LeBron James' team switch, with case-study parameters (wider attribute
//! budget, top-20 list) and the full runtime breakdown.
//!
//! Run with: `cargo run --release --example nba_season_deep_dive`

#![deny(clippy::disallowed_methods)]

use cajade::core::pipeline;
use cajade::graph::AptBuilder;
use cajade::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nba = cajade::datagen::nba::generate(NbaConfig {
        rich_stats: true,
        ..NbaConfig::tiny()
    });

    let mut params = Params::case_study();
    params.max_edges = 2; // keep the example brisk
    params.mining.lambda_pat_samp = 1.0;
    params.mining.lambda_f1_samp = 1.0;
    let session = ExplanationSession::new(&nba.db, &nba.schema_graph, params);

    // ---- Q_nba1: Draymond Green's average points per season. -----------
    let q_green = parse_sql(
        "SELECT AVG(points) AS avg_pts, s.season_name \
         FROM player p, player_game_stats pgs, game g, season s \
         WHERE p.player_id = pgs.player_id AND g.game_date = pgs.game_date \
           AND g.home_id = pgs.home_id AND s.season_id = g.season_id \
           AND p.player_name = 'Draymond Green' \
         GROUP BY s.season_name",
    )?;
    let r = cajade::query::execute(&nba.db, &q_green)?;
    println!(
        "Q_nba1 — Draymond Green avg points per season:\n{}",
        r.render(&nba.db)
    );

    println!("UQ: why 2015-16 (t1) vs 2016-17 (t2)?");
    let outcome = session.explain_between(
        &q_green,
        &[("season_name", "2015-16")],
        &[("season_name", "2016-17")],
    )?;
    for (i, e) in outcome.explanations.iter().take(10).enumerate() {
        println!("  {:>2}. {}", i + 1, e.render_line());
    }
    println!(
        "\n({} graphs mined, {} patterns evaluated)\n{}",
        outcome.num_graphs_mined,
        outcome.patterns_evaluated,
        outcome.timings.render()
    );

    // ---- Q_nba3: LeBron James' average points per season. --------------
    let q_lebron = parse_sql(
        "SELECT AVG(points) AS avg_pts, s.season_name \
         FROM player p, player_game_stats pgs, game g, season s \
         WHERE p.player_id = pgs.player_id AND g.game_date = pgs.game_date \
           AND g.home_id = pgs.home_id AND s.season_id = g.season_id \
           AND p.player_name = 'LeBron James' \
         GROUP BY s.season_name",
    )?;
    println!("\nQ_nba3 — LeBron James: why 2009-10 (t1) vs 2010-11 (t2)?");
    let outcome = session.explain_between(
        &q_lebron,
        &[("season_name", "2009-10")],
        &[("season_name", "2010-11")],
    )?;
    for (i, e) in outcome.explanations.iter().take(10).enumerate() {
        println!("  {:>2}. {}", i + 1, e.render_line());
    }
    // The APT sizes come from materializing the listed graphs, not from
    // an answer: a graph over λ_qcost has no APT.
    println!("\njoin graphs and APT sizes (Fig. 10a style):");
    let params = session.params();
    let prepared = pipeline::prepare(&nba.db, &nba.schema_graph, &q_lebron, params)?;
    let builder = AptBuilder::new(&nba.db, &prepared.pt, &prepared.graphs, params.max_cost);
    let apts = (prepared.valid_graph_indices().into_iter()).map(|gi| builder.materialize(gi));
    for apt in apts.filter_map(Result::transpose).take(8) {
        let apt = apt?;
        let (structure, rows, cols) =
            (apt.graph.structure_string(), apt.num_rows, apt.fields.len());
        println!("  {structure:<50} {rows:>8} rows  {cols:>3} attrs");
    }
    Ok(())
}
