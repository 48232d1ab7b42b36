//! Baseline comparison (paper §5.5 / §5.6): the same user question handled
//! by CaJaDE, Explanation Tables, CAPE, and provenance-only mining.
//!
//! Run with: `cargo run --release --example baseline_comparison`

#![deny(clippy::disallowed_methods)]

use cajade::baselines::{
    explain_outlier, provenance_only_explanations, CapeQuestion, Direction, EtConfig,
    ExplanationTables,
};
use cajade::graph::{Apt, JoinGraph};
use cajade::mining::Question;
use cajade::prelude::*;
use cajade::query::ProvenanceTable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nba = cajade::datagen::nba::generate(NbaConfig::tiny());
    let query = parse_sql(
        "SELECT COUNT(*) AS win, s.season_name \
         FROM team t, game g, season s \
         WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
           AND t.team = 'GSW' \
         GROUP BY s.season_name",
    )?;
    let result = cajade::query::execute(&nba.db, &query)?;
    let pt = ProvenanceTable::compute(&nba.db, &query)?;
    let t1 = pt
        .find_group(&nba.db, &query, &[("season_name", "2015-16")])
        .expect("t1");
    let t2 = pt
        .find_group(&nba.db, &query, &[("season_name", "2012-13")])
        .expect("t2");

    // ---- 1. CaJaDE (context-aware). -------------------------------------
    println!("=== CaJaDE (join-augmented) ===");
    let session = ExplanationSession::new(&nba.db, &nba.schema_graph, Params::fast());
    let outcome = session.explain_between(
        &query,
        &[("season_name", "2015-16")],
        &[("season_name", "2012-13")],
    )?;
    for e in outcome.explanations.iter().take(5) {
        println!("  {}", e.render_line());
    }

    // ---- 2. Provenance-only (the user-study baseline arm). --------------
    println!("\n=== Provenance-only (PT attributes only) ===");
    let mut params = Params::fast().mining;
    params.sel_attr = cajade::mining::SelAttr::Count(5);
    let (expl, apt) =
        provenance_only_explanations(&nba.db, &pt, &Question::TwoPoint { t1, t2 }, &params)?;
    for e in expl.iter().take(5) {
        println!(
            "  {} {} F={:.2}",
            e.pattern.render(&apt, nba.db.pool()),
            e.metrics.support_string(),
            e.metrics.f_score
        );
    }

    // ---- 3. Explanation Tables on the PT (binary outcome = "t1 row"). ---
    println!("\n=== Explanation Tables (Gebaly et al.) ===");
    let apt0 = Apt::materialize(&nba.db, &pt, &JoinGraph::pt_only())?;
    let outcome_col: Vec<bool> = (0..apt0.num_rows)
        .map(|r| pt.group_of[apt0.pt_row[r] as usize] as usize == t1)
        .collect();
    let cfg = EtConfig {
        sample_size: 64,
        num_patterns: 5,
        ..Default::default()
    };
    let et = ExplanationTables::fit(&apt0, &outcome_col, &cfg);
    for (p, desc) in et
        .patterns
        .iter()
        .zip(et.render(&apt0, nba.db.pool(), &cfg))
    {
        println!(
            "  {desc}  (support {}, rate {:.2})",
            p.support, p.outcome_rate
        );
    }

    // ---- 4. CAPE (counterbalances). --------------------------------------
    println!("\n=== CAPE (counterbalancing outliers) ===");
    let row = result
        .find_row(&nba.db, &[("season_name", "2015-16")])
        .expect("2015-16 in output");
    let cape = explain_outlier(
        &nba.db,
        &result,
        "win",
        &CapeQuestion {
            row,
            direction: Direction::High,
        },
        3,
    );
    for c in cape {
        println!(
            "  counterbalance {} (residual {:+.1})",
            c.rendered, c.residual
        );
    }
    println!(
        "\nCAPE answers a different question — it finds seasons that are \
         surprisingly LOW\nagainst the trend, not the context that made \
         2015-16 high (the paper's §5.6 point)."
    );
    Ok(())
}
