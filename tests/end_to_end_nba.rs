//! End-to-end NBA integration: the session surfaces the planted story,
//! curation knobs work, and results are deterministic.

use cajade::prelude::*;
use cajade_core::UserQuestion;

fn nba() -> cajade::datagen::GeneratedDb {
    cajade::datagen::nba::generate(NbaConfig::tiny())
}

fn gsw_query() -> Query {
    parse_sql(
        "SELECT COUNT(*) AS win, s.season_name \
         FROM team t, game g, season s \
         WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
         GROUP BY s.season_name",
    )
    .unwrap()
}

#[test]
fn gsw_question_produces_context_explanations() {
    let gen = nba();
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
    let out = session
        .explain_between(
            &gsw_query(),
            &[("season_name", "2015-16")],
            &[("season_name", "2012-13")],
        )
        .unwrap();
    assert!(out.explanations.len() >= 5);
    assert!(out.explanations.iter().any(|e| !e.from_pt_only));
    // Supports use the full |PT(t)| denominators.
    for e in out.explanations.iter() {
        assert!(e.metrics.a1 > 0);
        assert!(e.metrics.tp <= e.metrics.a1);
        assert!(e.metrics.fp <= e.metrics.a2);
    }
}

#[test]
fn banned_attrs_remove_trivial_fd_restatements() {
    let gen = nba();
    let params = Params::fast().with_banned_attrs(&["season__id", "season_name", "season."]);
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, params);
    let out = session
        .explain_between(
            &gsw_query(),
            &[("season_name", "2015-16")],
            &[("season_name", "2012-13")],
        )
        .unwrap();
    assert!(!out.explanations.is_empty());
    for e in out.explanations.iter() {
        for (attr, _, _) in &e.preds {
            assert!(
                !attr.contains("season__id") && !attr.contains("season_name"),
                "banned attribute leaked into {}",
                e.pattern_desc
            );
        }
    }
}

#[test]
fn fd_exclusion_supersedes_manual_ban_list() {
    // §6.2/§8 extension: with automatic FD exclusion on, attributes that
    // functionally determine the compared seasons (season ids, the season
    // name via context joins) never appear — without any ban list.
    let gen = nba();
    let params = Params::fast().with_fd_exclusion(true);
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, params);
    let out = session
        .explain_between(
            &gsw_query(),
            &[("season_name", "2015-16")],
            &[("season_name", "2012-13")],
        )
        .unwrap();
    assert!(!out.explanations.is_empty());
    for e in out.explanations.iter() {
        for (attr, op, value) in &e.preds {
            // Equality on a season id / season name restates the group:
            // the FD check must have dropped those attributes.
            let restates = (attr.contains("season__id")
                || attr.contains("season_id")
                || attr.contains("season_name"))
                && op == "=";
            assert!(
                !restates,
                "FD restatement leaked: {attr} {op} {value} in {}",
                e.pattern_desc
            );
        }
    }
}

#[test]
fn draymond_green_salary_explanation() {
    // Q_nba1's headline: Green's 2015-16 vs 2016-17 difference aligns with
    // the planted salary jump (14 260 870 → 15 330 435).
    let gen = nba();
    let q = parse_sql(
        "SELECT AVG(points) AS avg_pts, s.season_name \
         FROM player p, player_game_stats pgs, game g, season s \
         WHERE p.player_id = pgs.player_id AND g.game_date = pgs.game_date \
           AND g.home_id = pgs.home_id AND s.season_id = g.season_id \
           AND p.player_name = 'Draymond Green' \
         GROUP BY s.season_name",
    )
    .unwrap();
    let mut params = Params::fast().with_banned_attrs(&["season__id", "season_name"]);
    params.max_edges = 2;
    params.mining.sel_attr = cajade::core::SelAttr::Count(6);
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, params);
    let out = session
        .explain_between(
            &q,
            &[("season_name", "2015-16")],
            &[("season_name", "2016-17")],
        )
        .unwrap();
    assert!(!out.explanations.is_empty());
    let salary_hit = out
        .explanations
        .iter()
        .any(|e| e.preds.iter().any(|(a, _, _)| a.contains("salary")));
    let stats_hit = out.explanations.iter().any(|e| {
        e.preds.iter().any(|(a, _, _)| {
            a.contains("minutes")
                || a.contains("usage")
                || a.contains("tspct")
                || a.contains("points")
        })
    });
    assert!(
        salary_hit || stats_hit,
        "expected salary- or stat-based context explanations, got {:#?}",
        out.explanations
            .iter()
            .map(|e| e.render_line())
            .collect::<Vec<_>>()
    );
}

#[test]
fn two_point_directions_are_asymmetric() {
    let gen = nba();
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
    let out = session
        .explain_between(
            &gsw_query(),
            &[("season_name", "2015-16")],
            &[("season_name", "2012-13")],
        )
        .unwrap();
    // Both directions appear among the explanations (patterns covering t1
    // and patterns covering t2).
    let has_t1 = out
        .explanations
        .iter()
        .any(|e| e.primary.contains("2015-16"));
    let has_t2 = out
        .explanations
        .iter()
        .any(|e| e.primary.contains("2012-13"));
    assert!(has_t1 && has_t2);
}

#[test]
fn session_is_deterministic() {
    let gen = nba();
    let run = || {
        let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
        session
            .explain(
                &gsw_query(),
                &UserQuestion::two_point(
                    &[("season_name", "2015-16")],
                    &[("season_name", "2012-13")],
                ),
            )
            .unwrap()
            .explanations
            .iter()
            .map(|e| e.render_line())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn timings_and_stats_are_consistent() {
    let gen = nba();
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
    let out = session
        .explain_between(
            &gsw_query(),
            &[("season_name", "2015-16")],
            &[("season_name", "2012-13")],
        )
        .unwrap();
    assert!(out.num_graphs_mined > 0);
    assert!(out.num_graphs_enumerated >= out.num_graphs_mined);
    assert!(out.patterns_evaluated > 0);
    let rows = out.timings.breakdown_rows();
    assert_eq!(rows.len(), 9);
    let total: f64 = rows.iter().map(|(_, d)| d.as_secs_f64()).sum();
    assert!((total - out.timings.total().as_secs_f64()).abs() < 1e-9);
}

#[test]
fn scaled_db_still_explains() {
    let gen = cajade::datagen::nba::generate(NbaConfig {
        seasons: 8,
        games_per_team: 6,
        players_per_team: 5,
        rich_stats: false,
        seed: 9,
    });
    let scaled = cajade::datagen::scale::duplicate_scale(&gen, 2);
    let session = ExplanationSession::new(&scaled.db, &scaled.schema_graph, Params::fast());
    let out = session
        .explain_between(
            &gsw_query(),
            &[("season_name", "2015-16")],
            &[("season_name", "2012-13")],
        )
        .unwrap();
    assert!(!out.explanations.is_empty());
    // PT doubled relative to the unscaled run.
    let base = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast())
        .explain_between(
            &gsw_query(),
            &[("season_name", "2015-16")],
            &[("season_name", "2012-13")],
        )
        .unwrap();
    assert_eq!(out.pt_rows, 2 * base.pt_rows);
}
