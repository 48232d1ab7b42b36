//! The library's provider of base-column statistics is the server's: the
//! one per-graph loop, `pipeline::materialize_and_mine`, run for every
//! output group (scope `None`) with a fresh `BaseTableStats`, then
//! assembled and ranked, returns a service ask's answer — every
//! explanation's rendered text and the bits of its F-score — on the tiny
//! NBA corpus and the small synthetic star.

use cajade_core::{pipeline, Params, UserQuestion};
use cajade_datagen::nba::{self, NbaConfig};
use cajade_datagen::synth::{self, SynthConfig, SYNTH_SQL};
use cajade_datagen::GeneratedDb;
use cajade_mining::{BaseTableStats, ColumnStatsConfig};
use cajade_query::parse_sql;
use cajade_service::{ExplanationService, ServiceConfig};

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

/// `(rendered line, F-score bits)` of each explanation, in rank order.
type Answer = Vec<(String, u64)>;

fn library(gen: &GeneratedDb, sql: &str, question: &UserQuestion, params: &Params) -> Answer {
    let query = parse_sql(sql).unwrap();
    let prepared = pipeline::prepare(&gen.db, &gen.schema_graph, &query, params).unwrap();
    let asked = pipeline::resolve_question(&gen.db, &query, &prepared.pt, question).unwrap();
    let stats = BaseTableStats::new(&gen.db, ColumnStatsConfig::from_params(&params.mining));
    let (outcomes, work) = pipeline::materialize_and_mine(
        &gen.db,
        &prepared,
        &asked,
        None,
        params,
        &stats,
        &pipeline::KeepNothing,
        &pipeline::WorkCounters::default(),
    )
    .unwrap();
    let result = pipeline::assemble(&gen.db, &query, &prepared, outcomes, &work, params);
    lines(&result.explanations)
}

fn served(gen: &GeneratedDb, sql: &str, question: &UserQuestion, params: &Params) -> Answer {
    let service = ExplanationService::new(ServiceConfig {
        params: params.clone(),
        ..ServiceConfig::default()
    });
    service.register_database("db", gen.db.clone(), gen.schema_graph.clone());
    let session = service.open_session("db", sql).unwrap();
    lines(&session.ask(question).unwrap().result.explanations)
}

fn lines(explanations: &[cajade_core::Explanation]) -> Answer {
    let line = |e: &cajade_core::Explanation| (e.render_line(), e.metrics.f_score.to_bits());
    explanations.iter().map(line).collect()
}

fn assert_same(gen: &GeneratedDb, sql: &str, question: UserQuestion) {
    let params = ServiceConfig::default().params;
    let library = library(gen, sql, &question, &params);
    assert!(!library.is_empty());
    assert_eq!(library, served(gen, sql, &question, &params));
}

#[test]
fn tiny_nba_library_with_base_table_stats_answers_as_the_service() {
    let gen = nba::generate(NbaConfig::tiny());
    let question =
        UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")]);
    assert_same(&gen, GSW_SQL, question);
}

#[test]
fn synth_library_with_base_table_stats_answers_as_the_service() {
    let gen = synth::generate(&SynthConfig::small());
    assert_same(
        &gen,
        SYNTH_SQL,
        UserQuestion::two_point(&[("grp", "g0")], &[("grp", "g1")]),
    );
}
