//! Feature selection is deterministic end to end: two cold asks on fresh
//! services render byte-identical ranked lists. The forest trainer is
//! seeded and the global ranking is a total order (F-score desc, then
//! fewer predicates, then lexicographic pattern), so nothing about a
//! ranked answer may depend on the run — on NBA's correlated attribute
//! families (points/possessions/percentage columns move together) a
//! trainer that broke ties by hash order would show up here first.

use cajade_core::{Params, UserQuestion};
use cajade_datagen::nba::{self, NbaConfig};
use cajade_datagen::GeneratedDb;
use cajade_service::{ExplanationService, ServiceConfig};

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

/// One cold ask on a fresh service: the fully rendered ranked list.
fn cold_ask(gen: &GeneratedDb, question: &UserQuestion) -> Vec<String> {
    let service = ExplanationService::new(ServiceConfig {
        params: Params::fast(),
        ..ServiceConfig::default()
    });
    service.register_database("db", gen.db.clone(), gen.schema_graph.clone());
    let session = service.open_session("db", GSW_SQL).unwrap();
    let a = session.ask(question).unwrap();
    assert!(!a.result.explanations.is_empty());
    a.result
        .explanations
        .iter()
        .map(|e| e.render_line())
        .collect()
}

#[test]
fn cold_asks_with_feature_selection_render_byte_identically() {
    let gen = nba::generate(NbaConfig::tiny());
    let q = UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")]);
    assert_eq!(cold_ask(&gen, &q), cold_ask(&gen, &q));
}
