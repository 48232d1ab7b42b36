//! The one-shot pipeline's parallel fan-out runs its workers under the
//! caller's `Ctx`, so a collector installed around `explain` sees every
//! worker span.

use cajade_core::{ExplanationSession, Params, UserQuestion};
use cajade_datagen::nba::{self, NbaConfig};
use cajade_obs::Collector;
use cajade_query::parse_sql;

#[test]
fn collector_around_parallel_explain_sees_every_worker_span() {
    let gen = nba::generate(NbaConfig::tiny());
    let query = parse_sql(
        "SELECT COUNT(*) AS win, s.season_name \
         FROM team t, game g, season s \
         WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
         GROUP BY s.season_name",
    )
    .unwrap();
    let question =
        UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")]);
    let mut params = Params::fast();
    params.parallel = true;
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, params);

    let collector = Collector::new();
    let result = collector
        .with(None, || session.explain(&query, &question))
        .unwrap();
    let spans = collector.finish();

    assert!(result.num_graphs_mined > 1, "the fan-out must be parallel");
    for name in ["materialize_apt", "mine_apt"] {
        let n = spans.iter().filter(|r| r.name == name).count();
        assert_eq!(n, result.num_graphs_mined, "{name} records");
    }
    assert!(spans.iter().all(|r| r.trace == collector.trace_id()));
}
