//! The explanation session: provenance → join-graph enumeration → APT
//! materialization → pattern mining → global ranking.
//!
//! The heavy lifting lives in [`crate::pipeline`] as composable stages;
//! this module is the one-shot convenience API over them. The
//! `cajade-service` crate chains the same stages around caches for
//! interactive multi-question sessions.

use cajade_graph::SchemaGraph;
use cajade_query::{Query, QueryResult};
use cajade_storage::Database;

use crate::explanation::Explanation;
use crate::params::Params;
use crate::pipeline;
use crate::timing::SessionTimings;
use crate::Result;

/// A user question over a query's output, specified by group-by column
/// values (paper §2.4).
#[derive(Debug, Clone)]
pub enum UserQuestion {
    /// Compare two output tuples.
    TwoPoint {
        /// Group-by `(column, rendered value)` pairs selecting `t1`.
        t1: Vec<(String, String)>,
        /// Pairs selecting `t2`.
        t2: Vec<(String, String)>,
    },
    /// Explain one output tuple against all others.
    SinglePoint {
        /// Pairs selecting `t`.
        t: Vec<(String, String)>,
    },
}

impl UserQuestion {
    /// Two-point question from string pairs.
    pub fn two_point(t1: &[(&str, &str)], t2: &[(&str, &str)]) -> Self {
        UserQuestion::TwoPoint {
            t1: t1
                .iter()
                .map(|(c, v)| (c.to_string(), v.to_string()))
                .collect(),
            t2: t2
                .iter()
                .map(|(c, v)| (c.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Single-point question from string pairs.
    pub fn single_point(t: &[(&str, &str)]) -> Self {
        UserQuestion::SinglePoint {
            t: t.iter()
                .map(|(c, v)| (c.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Builds a question from already-split `(column, value)` specs, the
    /// shape CLI flags and wire protocols produce: both specs non-empty →
    /// two-point, only `t1` → single-point, anything else is an
    /// [`crate::CoreError::InvalidQuestion`].
    pub fn from_specs(t1: &[(String, String)], t2: &[(String, String)]) -> Result<UserQuestion> {
        match (t1.is_empty(), t2.is_empty()) {
            (false, false) => Ok(UserQuestion::TwoPoint {
                t1: t1.to_vec(),
                t2: t2.to_vec(),
            }),
            (false, true) => Ok(UserQuestion::SinglePoint { t: t1.to_vec() }),
            (true, _) => Err(crate::CoreError::InvalidQuestion(
                "no (column, value) pairs select the primary tuple t1".into(),
            )),
        }
    }
}

/// Everything a session produces.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Globally-ranked explanations (top `params.top_k_global`).
    pub explanations: Vec<Explanation>,
    /// Per-phase timings.
    pub timings: SessionTimings,
    /// Join graphs enumeration listed: the valid ones, and the invalid
    /// ones a later round could still extend or only λ_qcost rules out.
    pub num_graphs_enumerated: usize,
    /// Join graphs that passed `isValid` and were mined.
    pub num_graphs_mined: usize,
    /// Provenance-table size `|PT(Q, D)|`.
    pub pt_rows: usize,
    /// The query's result (for display).
    pub result: QueryResult,
    /// Per mined join graph: `(structure, APT rows, APT attributes)` —
    /// the Fig. 10a statistics.
    pub apt_stats: Vec<(String, usize, usize)>,
    /// Total patterns evaluated across all APTs.
    pub patterns_evaluated: usize,
    /// True when a request budget (`cajade_obs::budget`) expired and some
    /// phase returned a truncated, best-so-far result.
    pub degraded: bool,
    /// Budget sites that truncated work (first-truncation order); empty
    /// unless `degraded`.
    pub truncated: Vec<String>,
}

/// A configured CaJaDE session over one database + schema graph.
pub struct ExplanationSession<'a> {
    db: &'a Database,
    schema_graph: &'a SchemaGraph,
    params: Params,
}

impl<'a> ExplanationSession<'a> {
    /// Creates a session.
    pub fn new(db: &'a Database, schema_graph: &'a SchemaGraph, params: Params) -> Self {
        Self {
            db,
            schema_graph,
            params,
        }
    }

    /// The session's parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Convenience: two-point question from `(column, value)` string pairs.
    pub fn explain_between(
        &self,
        query: &Query,
        t1: &[(&str, &str)],
        t2: &[(&str, &str)],
    ) -> Result<SessionResult> {
        self.explain(query, &UserQuestion::two_point(t1, t2))
    }

    /// Runs the full pipeline for `query` and `question` by chaining the
    /// [`crate::pipeline`] stages: provenance → enumerate → materialize →
    /// mine → rank.
    pub fn explain(&self, query: &Query, question: &UserQuestion) -> Result<SessionResult> {
        let prepared = pipeline::prepare(self.db, self.schema_graph, query, &self.params)?;
        let mining_question = pipeline::resolve_question(self.db, query, &prepared.pt, question)?;
        let outcomes = pipeline::materialize_and_mine(
            self.db,
            query,
            &prepared,
            &mining_question,
            &self.params,
        )?;
        Ok(pipeline::assemble(&prepared, outcomes, &self.params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use cajade_datagen::nba::{self, NbaConfig};
    use cajade_query::parse_sql;

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
    fn end_to_end_q1_two_point() {
        let gen = nba::generate(NbaConfig::tiny());
        let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
        let r = session
            .explain_between(
                &gsw_query(),
                &[("season_name", "2015-16")],
                &[("season_name", "2012-13")],
            )
            .unwrap();
        assert!(!r.explanations.is_empty(), "explanations produced");
        assert!(r.num_graphs_mined >= 1);
        assert!(r.num_graphs_enumerated >= r.num_graphs_mined);
        assert!(r.pt_rows > 0);
        assert!(r.timings.total().as_nanos() > 0);
        // The ranked list is sorted by exact F-score.
        let fs: Vec<f64> = r.explanations.iter().map(|e| e.metrics.f_score).collect();
        assert!(fs.windows(2).all(|w| w[0] >= w[1] - 1e-12), "{fs:?}");
        // Every explanation has a rendered graph + primary label.
        for e in &r.explanations {
            assert!(!e.graph_structure.is_empty());
            assert!(e.primary.contains("season_name="));
        }
    }

    #[test]
    fn context_explanations_reach_beyond_provenance() {
        let gen = nba::generate(NbaConfig::tiny());
        let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
        let r = session
            .explain_between(
                &gsw_query(),
                &[("season_name", "2015-16")],
                &[("season_name", "2012-13")],
            )
            .unwrap();
        // At least one explanation must come from a non-trivial join graph
        // (that is CaJaDE's whole point).
        assert!(
            r.explanations.iter().any(|e| !e.from_pt_only),
            "context explanations: {:#?}",
            r.explanations
                .iter()
                .map(|e| e.render_line())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unknown_tuple_is_a_clean_error() {
        let gen = nba::generate(NbaConfig::tiny());
        let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
        let err = session
            .explain_between(
                &gsw_query(),
                &[("season_name", "2099-00")],
                &[("season_name", "2012-13")],
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::NoSuchOutputTuple(_)));
    }

    #[test]
    fn single_point_question_works() {
        let gen = nba::generate(NbaConfig::tiny());
        let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
        let r = session
            .explain(
                &gsw_query(),
                &UserQuestion::single_point(&[("season_name", "2015-16")]),
            )
            .unwrap();
        assert!(!r.explanations.is_empty());
        // All explanations target the single point.
        assert!(r.explanations.iter().all(|e| e.primary.contains("2015-16")));
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let gen = nba::generate(NbaConfig::tiny());
        let mut params = Params::fast();
        params.top_k_global = 10;
        let seq = ExplanationSession::new(&gen.db, &gen.schema_graph, params.clone())
            .explain_between(
                &gsw_query(),
                &[("season_name", "2015-16")],
                &[("season_name", "2012-13")],
            )
            .unwrap();
        params.parallel = true;
        let par = ExplanationSession::new(&gen.db, &gen.schema_graph, params)
            .explain_between(
                &gsw_query(),
                &[("season_name", "2015-16")],
                &[("season_name", "2012-13")],
            )
            .unwrap();
        let a: Vec<&str> = seq
            .explanations
            .iter()
            .map(|e| e.pattern_desc.as_str())
            .collect();
        let b: Vec<&str> = par
            .explanations
            .iter()
            .map(|e| e.pattern_desc.as_str())
            .collect();
        assert_eq!(a, b, "parallel mining must not change results");
    }

    #[test]
    fn apt_stats_cover_all_mined_graphs() {
        let gen = nba::generate(NbaConfig::tiny());
        let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
        let r = session
            .explain_between(
                &gsw_query(),
                &[("season_name", "2015-16")],
                &[("season_name", "2012-13")],
            )
            .unwrap();
        assert_eq!(r.apt_stats.len(), r.num_graphs_mined);
        assert!(r.apt_stats.iter().any(|(s, _, _)| s == "PT"));
    }
}
