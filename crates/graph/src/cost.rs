//! Cardinality-based cost estimation for join graphs (paper §4: "We use
//! the DBMS to estimate the cost of this query upfront. We skip pattern
//! mining for join graphs where the estimated cost … is above a threshold
//! λ_qcost").
//!
//! The original system asked Postgres' planner; we implement the same
//! textbook estimate the planner uses for equi-joins:
//! `|R ⋈_{a=b} S| ≈ |R|·|S| / max(ndv(R.a), ndv(S.b))`, multiplying
//! selectivities across all condition pairs and all edges.

use std::collections::HashMap;

use cajade_query::Query;
use cajade_storage::Database;

use crate::join_graph::{JoinGraph, NodeLabel};
use crate::schema_graph::SchemaGraph;
use crate::Result;

/// Precomputed statistics: table cardinalities and per-attribute distinct
/// counts for every attribute mentioned in the schema graph (computing NDV
/// for *all* columns would scan the rich stats tables needlessly).
#[derive(Debug, Clone)]
pub struct CostEstimator {
    table_rows: HashMap<String, f64>,
    /// relation → attribute → distinct count; nested so a look-up borrows
    /// both names.
    ndv: HashMap<String, HashMap<String, f64>>,
}

impl CostEstimator {
    /// Builds statistics for `db`, covering the attributes referenced by
    /// `schema` conditions.
    pub fn new(db: &Database, schema: &SchemaGraph) -> Result<Self> {
        let mut table_rows = HashMap::new();
        for t in db.tables() {
            table_rows.insert(t.name().to_string(), t.num_rows() as f64);
        }
        let mut ndv: HashMap<String, HashMap<String, f64>> = HashMap::new();
        for e in schema.edges() {
            for c in &e.conds {
                for p in &c.pairs {
                    for (rel, attr) in [(&e.a, &p.left), (&e.b, &p.right)] {
                        let of_rel = ndv.entry(rel.clone()).or_default();
                        if of_rel.contains_key(attr) {
                            continue;
                        }
                        let col = db.table(rel)?.column_by_name(attr)?;
                        of_rel.insert(attr.clone(), col.distinct_count().max(1) as f64);
                    }
                }
            }
        }
        Ok(Self { table_rows, ndv })
    }

    /// Distinct-value count for `rel.attr` (1.0 when unknown — i.e. a
    /// join on an unanalyzed attribute is assumed non-selective, erring
    /// toward skipping expensive graphs).
    pub fn ndv(&self, rel: &str, attr: &str) -> f64 {
        self.ndv
            .get(rel)
            .and_then(|of_rel| of_rel.get(attr))
            .copied()
            .unwrap_or(1.0)
    }

    /// Cardinality of a base relation (0 when unknown).
    pub fn table_rows(&self, rel: &str) -> f64 {
        self.table_rows.get(rel).copied().unwrap_or(0.0)
    }

    /// Estimated APT row count for `graph` hung off a provenance table of
    /// `pt_rows` rows produced by `query`.
    pub fn estimate_apt_rows(&self, pt_rows: usize, graph: &JoinGraph, query: &Query) -> f64 {
        let mut rows = pt_rows as f64;
        for node in &graph.nodes[1..] {
            if let NodeLabel::Rel(r) = &node.label {
                rows *= self.table_rows(r).max(1.0);
            }
        }
        for e in &graph.edges {
            for p in &e.cond.pairs {
                let ndv_from = self.side_ndv(graph, query, e.from, &p.left, e.pt_from_idx);
                let ndv_to = self.side_ndv(graph, query, e.to, &p.right, e.pt_from_idx);
                rows /= ndv_from.max(ndv_to).max(1.0);
            }
        }
        rows
    }

    fn side_ndv(
        &self,
        graph: &JoinGraph,
        query: &Query,
        node: usize,
        attr: &str,
        pt_from_idx: Option<usize>,
    ) -> f64 {
        match &graph.nodes[node].label {
            NodeLabel::Pt => {
                // The PT-side attribute lives in one of the accessed
                // relations; approximate its NDV by the base relation's.
                let rel = pt_from_idx
                    .and_then(|i| query.from.get(i))
                    .map(|t| t.table.as_str())
                    .unwrap_or("");
                self.ndv(rel, attr)
            }
            NodeLabel::Rel(r) => self.ndv(r, attr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_graph::{JgEdge, JgNode};
    use crate::schema_graph::JoinCond;
    use cajade_query::parse_sql;
    use cajade_storage::{AttrKind, DataType, SchemaBuilder, Value};

    fn setup() -> (Database, SchemaGraph, Query) {
        let mut db = Database::new("t");
        db.create_table(
            SchemaBuilder::new("game")
                .column_pk("game_id", DataType::Int, AttrKind::Categorical)
                .column("team_id", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db.create_table(
            SchemaBuilder::new("stats")
                .column_pk("game_id", DataType::Int, AttrKind::Categorical)
                .column("pts", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        // 100 games, 100 stats rows keyed by game.
        for i in 0..100 {
            db.table_mut("game")
                .unwrap()
                .push_row(vec![Value::Int(i), Value::Int(i % 10)])
                .unwrap();
            db.table_mut("stats")
                .unwrap()
                .push_row(vec![Value::Int(i), Value::Int(i * 2)])
                .unwrap();
        }
        let mut schema = SchemaGraph::new();
        schema.add_condition("game", "stats", JoinCond::on(&[("game_id", "game_id")]));
        let query = parse_sql("SELECT count(*) AS c, team_id FROM game GROUP BY team_id").unwrap();
        (db, schema, query)
    }

    #[test]
    fn key_join_estimate_is_linear() {
        let (db, schema, query) = setup();
        let est = CostEstimator::new(&db, &schema).unwrap();
        let mut g = JoinGraph::pt_only();
        g.nodes.push(JgNode {
            label: NodeLabel::Rel("stats".into()),
        });
        g.edges.push(JgEdge {
            from: 0,
            to: 1,
            cond: JoinCond::on(&[("game_id", "game_id")]),
            schema_edge: 0,
            cond_idx: 0,
            pt_from_idx: Some(0),
        });
        // PT has 100 rows; key-key join keeps ~100 rows.
        let rows = est.estimate_apt_rows(100, &g, &query);
        assert!((rows - 100.0).abs() < 1e-9, "estimated {rows}");
    }

    #[test]
    fn pt_only_costs_pt_rows() {
        let (db, schema, query) = setup();
        let est = CostEstimator::new(&db, &schema).unwrap();
        let g = JoinGraph::pt_only();
        assert_eq!(est.estimate_apt_rows(42, &g, &query), 42.0);
    }

    #[test]
    fn ndv_only_computed_for_condition_attrs() {
        let (db, schema, _) = setup();
        let est = CostEstimator::new(&db, &schema).unwrap();
        assert_eq!(est.ndv("game", "game_id"), 100.0);
        // `pts` is not in any condition → fallback 1.0.
        assert_eq!(est.ndv("stats", "pts"), 1.0);
    }
}
