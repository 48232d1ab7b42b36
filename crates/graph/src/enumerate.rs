//! Join-graph enumeration — paper Algorithm 2.
//!
//! `EnumerateJoinGraphs` grows join graphs by one edge per iteration up to
//! λ#edges, using two extension types per `AddEdge`: (i) attach a *new*
//! node via a schema-graph condition, (ii) add a parallel/closing edge
//! between *existing* nodes. Graphs failing `isValid` (primary-key
//! coverage or estimated cost > λ_qcost) are excluded from mining but —
//! exactly as in the pseudo-code — still extended in later iterations.
//!
//! One deviation from the letter of the pseudo-code, following the paper's
//! evaluation: the PT-only graph Ω₀ is also reported (the case-study
//! tables contain provenance-only patterns such as the `A_1` rows of the
//! appendix), and structurally identical graphs reached along different
//! extension paths are deduplicated via [`JoinGraph::key`]. Every
//! reported graph carries that key and the index of the graph it was grown
//! from, so later stages reuse both instead of deriving them again: the
//! key is the service's APT cache key, and the parent link lets
//! [`AptBuilder`](crate::AptBuilder) materialize a graph as its parent's
//! join result plus one edge.

use std::collections::{HashMap, HashSet};

use cajade_query::Query;
use cajade_storage::Database;

use crate::cost::CostEstimator;
use crate::join_graph::{JgEdge, JgEdgeIds, JgNode, JoinGraph, JoinGraphKey, NodeLabel};
use crate::schema_graph::{JoinCond, SchemaGraph};
use crate::Result;

/// Enumeration parameters (the λ's of paper §4).
#[derive(Debug, Clone)]
pub struct EnumConfig {
    /// λ#edges: maximum number of join-graph edges (Table 1 default: 3).
    pub max_edges: usize,
    /// λ_qcost: maximum estimated APT row count before a graph is skipped.
    pub max_cost: f64,
    /// Enable the primary-key-coverage validity check (§4).
    pub check_pk_coverage: bool,
    /// Report the PT-only graph Ω₀ as a mineable graph.
    pub include_pt_only: bool,
}

impl Default for EnumConfig {
    fn default() -> Self {
        Self {
            max_edges: 3,
            max_cost: 5_000_000.0,
            check_pk_coverage: true,
            include_pt_only: true,
        }
    }
}

/// One enumerated join graph with its validity verdict.
#[derive(Debug, Clone)]
pub struct EnumeratedGraph {
    /// The graph.
    pub graph: JoinGraph,
    /// True iff the graph passed `isValid` and should be mined.
    pub valid: bool,
    /// Estimated APT cardinality.
    pub est_rows: f64,
    /// The graph's canonical key ([`JoinGraph::key`]), computed once here.
    pub key: JoinGraphKey,
    /// Index (into the enumeration output) of the graph this one extends
    /// by its last edge: `graph` is that graph's nodes and edges plus one
    /// pushed edge (and, for a fresh-node extension, one pushed node).
    /// `None` for Ω₀ and, when Ω₀ is not reported, for its extensions.
    pub parent: Option<usize>,
}

/// Algorithm 2's main entry point.
pub fn enumerate_join_graphs(
    schema: &SchemaGraph,
    db: &Database,
    query: &Query,
    pt_rows: usize,
    cfg: &EnumConfig,
) -> Result<Vec<EnumeratedGraph>> {
    let estimator = CostEstimator::new(db, schema)?;
    // `SchemaGraph::adjacent` clones every condition it returns, and the
    // loop below asks about the same few relations once per node of every
    // graph it extends: answer each relation once.
    let adjacency: Adjacency<'_> = schema
        .edges()
        .iter()
        .flat_map(|e| [e.a.as_str(), e.b.as_str()])
        .map(|rel| (rel, schema.adjacent(rel)))
        .collect();
    let mut seen: HashSet<JoinGraphKey> = HashSet::new();
    let mut out: Vec<EnumeratedGraph> = Vec::new();

    let omega0 = JoinGraph::pt_only();
    let key0 = omega0.key();
    seen.insert(key0.clone());
    if cfg.include_pt_only {
        out.push(EnumeratedGraph {
            graph: omega0.clone(),
            valid: true,
            est_rows: pt_rows as f64,
            key: key0,
            parent: None,
        });
    }

    // The graphs of the previous size, as indices into `out`; `None` is
    // Ω₀ when it is not reported.
    let mut prev: Vec<Option<usize>> = vec![cfg.include_pt_only.then_some(0)];
    for _size in 1..=cfg.max_edges {
        let mut new_graphs: Vec<(JoinGraph, JoinGraphKey, Option<usize>)> = Vec::new();
        for &parent in &prev {
            let omega = parent.map_or(&omega0, |i| &out[i].graph);
            extend_jg(&adjacency, query, omega, &mut |ext| {
                // Most extensions were reached along another path already:
                // key first, build only what is new.
                let key = ext.key();
                if !seen.contains(&key) {
                    seen.insert(key.clone());
                    new_graphs.push((ext.build(), key, parent));
                }
            });
        }
        prev.clear();
        for (graph, key, parent) in new_graphs {
            let est_rows = estimator.estimate_apt_rows(pt_rows, &graph, query);
            let valid = is_valid(db, &graph, est_rows, cfg)?;
            prev.push(Some(out.len()));
            out.push(EnumeratedGraph {
                graph,
                valid,
                est_rows,
                key,
                parent,
            });
        }
        if prev.is_empty() {
            break;
        }
    }
    Ok(out)
}

/// A one-edge extension of `omega`, described but not built.
struct Extension<'a> {
    omega: &'a JoinGraph,
    /// The new edge's endpoints and labels; `ids.to == omega.nodes.len()`
    /// attaches a fresh node.
    ids: JgEdgeIds,
    /// Relation at the `to` end.
    end_rel: &'a str,
    /// Condition oriented `from` → `to`.
    cond: &'a JoinCond,
}

impl Extension<'_> {
    /// The extended graph's canonical key.
    fn key(&self) -> JoinGraphKey {
        self.omega.key_with(Some((&self.ids, self.end_rel)))
    }

    /// The extended graph: `omega` plus one pushed edge, after one pushed
    /// node when the edge reaches a fresh one.
    fn build(&self) -> JoinGraph {
        let mut g = self.omega.clone();
        if self.ids.to == g.nodes.len() {
            g.nodes.push(JgNode {
                label: NodeLabel::Rel(self.end_rel.to_string()),
            });
        }
        g.edges.push(JgEdge {
            from: self.ids.from,
            to: self.ids.to,
            cond: self.cond.clone(),
            schema_edge: self.ids.schema_edge,
            cond_idx: self.ids.cond_idx,
            pt_from_idx: self.ids.pt_from_idx,
        });
        g
    }
}

/// [`SchemaGraph::adjacent`] of every relation the schema graph mentions.
type Adjacency<'s> = HashMap<&'s str, Vec<(usize, usize, &'s str, JoinCond)>>;

/// Algorithm 2's `ExtendJG`: visits all one-edge extensions of `omega`.
fn extend_jg<'a>(
    adjacency: &'a Adjacency<'_>,
    query: &'a Query,
    omega: &'a JoinGraph,
    visit: &mut impl FnMut(Extension<'a>),
) {
    for v in 0..omega.nodes.len() {
        // Relations represented by v: all accessed relations for PT,
        // otherwise the node's own relation.
        let rels: Vec<(&str, Option<usize>)> = match &omega.nodes[v].label {
            NodeLabel::Pt => {
                // One entry per FROM-list position (a relation aliased
                // twice yields parallel-edge candidates, paper §2.2's
                // disambiguation case (2)).
                query
                    .from
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (t.table.as_str(), Some(i)))
                    .collect()
            }
            NodeLabel::Rel(r) => vec![(r.as_str(), None)],
        };
        for (rel, pt_from_idx) in rels {
            for &(schema_edge, cond_idx, end_rel, ref cond) in
                adjacency.get(rel).into_iter().flatten()
            {
                let edge_to = |to: usize| Extension {
                    omega,
                    ids: JgEdgeIds {
                        from: v,
                        to,
                        schema_edge,
                        cond_idx,
                        pt_from_idx,
                    },
                    end_rel,
                    cond,
                };
                add_edge(omega, edge_to, visit);
            }
        }
    }
}

/// Algorithm 2's `AddEdge`: connect `v` to a *new* node labelled
/// `end_rel`, and to every *existing* node labelled `end_rel` not already
/// connected by the same condition. `edge_to(node)` is the candidate edge
/// ending at `node`.
fn add_edge<'a>(
    omega: &JoinGraph,
    edge_to: impl Fn(usize) -> Extension<'a>,
    visit: &mut impl FnMut(Extension<'a>),
) {
    // (i) Fresh node.
    visit(edge_to(omega.nodes.len()));

    // (ii) Existing nodes with the right label (never PT, never v itself —
    // Definition 3 forbids PT self-edges, and a genuine self-edge on a
    // context node adds a tautology).
    for v2 in 0..omega.nodes.len() {
        let ext = edge_to(v2);
        let v = ext.ids.from;
        if v2 == v || omega.rel_of(v2) != Some(ext.end_rel) {
            continue;
        }
        let duplicate = omega.edges.iter().any(|e| {
            let same_pair = (e.from == v && e.to == v2) || (e.from == v2 && e.to == v);
            same_pair
                && e.schema_edge == ext.ids.schema_edge
                && e.cond_idx == ext.ids.cond_idx
                && e.pt_from_idx == ext.ids.pt_from_idx
        });
        if !duplicate {
            visit(ext);
        }
    }
}

/// Algorithm 2's `isValid`: primary-key coverage + cost threshold.
///
/// PK coverage (§4): for every non-PT node, each primary-key attribute of
/// its relation must be referenced by at least one incident edge's
/// condition on that node's side — otherwise the APT blows up with
/// redundant rows (the `PlayerGameScoring` example of §4).
fn is_valid(db: &Database, g: &JoinGraph, est_rows: f64, cfg: &EnumConfig) -> Result<bool> {
    if cfg.check_pk_coverage {
        for (idx, node) in g.nodes.iter().enumerate() {
            let NodeLabel::Rel(rel) = &node.label else {
                continue;
            };
            let table = db.table(rel)?;
            for pk_attr in table.schema().primary_key() {
                let covered = g.edges.iter().any(|e| {
                    e.cond.pairs.iter().any(|p| {
                        (e.from == idx && p.left == pk_attr) || (e.to == idx && p.right == pk_attr)
                    })
                });
                if !covered {
                    return Ok(false);
                }
            }
        }
    }
    Ok(est_rows <= cfg.max_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_graph::JoinCond;
    use cajade_query::parse_sql;
    use cajade_storage::{AttrKind, DataType, SchemaBuilder, Value};

    /// game(game_id) ← stats(game_id, pts); stats has a composite key
    /// (game_id, player) so joining on game_id alone fails PK coverage.
    fn setup() -> (Database, SchemaGraph, Query) {
        let mut db = Database::new("t");
        db.create_table(
            SchemaBuilder::new("game")
                .column_pk("game_id", DataType::Int, AttrKind::Categorical)
                .column("team", DataType::Str, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db.create_table(
            SchemaBuilder::new("stats")
                .column_pk("game_id", DataType::Int, AttrKind::Categorical)
                .column_pk("player", DataType::Str, AttrKind::Categorical)
                .column("pts", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        db.create_table(
            SchemaBuilder::new("player")
                .column_pk("player", DataType::Str, AttrKind::Categorical)
                .column("age", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let alice = db.intern("alice");
        for i in 0..20 {
            db.table_mut("game")
                .unwrap()
                .push_row(vec![Value::Int(i), Value::Str(alice)])
                .unwrap();
            db.table_mut("stats")
                .unwrap()
                .push_row(vec![Value::Int(i), Value::Str(alice), Value::Int(i)])
                .unwrap();
        }
        db.table_mut("player")
            .unwrap()
            .push_row(vec![Value::Str(alice), Value::Int(30)])
            .unwrap();

        let mut schema = SchemaGraph::new();
        schema.add_condition("game", "stats", JoinCond::on(&[("game_id", "game_id")]));
        schema.add_condition("stats", "player", JoinCond::on(&[("player", "player")]));
        let query = parse_sql("SELECT count(*) AS c, team FROM game GROUP BY team").unwrap();
        (db, schema, query)
    }

    #[test]
    fn enumerates_expected_graphs_at_depth_two() {
        let (db, schema, query) = setup();
        let cfg = EnumConfig {
            max_edges: 2,
            ..Default::default()
        };
        let graphs = enumerate_join_graphs(&schema, &db, &query, 20, &cfg).unwrap();
        // Depth 0: PT. Depth 1: PT-stats. Depth 2: PT-stats-player and
        // PT-stats + a second parallel PT-stats… (dedup removes repeats).
        let structures: Vec<String> = graphs.iter().map(|g| g.graph.structure_string()).collect();
        assert!(structures.contains(&"PT".to_string()));
        assert!(structures.contains(&"PT - stats".to_string()));
        assert!(structures.iter().any(|s| s.contains("player")));
    }

    #[test]
    fn pk_coverage_invalidates_partial_key_join() {
        let (db, schema, query) = setup();
        let cfg = EnumConfig {
            max_edges: 1,
            ..Default::default()
        };
        let graphs = enumerate_join_graphs(&schema, &db, &query, 20, &cfg).unwrap();
        // PT - stats joins only on game_id but stats' PK is (game_id,
        // player): invalid at depth 1.
        let pt_stats = graphs
            .iter()
            .find(|g| g.graph.structure_string() == "PT - stats")
            .expect("PT - stats enumerated");
        assert!(!pt_stats.valid, "partial-key join must fail PK coverage");
    }

    #[test]
    fn closing_edge_fixes_pk_coverage() {
        let (db, schema, query) = setup();
        let cfg = EnumConfig {
            max_edges: 2,
            ..Default::default()
        };
        let graphs = enumerate_join_graphs(&schema, &db, &query, 20, &cfg).unwrap();
        // PT - stats - player covers stats' full PK (game_id via PT,
        // player via player) — wait: player node's PK is `player`, covered
        // by the stats-player edge; stats covers game_id + player. Valid.
        let valid_deep = graphs
            .iter()
            .find(|g| g.graph.nodes.len() == 3 && g.valid)
            .map(|g| g.graph.structure_string());
        assert_eq!(valid_deep.as_deref(), Some("PT - stats - player"));
    }

    #[test]
    fn cost_threshold_invalidates_expensive_graphs() {
        let (db, schema, query) = setup();
        let cfg = EnumConfig {
            max_edges: 1,
            max_cost: 0.5, // everything is too expensive
            check_pk_coverage: false,
            include_pt_only: true,
        };
        let graphs = enumerate_join_graphs(&schema, &db, &query, 20, &cfg).unwrap();
        assert!(graphs.iter().skip(1).all(|g| !g.valid));
    }

    #[test]
    fn dedup_keeps_enumeration_small() {
        let (db, schema, query) = setup();
        let cfg = EnumConfig {
            max_edges: 3,
            ..Default::default()
        };
        let graphs = enumerate_join_graphs(&schema, &db, &query, 20, &cfg).unwrap();
        let mut keys: Vec<&JoinGraphKey> = graphs.iter().map(|g| &g.key).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "no duplicate graphs in output");
    }

    #[test]
    fn invalid_graphs_still_extended() {
        // PT - stats is invalid at depth 1 (PK), but its extension
        // PT - stats - player appears at depth 2 — matching the paper's
        // loop structure where Ω_new feeds Ω_prev regardless of validity.
        let (db, schema, query) = setup();
        let cfg = EnumConfig {
            max_edges: 2,
            ..Default::default()
        };
        let graphs = enumerate_join_graphs(&schema, &db, &query, 20, &cfg).unwrap();
        assert!(graphs
            .iter()
            .any(|g| g.graph.structure_string() == "PT - stats - player"));
    }
}
