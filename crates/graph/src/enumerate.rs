//! Join-graph enumeration — paper Algorithm 2.
//!
//! `EnumerateJoinGraphs` grows join graphs by one edge per iteration up to
//! λ#edges, using two extension types per `AddEdge`: (i) attach a *new*
//! node via a schema-graph condition, (ii) add a parallel/closing edge
//! between *existing* nodes. Graphs failing `isValid` (primary-key
//! coverage or estimated cost > λ_qcost) are excluded from mining but —
//! exactly as in the pseudo-code — still extended in later iterations.
//!
//! Two deviations from the letter of the pseudo-code. Following the
//! paper's evaluation, the PT-only graph Ω₀ is also reported (the
//! case-study tables contain provenance-only patterns such as the `A_1`
//! rows of the appendix), and structurally identical graphs reached along
//! different extension paths are deduplicated via [`JoinGraph::key`].
//! And, leaving the returned valid graphs as they are: an invalid graph is
//! kept only because a later round may complete it, which a graph of the
//! last round cannot be — so a last-round extension is *decided, not
//! built*. Each listed graph carries its PK deficit (the key attributes no
//! edge covers yet), a child's deficit follows from its parent's and the
//! one new edge, and in the round `size == λ#edges` an extension whose
//! deficit is not empty is counted and dropped before it is keyed, built
//! or costed. The listing is therefore every graph whose keys are covered
//! — valid, or `valid: false` on λ_qcost alone — and every graph below the
//! last size; on the NBA `GSW` query that is 438 graphs for 8 221
//! extensions visited, where building every graph of the last round gave
//! 3 906, and the same 202 valid ones in the same order.
//!
//! Every reported graph carries its key and the index of the graph it was
//! grown from, so later stages reuse both instead of deriving them again:
//! the key is the service's APT cache key, and the parent link lets
//! [`AptBuilder`](crate::AptBuilder) materialize a graph as its parent's
//! join result plus one edge.

use std::collections::{HashMap, HashSet};

use cajade_query::Query;
use cajade_storage::Database;

use crate::cost::CostEstimator;
use crate::join_graph::{JgEdge, JgEdgeIds, JgNode, JoinGraph, JoinGraphKey, NodeLabel};
use crate::schema_graph::{AttrPair, JoinCond, SchemaGraph};
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

/// An enumeration's listing with the two counts of the work behind it
/// (deterministic: a function of the schema graph, the query and `cfg`).
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// In enumeration order: every valid graph, every graph a later round
    /// could still extend, and the last-round graphs only λ_qcost rules
    /// out (costing one takes building it, so it is listed like before).
    pub graphs: Vec<EnumeratedGraph>,
    /// One-edge extensions `ExtendJG` visited, over all rounds.
    pub extensions_visited: u64,
    /// Of those, the last-round extensions dropped on their PK deficit:
    /// never keyed, built, costed or listed.
    pub extensions_rejected: u64,
}

/// Algorithm 2's main entry point: [`Enumeration::of`]'s listing.
pub fn enumerate_join_graphs(
    schema: &SchemaGraph,
    db: &Database,
    query: &Query,
    pt_rows: usize,
    cfg: &EnumConfig,
) -> Result<Vec<EnumeratedGraph>> {
    Enumeration::of(schema, db, query, pt_rows, cfg).map(|e| e.graphs)
}

impl Enumeration {
    /// Runs Algorithm 2 for `query` over `schema`, `pt_rows` being the
    /// size of the query's provenance table.
    pub fn of(
        schema: &SchemaGraph,
        db: &Database,
        query: &Query,
        pt_rows: usize,
        cfg: &EnumConfig,
    ) -> Result<Self> {
        enumerate(schema, db, query, pt_rows, cfg).map(|(e, _)| e)
    }
}

/// A graph's *PK deficit*: the `(node, primary-key attribute)` pairs no
/// incident edge's condition references on that node's side. PK coverage
/// (§4) is an empty deficit — otherwise the APT blows up with redundant
/// rows (the `PlayerGameScoring` example of §4).
type Deficit<'s> = Vec<(usize, &'s str)>;

/// Primary-key attributes per relation; empty when
/// [`EnumConfig::check_pk_coverage`] is off, so that no node ever has a
/// key to cover.
type Keys<'s> = HashMap<&'s str, Vec<&'s str>>;

/// The PK deficit of `ext`'s graph, derived from its parent's: the new
/// edge's `from` node loses the condition's left attributes, its `to` node
/// the right ones, and a fresh node starts from its relation's key.
fn deficit_after<'a, 's: 'a>(
    parent: &'a [(usize, &'s str)],
    ext: &'a Extension<'_>,
    keys: &'a Keys<'s>,
) -> impl Iterator<Item = (usize, &'s str)> + 'a {
    let JgEdgeIds { from, to, .. } = ext.ids;
    let fresh: &[&str] = match to == ext.omega.nodes.len() {
        true => keys.get(ext.end_rel).map_or(&[], Vec::as_slice),
        false => &[],
    };
    let owed = parent.iter().copied();
    owed.chain(fresh.iter().map(move |&attr| (to, attr)))
        .filter(move |&(node, attr)| {
            let covers =
                |p: &AttrPair| (node == from && p.left == attr) || (node == to && p.right == attr);
            !ext.cond.pairs.iter().any(covers)
        })
}

/// The body: the listing, and beside each listed graph its deficit.
fn enumerate<'s>(
    schema: &'s SchemaGraph,
    db: &'s Database,
    query: &Query,
    pt_rows: usize,
    cfg: &EnumConfig,
) -> Result<(Enumeration, Vec<Deficit<'s>>)> {
    let estimator = CostEstimator::new(db, schema)?;
    // `SchemaGraph::adjacent` clones every condition it returns, and the
    // loop below asks about the same few relations once per node of every
    // graph it extends: answer each relation once. Likewise its key.
    let mut adjacency: Adjacency<'s> = HashMap::new();
    let mut keys: Keys<'s> = HashMap::new();
    for rel in schema.edges().iter().flat_map(|e| [&e.a, &e.b]) {
        if adjacency.contains_key(rel.as_str()) {
            continue;
        }
        adjacency.insert(rel, schema.adjacent(rel));
        if cfg.check_pk_coverage {
            keys.insert(rel, db.table(rel)?.schema().primary_key());
        }
    }
    let mut seen: HashSet<JoinGraphKey> = HashSet::new();
    let mut out: Vec<EnumeratedGraph> = Vec::new();
    let mut deficits: Vec<Deficit<'s>> = Vec::new();
    let (mut visited, mut rejected) = (0u64, 0u64);

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
        deficits.push(Vec::new());
    }

    // The graphs of the previous size, as indices into `out`; `None` is
    // Ω₀ when it is not reported.
    let mut prev: Vec<Option<usize>> = vec![cfg.include_pt_only.then_some(0)];
    for size in 1..=cfg.max_edges {
        let mut new_graphs: Vec<(JoinGraph, JoinGraphKey, Option<usize>, Deficit<'s>)> = Vec::new();
        for &parent in &prev {
            let (omega, parent_deficit) = match parent {
                Some(i) => (&out[i].graph, deficits[i].as_slice()),
                None => (&omega0, [].as_slice()),
            };
            extend_jg(&adjacency, query, omega, &mut |ext| {
                visited += 1;
                let mut deficit = deficit_after(parent_deficit, &ext, &keys).peekable();
                // No round is left to complete a graph of the last size: one
                // that cannot be valid is decided here, on its description.
                if size == cfg.max_edges && deficit.peek().is_some() {
                    rejected += 1;
                    return;
                }
                // Most extensions were reached along another path already:
                // key first, build only what is new.
                let key = ext.key();
                if !seen.contains(&key) {
                    seen.insert(key.clone());
                    new_graphs.push((ext.build(), key, parent, deficit.collect()));
                }
            });
        }
        prev.clear();
        for (graph, key, parent, deficit) in new_graphs {
            let est_rows = estimator.estimate_apt_rows(pt_rows, &graph, query);
            prev.push(Some(out.len()));
            out.push(EnumeratedGraph {
                graph,
                valid: deficit.is_empty() && est_rows <= cfg.max_cost,
                est_rows,
                key,
                parent,
            });
            deficits.push(deficit);
        }
        if prev.is_empty() {
            break;
        }
    }
    let enumeration = Enumeration {
        graphs: out,
        extensions_visited: visited,
        extensions_rejected: rejected,
    };
    Ok((enumeration, deficits))
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
        let at = |max_edges| {
            let cfg = EnumConfig {
                max_edges,
                ..Default::default()
            };
            enumerate_join_graphs(&schema, &db, &query, 20, &cfg).unwrap()
        };
        let find = |graphs: &[EnumeratedGraph], structure: &str| {
            graphs
                .iter()
                .position(|g| g.graph.structure_string() == structure)
        };
        // PT - stats joins only on game_id but stats' PK is (game_id,
        // player). At depth 1 nothing can complete it: not listed.
        assert_eq!(find(&at(1), "PT - stats"), None);
        // At depth 2 a later round can: listed, invalid, and extended.
        let graphs = at(2);
        let pt_stats = find(&graphs, "PT - stats").expect("PT - stats enumerated");
        assert!(
            !graphs[pt_stats].valid,
            "partial-key join must fail PK coverage"
        );
        let completed = find(&graphs, "PT - stats - player").expect("extended");
        assert_eq!(graphs[completed].parent, Some(pt_stats));
        assert!(graphs[completed].valid);
    }

    /// What is carried beside each listed graph, and the two counts.
    #[test]
    fn deficit_follows_the_edges() {
        let (db, schema, query) = setup();
        let cfg = EnumConfig {
            max_edges: 2,
            ..Default::default()
        };
        let (e, deficits) = enumerate(&schema, &db, &query, 20, &cfg).unwrap();
        let listed: Vec<(String, &[(usize, &str)])> = e
            .graphs
            .iter()
            .zip(&deficits)
            .map(|(g, d)| (g.graph.structure_string(), d.as_slice()))
            .collect();
        // Round 1 lists PT - stats owing its `player`. Round 2 visits its
        // three extensions: a second `stats` off PT and a `game` off
        // `stats` leave the debt unpaid and are dropped; `player` pays it
        // and brings a key the same edge covers.
        assert_eq!(
            listed,
            [
                ("PT".to_string(), &[][..]),
                ("PT - stats".to_string(), &[(1, "player")][..]),
                ("PT - stats - player".to_string(), &[][..]),
            ]
        );
        assert_eq!((e.extensions_visited, e.extensions_rejected), (1 + 3, 2));
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
