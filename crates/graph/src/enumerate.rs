//! Join-graph enumeration — paper Algorithm 2.
//!
//! `EnumerateJoinGraphs` grows join graphs by one edge per iteration up to
//! λ#edges, using two extension types per `AddEdge`: (i) attach a *new*
//! node via a schema-graph condition, (ii) add a parallel/closing edge
//! between *existing* nodes. Graphs failing `isValid` are excluded from
//! mining but — exactly as in the pseudo-code — still extended in later
//! iterations. `isValid` here is primary-key coverage; the paper's other
//! half, query cost ≤ λ_qcost, is counted in the join step when a graph
//! is materialized ([`AptBuilder`](crate::AptBuilder)), not estimated.
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
//! deficit is not empty is counted and dropped before it is keyed or
//! built. The listing is therefore every valid graph and every graph below
//! the last size; on the NBA `GSW` query that is 438 graphs for 8 221
//! extensions visited, where building every graph of the last round gave
//! 3 906, and the same 202 valid ones in the same order.
//!
//! Every reported graph carries its key — the one deduplication compared;
//! no cache is keyed by it, a query's graphs are looked up by enumeration
//! index — and the index of the graph it was grown from, which lets
//! [`AptBuilder`](crate::AptBuilder) materialize a graph as its parent's
//! join result plus one edge.
//!
//! The work is paid per listed graph, not per visited extension. Each
//! relation's adjacency, key and label are resolved once per enumeration,
//! so an extension is a few indices and borrowed references; it is decided
//! with no lookup and keyed into buffers the whole enumeration reuses, and
//! a key is copied out only for a graph not seen before. A listed graph
//! shares its labels (`Arc<str>`) and conditions
//! ([`Pairs`](crate::Pairs)) with its parent, so copying the parent costs
//! the graph's two vectors. On the NBA `GSW` query one enumeration
//! allocates 2 172 heap blocks, about five per listed graph (the graph's
//! two vectors, its key's two, its PK deficit), where a key built per
//! extension and names and conditions copied per listed graph took
//! 15 207, about 35.

use std::collections::HashMap;
use std::sync::Arc;

use cajade_query::Query;
use cajade_storage::rowkey::KeyedState;
use cajade_storage::Database;

use crate::join_graph::{
    JgEdge, JgEdgeIds, JgNode, JoinGraph, JoinGraphKey, KeyScratch, NodeLabel,
};
use crate::schema_graph::{AttrPair, JoinCond, SchemaGraph};
use crate::Result;

/// Enumeration parameters (the λ's of paper §4).
#[derive(Debug, Clone)]
pub struct EnumConfig {
    /// λ#edges: maximum number of join-graph edges (Table 1 default: 3).
    pub max_edges: usize,
    /// Unread: λ_qcost is counted in the join step, and
    /// [`AptBuilder::new`](crate::AptBuilder::new) takes it. ROADMAP item
    /// 15 removes the field with the benchmark code that builds this
    /// struct by hand.
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
    /// True iff the graph passed `isValid` (primary-key coverage) and
    /// should be mined.
    pub valid: bool,
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
    /// In enumeration order: every valid graph and every graph a later
    /// round could still extend.
    pub graphs: Vec<EnumeratedGraph>,
    /// One-edge extensions `ExtendJG` visited, over all rounds.
    pub extensions_visited: u64,
    /// Of those, the last-round extensions dropped on their PK deficit:
    /// never keyed, built or listed.
    pub extensions_rejected: u64,
}

/// Algorithm 2's main entry point: [`Enumeration::of`]'s listing.
/// `_pt_rows`, the size of the query's provenance table, is unread, like
/// [`EnumConfig::max_cost`], and goes with it.
pub fn enumerate_join_graphs(
    schema: &SchemaGraph,
    db: &Database,
    query: &Query,
    _pt_rows: usize,
    cfg: &EnumConfig,
) -> Result<Vec<EnumeratedGraph>> {
    Enumeration::of(schema, db, query, cfg).map(|e| e.graphs)
}

impl Enumeration {
    /// Runs Algorithm 2 for `query` over `schema`.
    pub fn of(
        schema: &SchemaGraph,
        db: &Database,
        query: &Query,
        cfg: &EnumConfig,
    ) -> Result<Self> {
        enumerate(schema, db, query, cfg).map(|(e, _)| e)
    }
}

/// A graph's *PK deficit*: the `(node, primary-key attribute)` pairs no
/// incident edge's condition references on that node's side. PK coverage
/// (§4) is an empty deficit — otherwise the APT blows up with redundant
/// rows (the `PlayerGameScoring` example of §4).
type Deficit<'s> = Vec<(usize, &'s str)>;

/// One relation of the schema graph, resolved once per enumeration.
struct Rel<'s> {
    /// The label of every node of this relation the enumeration makes.
    label: Arc<str>,
    /// Its primary-key attributes; empty when
    /// [`EnumConfig::check_pk_coverage`] is off, so that no node ever has
    /// a key to cover.
    key: Vec<&'s str>,
    /// Every way it joins out ([`SchemaGraph::adjacent`]).
    adjacent: Vec<Adjacent>,
}

/// One way a relation joins out: schema edge, condition index, the
/// relation at the other end (an index into [`Relations::rels`]) and the
/// condition oriented from this relation.
struct Adjacent {
    schema_edge: usize,
    cond_idx: usize,
    end: usize,
    cond: JoinCond,
}

/// The relations of the schema graph, and which of them each of the
/// query's FROM entries is.
struct Relations<'s> {
    rels: Vec<Rel<'s>>,
    by_name: HashMap<&'s str, usize>,
    /// Per FROM-list position, its relation; `None` for one the schema
    /// graph does not mention (it joins nothing).
    from: Vec<Option<usize>>,
}

impl<'s> Relations<'s> {
    fn new(
        schema: &'s SchemaGraph,
        db: &'s Database,
        query: &Query,
        cfg: &EnumConfig,
    ) -> Result<Self> {
        let mut by_name: HashMap<&'s str, usize> = HashMap::new();
        let mut rels = Vec::new();
        for rel in schema.edges().iter().flat_map(|e| [&e.a, &e.b]) {
            if by_name.contains_key(rel.as_str()) {
                continue;
            }
            by_name.insert(rel, rels.len());
            let key = match cfg.check_pk_coverage {
                true => db.table(rel)?.schema().primary_key(),
                false => Vec::new(),
            };
            rels.push(Rel {
                label: Arc::from(rel.as_str()),
                key,
                adjacent: Vec::new(),
            });
        }
        for (name, &at) in &by_name {
            let adjacent = schema.adjacent(name).into_iter();
            rels[at].adjacent = adjacent
                .map(|(schema_edge, cond_idx, end, cond)| Adjacent {
                    schema_edge,
                    cond_idx,
                    end: by_name[end],
                    cond,
                })
                .collect();
        }
        let from = query
            .from
            .iter()
            .map(|t| by_name.get(t.table.as_str()).copied())
            .collect();
        Ok(Self {
            rels,
            by_name,
            from,
        })
    }
}

/// The PK deficit of `ext`'s graph, derived from its parent's: the new
/// edge's `from` node loses the condition's left attributes, its `to` node
/// the right ones, and a fresh node starts from its relation's key.
fn deficit_after<'a, 's: 'a>(
    parent: &'a [(usize, &'s str)],
    ext: &'a Extension<'_, 's>,
) -> impl Iterator<Item = (usize, &'s str)> + 'a {
    let JgEdgeIds { from, to, .. } = ext.ids;
    let fresh: &[&str] = match to == ext.omega.nodes.len() {
        true => &ext.end.key,
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
    cfg: &EnumConfig,
) -> Result<(Enumeration, Vec<Deficit<'s>>)> {
    let relations = Relations::new(schema, db, query, cfg)?;
    // Every listed graph's key, stored once: here while the rounds run,
    // in its listed graph after. Ω₀ is not here: no extension is Ω₀.
    let mut seen: HashMap<JoinGraphKey, usize, KeyedState> = HashMap::default();
    let mut scratch = KeyScratch::default();
    let mut out: Vec<EnumeratedGraph> = Vec::new();
    let mut deficits: Vec<Deficit<'s>> = Vec::new();
    let (mut visited, mut rejected) = (0u64, 0u64);

    let omega0 = JoinGraph::pt_only();
    if cfg.include_pt_only {
        out.push(EnumeratedGraph {
            graph: omega0.clone(),
            valid: true,
            key: omega0.key(),
            parent: None,
        });
        deficits.push(Vec::new());
    }

    // The graphs of the previous size, as indices into `out`; `None` is
    // Ω₀ when it is not reported.
    let mut prev: Vec<Option<usize>> = vec![cfg.include_pt_only.then_some(0)];
    for size in 1..=cfg.max_edges {
        let mut new_graphs: Vec<(JoinGraph, Option<usize>, Deficit<'s>)> = Vec::new();
        let listed = out.len();
        for &parent in &prev {
            let (omega, parent_deficit) = match parent {
                Some(i) => (&out[i].graph, deficits[i].as_slice()),
                None => (&omega0, [].as_slice()),
            };
            extend_jg(&relations, omega, &mut |ext| {
                visited += 1;
                let mut deficit = deficit_after(parent_deficit, &ext).peekable();
                // No round is left to complete a graph of the last size: one
                // that cannot be valid is decided here, on its description.
                if size == cfg.max_edges && deficit.peek().is_some() {
                    rejected += 1;
                    return;
                }
                // Most extensions were reached along another path already:
                // key first, build only what is new.
                omega.key_into(Some((&ext.ids, &ext.end.label)), &mut scratch);
                if !seen.contains_key(&scratch.key) {
                    seen.insert(scratch.key.clone(), listed + new_graphs.len());
                    new_graphs.push((ext.build(), parent, deficit.collect()));
                }
            });
        }
        prev.clear();
        for (graph, parent, deficit) in new_graphs {
            prev.push(Some(out.len()));
            out.push(EnumeratedGraph {
                graph,
                valid: deficit.is_empty(),
                key: JoinGraphKey::default(),
                parent,
            });
            deficits.push(deficit);
        }
        if prev.is_empty() {
            break;
        }
    }
    for (key, i) in seen {
        out[i].key = key;
    }
    let enumeration = Enumeration {
        graphs: out,
        extensions_visited: visited,
        extensions_rejected: rejected,
    };
    Ok((enumeration, deficits))
}

/// A one-edge extension of `omega`, described but not built.
struct Extension<'a, 's> {
    omega: &'a JoinGraph,
    /// The new edge's endpoints and labels; `ids.to == omega.nodes.len()`
    /// attaches a fresh node.
    ids: JgEdgeIds,
    /// Relation at the `to` end.
    end: &'a Rel<'s>,
    /// Condition oriented `from` → `to`.
    cond: &'a JoinCond,
}

impl Extension<'_, '_> {
    /// The extended graph: `omega` plus one pushed edge, after one pushed
    /// node when the edge reaches a fresh one.
    fn build(&self) -> JoinGraph {
        let omega = self.omega;
        let fresh = self.ids.to == omega.nodes.len();
        let mut nodes = Vec::with_capacity(omega.nodes.len() + usize::from(fresh));
        nodes.extend_from_slice(&omega.nodes);
        if fresh {
            nodes.push(JgNode {
                label: NodeLabel::Rel(Arc::clone(&self.end.label)),
            });
        }
        let mut edges = Vec::with_capacity(omega.edges.len() + 1);
        edges.extend_from_slice(&omega.edges);
        edges.push(JgEdge {
            from: self.ids.from,
            to: self.ids.to,
            cond: self.cond.clone(),
            schema_edge: self.ids.schema_edge,
            cond_idx: self.ids.cond_idx,
            pt_from_idx: self.ids.pt_from_idx,
        });
        JoinGraph { nodes, edges }
    }
}

/// Algorithm 2's `ExtendJG`: visits all one-edge extensions of `omega`.
fn extend_jg<'a, 's: 'a>(
    relations: &'a Relations<'s>,
    omega: &'a JoinGraph,
    visit: &mut impl FnMut(Extension<'a, 's>),
) {
    for v in 0..omega.nodes.len() {
        let mut join_out = |rel: Option<usize>, pt_from_idx: Option<usize>| {
            let adjacent = rel.map_or(&[][..], |r| &relations.rels[r].adjacent);
            for adj in adjacent {
                let edge_to = |to: usize| Extension {
                    omega,
                    ids: JgEdgeIds {
                        from: v,
                        to,
                        schema_edge: adj.schema_edge,
                        cond_idx: adj.cond_idx,
                        pt_from_idx,
                    },
                    end: &relations.rels[adj.end],
                    cond: &adj.cond,
                };
                add_edge(omega, edge_to, visit);
            }
        };
        // Relations represented by v: all accessed relations for PT,
        // otherwise the node's own relation.
        match &omega.nodes[v].label {
            // One entry per FROM-list position (a relation aliased twice
            // yields parallel-edge candidates, paper §2.2's disambiguation
            // case (2)).
            NodeLabel::Pt => {
                for (i, &rel) in relations.from.iter().enumerate() {
                    join_out(rel, Some(i));
                }
            }
            NodeLabel::Rel(r) => join_out(relations.by_name.get(&**r).copied(), None),
        }
    }
}

/// Algorithm 2's `AddEdge`: connect `v` to a *new* node labelled with
/// the end relation, and to every *existing* node so labelled not already
/// connected by the same condition. `edge_to(node)` is the candidate edge
/// ending at `node`.
fn add_edge<'a, 's: 'a>(
    omega: &JoinGraph,
    edge_to: impl Fn(usize) -> Extension<'a, 's>,
    visit: &mut impl FnMut(Extension<'a, 's>),
) {
    // (i) Fresh node.
    visit(edge_to(omega.nodes.len()));

    // (ii) Existing nodes with the right label (never PT, never v itself —
    // Definition 3 forbids PT self-edges, and a genuine self-edge on a
    // context node adds a tautology).
    for v2 in 0..omega.nodes.len() {
        let ext = edge_to(v2);
        let v = ext.ids.from;
        if v2 == v || omega.rel_of(v2) != Some(&*ext.end.label) {
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
    use std::collections::HashSet;

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
        let (e, deficits) = enumerate(&schema, &db, &query, &cfg).unwrap();
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
    fn dedup_keeps_enumeration_small() {
        let (db, schema, query) = setup();
        let cfg = EnumConfig {
            max_edges: 3,
            ..Default::default()
        };
        let graphs = enumerate_join_graphs(&schema, &db, &query, 20, &cfg).unwrap();
        let keys: HashSet<&JoinGraphKey> = graphs.iter().map(|g| &g.key).collect();
        assert_eq!(keys.len(), graphs.len(), "no duplicate graphs in output");
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

    /// Keys every extension of every listed graph a later round extends
    /// — every extension the enumeration visits — in one scratch reused
    /// throughout, and checks each against the built graph's own key.
    /// Returns how many it keyed.
    fn assert_scratch_keys_match(
        schema: &SchemaGraph,
        db: &Database,
        query: &Query,
        cfg: &EnumConfig,
    ) -> u64 {
        let e = Enumeration::of(schema, db, query, cfg).unwrap();
        let relations = Relations::new(schema, db, query, cfg).unwrap();
        let mut scratch = KeyScratch::default();
        let mut keyed = 0;
        let extended = e
            .graphs
            .iter()
            .filter(|g| g.graph.num_edges() < cfg.max_edges);
        for g in extended {
            extend_jg(&relations, &g.graph, &mut |ext| {
                let extra = Some((&ext.ids, &*ext.end.label));
                g.graph.key_into(extra, &mut scratch);
                let built = ext.build();
                assert_eq!(scratch.key, built.key(), "{}", built.structure_string());
                assert_eq!(scratch.key, g.graph.key_with(extra));
                keyed += 1;
            });
        }
        assert_eq!(keyed, e.extensions_visited);
        keyed
    }

    /// game(gid, home, away) joins team twice, and team joins itself: the
    /// graphs hold two and three `team` nodes, closed by parallel edges.
    fn self_join_setup() -> (Database, SchemaGraph, Query) {
        let mut db = Database::new("self");
        db.create_table(
            SchemaBuilder::new("game")
                .column_pk("gid", DataType::Int, AttrKind::Categorical)
                .column("home", DataType::Int, AttrKind::Categorical)
                .column("away", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db.create_table(
            SchemaBuilder::new("team")
                .column_pk("tid", DataType::Int, AttrKind::Categorical)
                .column("conf", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        for i in 0..6 {
            let game = vec![Value::Int(i), Value::Int(i % 3), Value::Int((i + 1) % 3)];
            db.table_mut("game").unwrap().push_row(game).unwrap();
        }
        for t in 0..3 {
            let team = vec![Value::Int(t), Value::Int(t % 2)];
            db.table_mut("team").unwrap().push_row(team).unwrap();
        }
        let mut schema = SchemaGraph::new();
        schema.add_condition("game", "team", JoinCond::on(&[("home", "tid")]));
        schema.add_condition("game", "team", JoinCond::on(&[("away", "tid")]));
        schema.add_condition("team", "team", JoinCond::on(&[("conf", "conf")]));
        let query = parse_sql("SELECT count(*) AS c, home FROM game GROUP BY home").unwrap();
        (db, schema, query)
    }

    /// A generated corpus's schema graph, rebuilt as this crate's type
    /// (the generator links its own copy of the crate), same edge and
    /// condition order.
    macro_rules! local_schema {
        ($gen:expr) => {{
            let mut schema = SchemaGraph::new();
            for e in $gen.schema_graph.edges() {
                for c in &e.conds {
                    let pairs: Vec<(&str, &str)> =
                        c.pairs.iter().map(|p| (&*p.left, &*p.right)).collect();
                    schema.add_condition(&e.a, &e.b, JoinCond::on(&pairs));
                }
            }
            schema
        }};
    }

    #[test]
    fn the_reused_key_is_the_built_graphs_key() {
        let (db, schema, query) = self_join_setup();
        let cfg = EnumConfig::default();
        assert!(assert_scratch_keys_match(&schema, &db, &query, &cfg) > 0);
        let graphs = enumerate_join_graphs(&schema, &db, &query, 6, &cfg).unwrap();
        let teams = |g: &EnumeratedGraph| {
            let nodes = 0..g.graph.nodes.len();
            nodes.filter(|&v| g.graph.rel_of(v) == Some("team")).count()
        };
        assert!(graphs.iter().any(|g| teams(g) == 3), "three team nodes");

        let nba = cajade_datagen::nba::generate(cajade_datagen::nba::NbaConfig {
            rich_stats: true,
            seed: 42,
            ..cajade_datagen::nba::NbaConfig::scaled(0.05)
        });
        let gsw = parse_sql(
            "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
             WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
             GROUP BY s.season_name",
        )
        .unwrap();
        let keyed = assert_scratch_keys_match(&local_schema!(nba), &nba.db, &gsw, &cfg);
        assert_eq!(keyed, 8_221);

        let mimic = cajade_datagen::mimic::generate(cajade_datagen::mimic::MimicConfig {
            seed: 42,
            ..cajade_datagen::mimic::MimicConfig::scaled(0.1)
        });
        let schema = local_schema!(mimic);
        for sql in [
            "SELECT COUNT(*) AS cnt, los_group FROM icustays GROUP BY los_group",
            "SELECT insurance, 1.0*SUM(hospital_expire_flag)/COUNT(*) AS death_rate \
             FROM admissions GROUP BY insurance",
        ] {
            let query = parse_sql(sql).unwrap();
            assert!(assert_scratch_keys_match(&schema, &mimic.db, &query, &cfg) > 0);
        }
    }

    /// A listed graph shares every label and condition with its parent,
    /// and a clone shares them with the graph it was cloned from.
    #[test]
    fn graphs_share_labels_and_conditions() {
        let (db, schema, query) = self_join_setup();
        let graphs =
            enumerate_join_graphs(&schema, &db, &query, 6, &EnumConfig::default()).unwrap();
        let shared = |a: &JoinGraph, b: &JoinGraph| {
            let labels = a
                .nodes
                .iter()
                .zip(&b.nodes)
                .all(|(x, y)| match (&x.label, &y.label) {
                    (NodeLabel::Pt, NodeLabel::Pt) => true,
                    (NodeLabel::Rel(x), NodeLabel::Rel(y)) => Arc::ptr_eq(x, y),
                    _ => false,
                });
            let pairs = a.edges.iter().zip(&b.edges);
            labels
                && pairs
                    .into_iter()
                    .all(|(x, y)| Arc::ptr_eq(&x.cond.pairs.0, &y.cond.pairs.0))
        };
        let mut children = 0;
        for g in &graphs {
            assert!(shared(&g.graph, &g.graph.clone()));
            if let Some(p) = g.parent {
                assert!(shared(&graphs[p].graph, &g.graph));
                children += 1;
            }
        }
        assert!(children > 10);
        // Every `team` node of the listing holds one name.
        let team = graphs
            .iter()
            .flat_map(|g| &g.graph.nodes)
            .filter_map(|n| match &n.label {
                NodeLabel::Rel(r) if &**r == "team" => Some(r),
                _ => None,
            });
        let first = team.clone().next().expect("a team node");
        assert!(team.into_iter().all(|r| Arc::ptr_eq(r, first)));
    }
}
