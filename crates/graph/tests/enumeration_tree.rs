//! The enumeration tree as the unit of sharing: structural keys, parent
//! links, and `AptBuilder` against `Apt::materialize`, a nested-loop
//! oracle, and digests recorded at the commit before the tree was shared.
//! The listing itself is checked against Algorithm 2 written out in full
//! ([`reference_enumeration`]): every extension built, every graph's
//! validity decided by a scan of the finished graph.

use std::collections::{HashMap, HashSet};

use cajade_datagen::{mimic, nba, synth, GeneratedDb};
use cajade_graph::{
    enumerate_join_graphs, Apt, AptBuilder, EnumConfig, EnumeratedGraph, Enumeration, GraphError,
    JgEdge, JgNode, JoinCond, JoinGraph, NodeLabel, SchemaGraph,
};
use cajade_query::{parse_sql, ProvenanceTable, Query};
use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};
use proptest::prelude::*;

// ---- Digests ------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01B3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes())
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes())
    }
}

/// Graph order, structure and `valid` of an enumeration.
fn enum_digest(graphs: &[EnumeratedGraph]) -> u64 {
    let mut h = Fnv::new();
    for g in graphs {
        h.u64(g.graph.nodes.len() as u64);
        for i in 1..g.graph.nodes.len() {
            h.str(g.graph.rel_of(i).unwrap());
        }
        h.u64(g.graph.edges.len() as u64);
        for e in &g.graph.edges {
            h.u64(e.from as u64);
            h.u64(e.to as u64);
            h.u64(e.schema_edge as u64);
            h.u64(e.cond_idx as u64);
            h.u64(e.pt_from_idx.map_or(0, |i| i as u64 + 1));
            for p in &e.cond.pairs {
                h.str(&p.left);
                h.str(&p.right);
            }
        }
        h.u64(g.valid as u64);
    }
    h.0
}

/// Schema, `pt_row` and every cell of an APT, in row order.
fn apt_digest(h: &mut Fnv, apt: &Apt) {
    h.u64(apt.fields.len() as u64);
    for f in &apt.fields {
        h.str(&f.name);
        h.str(&f.base_column);
        h.u64(f.node as u64);
        h.u64(f.from_pt as u64);
        h.u64(f.is_group_by as u64);
        h.str(&format!("{:?}{:?}", f.dtype, f.kind));
    }
    h.u64(apt.num_rows as u64);
    for &r in &apt.pt_row {
        h.u64(r as u64);
    }
    for c in 0..apt.fields.len() {
        for r in 0..apt.num_rows {
            match apt.value(r, c) {
                Value::Null => h.u64(0),
                Value::Int(i) => {
                    h.u64(1);
                    h.u64(i as u64)
                }
                Value::Float(f) => {
                    h.u64(2);
                    h.u64(f.to_bits())
                }
                Value::Str(s) => {
                    h.u64(3);
                    h.u64(s.0 as u64)
                }
            }
        }
    }
}

/// Field-by-field, cell-by-cell equality (NaN cells compare by bits).
fn assert_apt_eq(a: &Apt, b: &Apt, what: &str) {
    let (mut ha, mut hb) = (Fnv::new(), Fnv::new());
    apt_digest(&mut ha, a);
    apt_digest(&mut hb, b);
    assert_eq!(a.num_rows, b.num_rows, "{what}: row count");
    assert_eq!(a.pt_row, b.pt_row, "{what}: pt_row");
    let names = |x: &Apt| x.fields.iter().map(|f| f.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(a), names(b), "{what}: fields");
    assert_eq!(a.graph, b.graph, "{what}: graph");
    assert_eq!(ha.0, hb.0, "{what}: cells");
}

// ---- Algorithm 2 in full: the reference enumerator ----------------------------

/// PK coverage (§4) from scratch: the `(node, primary-key attribute)`
/// pairs of `g` that no incident edge's condition references on that
/// node's side.
fn scanned_deficit<'d>(db: &'d Database, g: &JoinGraph) -> Vec<(usize, &'d str)> {
    let mut owed = Vec::new();
    for idx in 1..g.nodes.len() {
        let table = db.table(g.rel_of(idx).unwrap()).unwrap();
        for pk_attr in table.schema().primary_key() {
            let covered = g.edges.iter().any(|e| {
                e.cond.pairs.iter().any(|p| {
                    (e.from == idx && p.left == pk_attr) || (e.to == idx && p.right == pk_attr)
                })
            });
            if !covered {
                owed.push((idx, pk_attr));
            }
        }
    }
    owed
}

/// Algorithm 2's `isValid`: primary-key coverage (λ_qcost is the
/// builder's, [`assert_builder_matches`]).
fn is_valid(db: &Database, g: &JoinGraph, cfg: &EnumConfig) -> bool {
    !cfg.check_pk_coverage || scanned_deficit(db, g).is_empty()
}

/// Algorithm 2's `ExtendJG` + `AddEdge`: every one-edge extension of
/// `omega`, built — from each node, along each condition of its relation
/// (for PT: of each FROM entry), to a fresh node and to every existing
/// node of the right label the same condition does not already connect.
fn one_edge_extensions(schema: &SchemaGraph, query: &Query, omega: &JoinGraph) -> Vec<JoinGraph> {
    let mut out = Vec::new();
    for v in 0..omega.nodes.len() {
        let rels: Vec<(&str, Option<usize>)> = match omega.rel_of(v) {
            None => query
                .from
                .iter()
                .enumerate()
                .map(|(i, t)| (t.table.as_str(), Some(i)))
                .collect(),
            Some(r) => vec![(r, None)],
        };
        for (rel, pt_from_idx) in rels {
            for (schema_edge, cond_idx, end_rel, cond) in schema.adjacent(rel) {
                let edge_to = |to: usize| JgEdge {
                    from: v,
                    to,
                    cond: cond.clone(),
                    schema_edge,
                    cond_idx,
                    pt_from_idx,
                };
                let mut fresh = omega.clone();
                fresh.nodes.push(node(end_rel));
                fresh.edges.push(edge_to(omega.nodes.len()));
                out.push(fresh);
                for v2 in 0..omega.nodes.len() {
                    if v2 == v || omega.rel_of(v2) != Some(end_rel) {
                        continue;
                    }
                    let duplicate = omega.edges.iter().any(|e| {
                        ((e.from == v && e.to == v2) || (e.from == v2 && e.to == v))
                            && (e.schema_edge, e.cond_idx, e.pt_from_idx)
                                == (schema_edge, cond_idx, pt_from_idx)
                    });
                    if !duplicate {
                        let mut closed = omega.clone();
                        closed.edges.push(edge_to(v2));
                        out.push(closed);
                    }
                }
            }
        }
    }
    out
}

struct Reference {
    /// Every graph of every round, valid or not.
    graphs: Vec<EnumeratedGraph>,
    /// Extensions built over all rounds.
    visited: u64,
    /// Of those, the last round's that fail PK coverage.
    dead: u64,
}

/// Algorithm 2 as `enumerate_join_graphs` ran it before a last-round graph
/// was decided on its description: every extension is built and keyed,
/// every new graph validated by [`is_valid`] and listed.
fn reference_enumeration(
    schema: &SchemaGraph,
    db: &Database,
    query: &Query,
    cfg: &EnumConfig,
) -> Reference {
    let omega0 = JoinGraph::pt_only();
    let mut seen = HashSet::from([omega0.key()]);
    let mut graphs = Vec::new();
    if cfg.include_pt_only {
        graphs.push(EnumeratedGraph {
            key: omega0.key(),
            graph: omega0.clone(),
            valid: true,
            parent: None,
        });
    }
    let (mut visited, mut dead) = (0, 0);
    let mut prev = vec![(omega0, cfg.include_pt_only.then_some(0))];
    for size in 1..=cfg.max_edges {
        let mut new_graphs = Vec::new();
        for (omega, parent) in &prev {
            for graph in one_edge_extensions(schema, query, omega) {
                visited += 1;
                let last = size == cfg.max_edges && cfg.check_pk_coverage;
                dead += u64::from(last && !scanned_deficit(db, &graph).is_empty());
                let key = graph.key();
                if seen.insert(key.clone()) {
                    new_graphs.push((graph, key, *parent));
                }
            }
        }
        prev.clear();
        for (graph, key, parent) in new_graphs {
            prev.push((graph.clone(), Some(graphs.len())));
            graphs.push(EnumeratedGraph {
                valid: is_valid(db, &graph, cfg),
                graph,
                key,
                parent,
            });
        }
    }
    Reference {
        graphs,
        visited,
        dead,
    }
}

/// Runs both enumerators. The listing is the reference minus its dead
/// leaves — the graphs of the last size that fail PK coverage, which no
/// round is left to complete — in the same order, with the same `key` and
/// `valid` and the parent links re-indexed; the deficit carried beside a
/// listed graph is empty exactly when the scanned one is; and the two
/// counts are the reference's.
fn checked_enumeration(
    schema: &SchemaGraph,
    db: &Database,
    query: &Query,
    cfg: &EnumConfig,
    what: &str,
) -> (Enumeration, Reference) {
    let reference = reference_enumeration(schema, db, query, cfg);
    let listing = Enumeration::of(schema, db, query, cfg).unwrap();
    let mut new_index = vec![None; reference.graphs.len()];
    let mut listed = listing.graphs.iter();
    for (ri, want) in reference.graphs.iter().enumerate() {
        let covered = !cfg.check_pk_coverage || scanned_deficit(db, &want.graph).is_empty();
        if want.graph.edges.len() == cfg.max_edges && !covered {
            assert!(!want.valid);
            continue;
        }
        new_index[ri] = Some(listing.graphs.len() - listed.len());
        let got = listed
            .next()
            .unwrap_or_else(|| panic!("{what}: reference graph {ri} ({}) not listed", want.key));
        assert_eq!(got.graph, want.graph, "{what}: graph {ri}");
        assert_eq!(got.key, want.key, "{what}: key of graph {ri}");
        assert_eq!(got.valid, want.valid, "{what}: valid of {}", want.key);
        assert_eq!(
            got.valid, covered,
            "{what}: carried vs scanned deficit of {}",
            want.key
        );
        assert_eq!(
            got.parent,
            want.parent
                .map(|p| new_index[p].expect("a parent is never a leaf")),
            "{what}: parent of {}",
            want.key
        );
    }
    assert_eq!(
        listed.len(),
        0,
        "{what}: graphs the reference does not have"
    );
    assert_eq!(
        (listing.extensions_visited, listing.extensions_rejected),
        (reference.visited, reference.dead),
        "{what}: (visited, rejected)"
    );
    (listing, reference)
}

// ---- Corpora ------------------------------------------------------------

const NBA_SQL: &str = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
    WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
    GROUP BY s.season_name";
const MIMIC_SQL: &str = "SELECT COUNT(*) AS cnt, los_group FROM icustays GROUP BY los_group";
const MIMIC2_SQL: &str = "SELECT insurance, 1.0*SUM(hospital_expire_flag)/COUNT(*) AS death_rate \
    FROM admissions GROUP BY insurance";

fn nba_corpus() -> GeneratedDb {
    nba::generate(nba::NbaConfig {
        rich_stats: true,
        seed: 42,
        ..nba::NbaConfig::scaled(0.05)
    })
}

fn mimic_corpus() -> GeneratedDb {
    mimic::generate(mimic::MimicConfig {
        seed: 42,
        ..mimic::MimicConfig::scaled(0.1)
    })
}

struct Prepared {
    gen: GeneratedDb,
    pt: ProvenanceTable,
    /// The listing, checked against `reference`.
    graphs: Vec<EnumeratedGraph>,
    visited: u64,
    rejected: u64,
    reference: Vec<EnumeratedGraph>,
}

fn prepare(gen: GeneratedDb, sql: &str, cfg: &EnumConfig) -> Prepared {
    let query: Query = parse_sql(sql).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &query).unwrap();
    let (listing, reference) = checked_enumeration(&gen.schema_graph, &gen.db, &query, cfg, sql);
    Prepared {
        gen,
        pt,
        graphs: listing.graphs,
        visited: listing.extensions_visited,
        rejected: listing.extensions_rejected,
        reference: reference.graphs,
    }
}

/// Every enumerated child is its parent plus one pushed edge, and the key
/// on the record is the graph's key.
fn assert_tree_shape(graphs: &[EnumeratedGraph]) {
    for (gi, g) in graphs.iter().enumerate() {
        assert_eq!(g.key, g.graph.key(), "graph {gi}: stored key");
        match g.parent {
            None => assert!(
                g.graph.edges.len() <= 1,
                "graph {gi}: deep graph, no parent"
            ),
            Some(p) => {
                assert!(p < gi, "graph {gi}: parent {p} does not precede it");
                let parent = &graphs[p].graph;
                let (_, prefix) = g.graph.edges.split_last().unwrap();
                assert_eq!(prefix, parent.edges, "graph {gi}: edge prefix");
                assert!(
                    g.graph.nodes.starts_with(&parent.nodes),
                    "graph {gi}: nodes"
                );
            }
        }
    }
}

/// λ_qcost of the service's default parameters.
const MAX_COST: f64 = 5_000_000.0;

/// `AptBuilder::materialize(gi)` under λ_qcost `max_cost`, for the graphs
/// `pick` selects, against an oracle: the graph is skipped iff a graph
/// with an edge on its `parent` chain (itself included) has an unbounded
/// `Apt::materialize` of more than `max_cost` rows — a join's output is
/// the APT of the ancestor that ends with it — and is otherwise that
/// APT. The builder applied one step per edge of each materialized
/// graph, and of a skipped one the steps up to the first such ancestor's
/// last edge. Returns the digest over the builder's APTs, its index
/// builds and the graphs it skipped.
fn assert_builder_matches(
    p: &Prepared,
    max_cost: f64,
    pick: impl Fn(&EnumeratedGraph) -> bool,
) -> (u64, u64, u64) {
    let builder = AptBuilder::new(&p.gen.db, &p.pt, &p.graphs, max_cost);
    let alone = |gi: usize| Apt::materialize(&p.gen.db, &p.pt, &p.graphs[gi].graph).unwrap();
    let mut rows: HashMap<usize, usize> = HashMap::new();
    let mut h = Fnv::new();
    let (mut steps, mut skipped) = (0, 0);
    for (gi, g) in p.graphs.iter().enumerate().filter(|(_, g)| pick(g)) {
        let what = format!("graph {gi} ({})", g.key);
        let mut chain = vec![gi];
        while let Some(parent) = p.graphs[chain[chain.len() - 1]].parent {
            chain.push(parent);
        }
        let over = chain.into_iter().rev().find(|&a| {
            let edges = p.graphs[a].graph.edges.len();
            edges > 0 && *rows.entry(a).or_insert_with(|| alone(a).num_rows) as f64 > max_cost
        });
        match (builder.materialize(gi).unwrap(), over) {
            (Some(shared), None) => {
                assert_apt_eq(&shared, &alone(gi), &what);
                apt_digest(&mut h, &shared);
                steps += g.graph.edges.len() as u64;
            }
            (None, Some(a)) => {
                steps += p.graphs[a].graph.edges.len() as u64;
                skipped += 1;
            }
            (shared, over) => panic!(
                "{what}: materialized {}, first ancestor over λ_qcost {over:?}",
                shared.is_some()
            ),
        }
    }
    assert_eq!(builder.join_steps(), steps, "steps applied");
    assert_eq!(builder.graphs_over_cost(), skipped, "graphs skipped");
    (h.0, builder.index_builds(), skipped)
}

/// The three benchmark corpora: enumeration output and every valid APT are
/// what the commit before the tree was shared produced (digests recorded
/// there with this file's `enum_digest` / `apt_digest` over
/// `Apt::materialize`). `enumerated` and `enum_digest` were recorded when
/// every graph of the last round was listed, and are the reference's;
/// `enum_digest` was recorded again, with every other field unchanged, when
/// the estimated row count left the enumerated graph. `listed`, `visited`
/// and `rejected` describe what is listed now. At the service's λ_qcost
/// no valid graph is skipped.
#[test]
fn enumeration_and_apts_match_the_recorded_goldens() {
    struct Golden {
        enumerated: usize,
        listed: usize,
        visited: u64,
        rejected: u64,
        valid: usize,
        enum_digest: u64,
        apt_digest: u64,
        /// Key indexes the builder builds for all valid graphs, vs one
        /// per edge when each graph is folded in a kernel of its own.
        index_builds: u64,
    }
    let cases = [
        (
            "nba",
            prepare(nba_corpus(), NBA_SQL, &EnumConfig::default()),
            Golden {
                enumerated: 3906,
                listed: 438,
                visited: 8221,
                rejected: 7473,
                valid: 202,
                enum_digest: 0x2295_4e59_52eb_81d3,
                apt_digest: 0x231d_a104_0b69_317d,
                index_builds: 20,
            },
        ),
        (
            "mimic",
            prepare(mimic_corpus(), MIMIC_SQL, &EnumConfig::default()),
            Golden {
                enumerated: 98,
                listed: 27,
                visited: 152,
                rejected: 118,
                valid: 18,
                enum_digest: 0xb2af_b3f6_d0b8_93a8,
                apt_digest: 0xab10_8e78_dbcf_3be9,
                index_builds: 4,
            },
        ),
        (
            "synth",
            prepare(
                synth::generate(&synth::SynthConfig::small().with_width(4, 6)),
                synth::SYNTH_SQL,
                &EnumConfig::default(),
            ),
            Golden {
                enumerated: 75,
                listed: 39,
                visited: 120,
                rejected: 56,
                valid: 35,
                enum_digest: 0x5872_98c8_8e8f_3ea9,
                apt_digest: 0xf75c_f01e_2a02_4bc6,
                index_builds: 4,
            },
        ),
    ];
    for (name, p, want) in cases {
        assert_eq!(p.reference.len(), want.enumerated, "{name}: enumerated");
        assert_eq!(
            enum_digest(&p.reference),
            want.enum_digest,
            "{name}: enum digest"
        );
        assert_eq!(p.graphs.len(), want.listed, "{name}: listed");
        assert_eq!(
            (p.visited, p.rejected),
            (want.visited, want.rejected),
            "{name}: (visited, rejected)"
        );
        let valid = p.graphs.iter().filter(|g| g.valid).count();
        assert_eq!(valid, want.valid, "{name}: valid");
        // ROADMAP 5(b), closed: an edge covers keys of at most its two
        // endpoints, so a graph with more deficient nodes than twice the
        // edges it may still gain has no valid descendant — and at
        // λ#edges = 3 that bound cuts none of the graphs below the last
        // size (264 / 16 / 19 of them).
        let max_edges = EnumConfig::default().max_edges;
        let hopeless = p.graphs.iter().filter(|g| {
            let owing: HashSet<usize> = scanned_deficit(&p.gen.db, &g.graph)
                .iter()
                .map(|&(v, _)| v)
                .collect();
            owing.len() > 2 * (max_edges - g.graph.edges.len())
        });
        assert_eq!(hopeless.count(), 0, "{name}: reachability cut");
        assert_tree_shape(&p.graphs);
        let (digest, builds, skipped) = assert_builder_matches(&p, MAX_COST, |g| g.valid);
        assert_eq!(skipped, 0, "{name}: graphs over λ_qcost");
        assert_eq!(digest, want.apt_digest, "{name}: APT digest");
        assert_eq!(builds, want.index_builds, "{name}: index builds");
    }
}

// ---- Structural key vs the string it replaced ------------------------------

/// The canonical string `JoinGraph::canonical_key` built before the key
/// became structural: minimum over PT-fixing permutations of
/// `labels|sorted formatted edges`. Kept here as the reference.
fn legacy_canonical_key(g: &JoinGraph) -> String {
    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        if items.is_empty() {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let head = rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, head);
                out.push(tail);
            }
        }
        out
    }
    let n = g.nodes.len();
    let non_pt: Vec<usize> = (1..n).collect();
    permutations(&non_pt)
        .into_iter()
        .map(|perm| {
            let mut mapping = vec![0usize; n];
            for (new_pos, &old) in perm.iter().enumerate() {
                mapping[old] = new_pos + 1;
            }
            let mut labels = vec![String::new(); n];
            labels[0] = "PT".into();
            for &old in &perm {
                labels[mapping[old]] = g.rel_of(old).unwrap().to_string();
            }
            let mut edge_keys: Vec<String> = g
                .edges
                .iter()
                .map(|e| {
                    let (f, t) = (mapping[e.from], mapping[e.to]);
                    let tail = format!("{}:{}:{:?}", e.schema_edge, e.cond_idx, e.pt_from_idx);
                    if f <= t {
                        format!("{f}>{t}:{tail}")
                    } else {
                        format!("{t}<{f}:{tail}")
                    }
                })
                .collect();
            edge_keys.sort();
            format!("{}|{}", labels.join(","), edge_keys.join(";"))
        })
        .min()
        .unwrap()
}

/// `g` with its non-PT nodes renumbered by rotating them `by` places and
/// its edge list reversed — isomorphic, differently written.
fn rewritten(g: &JoinGraph, by: usize) -> JoinGraph {
    let n = g.nodes.len();
    if n < 2 {
        return g.clone();
    }
    let map = |v: usize| {
        if v == 0 {
            0
        } else {
            1 + (v - 1 + by) % (n - 1)
        }
    };
    let mut nodes = g.nodes.clone();
    for v in 1..n {
        nodes[map(v)] = g.nodes[v].clone();
    }
    let edges = g
        .edges
        .iter()
        .rev()
        .map(|e| JgEdge {
            from: map(e.from),
            to: map(e.to),
            ..e.clone()
        })
        .collect();
    JoinGraph { nodes, edges }
}

/// Over every enumerated NBA graph and two rewritings of each: two graphs
/// share a structural key iff they shared the legacy string, and the
/// rendered key is the key.
#[test]
fn structural_key_partitions_like_the_legacy_string() {
    let p = prepare(nba_corpus(), NBA_SQL, &EnumConfig::default());
    let mut by_key: HashMap<_, usize> = HashMap::new();
    let mut by_legacy: HashMap<String, usize> = HashMap::new();
    for (gi, g) in p.reference.iter().enumerate() {
        for by in 0..3 {
            let g = rewritten(&g.graph, by);
            let key = g.key();
            assert_eq!(g.canonical_key(), key.to_string());
            // Class representatives must agree: first graph seen with this
            // key is the first graph seen with this legacy string.
            let k = *by_key.entry(key).or_insert(gi);
            let l = *by_legacy.entry(legacy_canonical_key(&g)).or_insert(gi);
            assert_eq!(k, l, "graph {gi} rotated by {by}");
            assert_eq!(k, gi, "graph {gi}: enumeration emitted a duplicate");
        }
    }
    assert_eq!(by_key.len(), p.reference.len());
}

// ---- A hand-built corpus with every awkward join ----------------------------

/// `game` is joined to itself in the query (two FROM bindings), joins
/// `team` on three alternative conditions (parallel and closing edges),
/// has NULL and dangling keys, and `box.gid` is a float column joined to
/// the integer `game.gid`.
fn awkward_corpus() -> (Database, SchemaGraph) {
    let mut db = Database::new("awkward");
    db.create_table(
        SchemaBuilder::new("game")
            .column_pk("gid", DataType::Int, AttrKind::Categorical)
            .column("home", DataType::Int, AttrKind::Categorical)
            .column("away", DataType::Int, AttrKind::Categorical)
            .column("winner", DataType::Int, AttrKind::Categorical)
            .column("season", DataType::Str, AttrKind::Categorical)
            .build(),
    )
    .unwrap();
    db.create_table(
        SchemaBuilder::new("team")
            .column_pk("tid", DataType::Int, AttrKind::Categorical)
            .column("conf", DataType::Str, AttrKind::Categorical)
            .build(),
    )
    .unwrap();
    db.create_table(
        SchemaBuilder::new("box")
            .column_pk("gid", DataType::Float, AttrKind::Numeric)
            .column_pk("tid", DataType::Int, AttrKind::Categorical)
            .column("pts", DataType::Int, AttrKind::Numeric)
            .build(),
    )
    .unwrap();
    let (s1, s2) = (db.intern("s1"), db.intern("s2"));
    let (east, west) = (db.intern("east"), db.intern("west"));
    let int = |v: i64| if v < 0 { Value::Null } else { Value::Int(v) };
    // winner −1 = NULL (unfinished game); team 9 has no `team` row.
    for (gid, home, away, winner, season) in [
        (1, 1, 2, 1, s1),
        (2, 2, 1, 1, s1),
        (3, 1, 3, -1, s1),
        (4, 3, 2, 3, s2),
        (5, 2, 3, 2, s2),
        (6, 9, 1, 9, s2),
        (7, 1, 2, 2, s2),
    ] {
        db.table_mut("game")
            .unwrap()
            .push_row(vec![
                int(gid),
                int(home),
                int(away),
                int(winner),
                Value::Str(season),
            ])
            .unwrap();
    }
    for (tid, conf) in [(1, east), (2, west), (3, east)] {
        db.table_mut("team")
            .unwrap()
            .push_row(vec![Value::Int(tid), Value::Str(conf)])
            .unwrap();
    }
    for (gid, tid, pts) in [
        (1.0, 1, 100),
        (1.0, 2, 90),
        (2.0, 2, 80),
        (2.5, 1, 1),
        (3.0, 1, 70),
        (4.0, 3, 99),
        (7.0, 2, 101),
        (7.0, 1, 95),
    ] {
        db.table_mut("box")
            .unwrap()
            .push_row(vec![Value::Float(gid), Value::Int(tid), Value::Int(pts)])
            .unwrap();
    }
    let mut schema = SchemaGraph::new();
    schema.add_condition("game", "team", JoinCond::on(&[("home", "tid")]));
    schema.add_condition("game", "team", JoinCond::on(&[("away", "tid")]));
    schema.add_condition("game", "team", JoinCond::on(&[("winner", "tid")]));
    schema.add_condition("game", "box", JoinCond::on(&[("gid", "gid")]));
    schema.add_condition("box", "team", JoinCond::on(&[("tid", "tid")]));
    (db, schema)
}

const AWKWARD_SQL: &str = "SELECT COUNT(*) AS c, g1.season FROM game g1, game g2 \
    WHERE g1.home = g2.away GROUP BY g1.season";

/// Definition 4 by nested loops: every combination of a PT row and one
/// row per context node, in lexicographic order, that satisfies every
/// edge. Requires the graph's join order to be node-index order.
fn oracle_rows(db: &Database, pt: &ProvenanceTable, g: &JoinGraph) -> Vec<Vec<usize>> {
    let sizes: Vec<usize> = (0..g.nodes.len())
        .map(|v| match g.rel_of(v) {
            None => pt.num_rows,
            Some(rel) => db.table(rel).unwrap().num_rows(),
        })
        .collect();
    let value = |e: &JgEdge, node: usize, attr: &str, row: usize| -> Value {
        match g.rel_of(node) {
            None => {
                let fi = pt
                    .fields
                    .iter()
                    .position(|f| Some(f.from_idx) == e.pt_from_idx && f.attr == attr)
                    .unwrap();
                pt.columns[fi].value(row)
            }
            Some(rel) => db
                .table(rel)
                .unwrap()
                .column_by_name(attr)
                .unwrap()
                .value(row),
        }
    };
    let mut out = Vec::new();
    let mut combo = vec![0usize; sizes.len()];
    if sizes.contains(&0) {
        return out;
    }
    'all: loop {
        let ok = g.edges.iter().all(|e| {
            e.cond.pairs.iter().all(|p| {
                value(e, e.from, &p.left, combo[e.from]).sql_eq(&value(
                    e,
                    e.to,
                    &p.right,
                    combo[e.to],
                ))
            })
        });
        if ok {
            out.push(combo.clone());
        }
        for v in (0..combo.len()).rev() {
            combo[v] += 1;
            if combo[v] < sizes[v] {
                continue 'all;
            }
            combo[v] = 0;
        }
        return out;
    }
}

fn assert_matches_oracle(db: &Database, pt: &ProvenanceTable, apt: &Apt, what: &str) {
    let g = &apt.graph;
    let want = oracle_rows(db, pt, g);
    assert_eq!(apt.num_rows, want.len(), "{what}: row count");
    for (r, combo) in want.iter().enumerate() {
        assert_eq!(apt.pt_row[r] as usize, combo[0], "{what}: pt_row[{r}]");
    }
    for (fi, f) in apt.fields.iter().enumerate() {
        for (r, combo) in want.iter().enumerate() {
            let expected = match g.rel_of(f.node) {
                None => pt.columns[fi].value(combo[0]),
                Some(rel) => db
                    .table(rel)
                    .unwrap()
                    .column_by_name(&f.base_column)
                    .unwrap()
                    .value(combo[f.node]),
            };
            assert_eq!(apt.value(r, fi), expected, "{what}: {}[{r}]", f.name);
        }
    }
}

/// Every graph of the awkward corpus — valid or not — through the builder,
/// the fold, and the nested-loop oracle.
#[test]
fn awkward_joins_match_the_nested_loop_oracle() {
    let (db, schema) = awkward_corpus();
    let query = parse_sql(AWKWARD_SQL).unwrap();
    let pt = ProvenanceTable::compute(&db, &query).unwrap();
    assert!(pt.num_rows > 0);
    let cfg = EnumConfig {
        check_pk_coverage: false,
        ..EnumConfig::default()
    };
    let graphs = enumerate_join_graphs(&schema, &db, &query, pt.num_rows, &cfg).unwrap();
    assert_tree_shape(&graphs);
    let builder = AptBuilder::new(&db, &pt, &graphs, f64::INFINITY);
    let (mut closing, mut second_binding, mut nonempty) = (0, 0, 0);
    for (gi, g) in graphs.iter().enumerate() {
        let what = format!("graph {gi} ({})", g.key);
        let shared = builder.materialize(gi).unwrap().unwrap();
        let alone = Apt::materialize(&db, &pt, &g.graph).unwrap();
        assert_apt_eq(&shared, &alone, &what);
        assert_matches_oracle(&db, &pt, &shared, &what);
        closing += usize::from(g.graph.edges.len() >= g.graph.nodes.len());
        second_binding += usize::from(g.graph.edges.iter().any(|e| e.pt_from_idx == Some(1)));
        nonempty += usize::from(shared.num_rows > 0);
    }
    // The corpus really exercises what it claims to.
    assert!(closing > 10, "closing/parallel edges: {closing}");
    assert!(second_binding > 10, "second FROM binding: {second_binding}");
    assert!(nonempty > 10, "non-empty APTs: {nonempty}");
    // Every edge is a step applied; the enumeration's shared prefixes are
    // why fewer are computed.
    assert_eq!(
        builder.join_steps(),
        graphs.iter().map(|g| g.graph.edges.len() as u64).sum()
    );
    assert!(builder.join_steps_computed() < builder.join_steps());
}

/// The corpora the goldens above do not reach: the second MIMIC query,
/// and the awkward corpus (a relation bound twice in FROM, three
/// alternative conditions on one schema edge, a composite key) with the
/// coverage check on and off and at every size.
#[test]
fn the_listing_is_the_reference_minus_its_dead_leaves() {
    let p = prepare(mimic_corpus(), MIMIC2_SQL, &EnumConfig::default());
    assert!(p.graphs.len() < p.reference.len());

    let (db, schema) = awkward_corpus();
    let query = parse_sql(AWKWARD_SQL).unwrap();
    for max_edges in 0..=3 {
        for check_pk_coverage in [true, false] {
            let cfg = EnumConfig {
                max_edges,
                check_pk_coverage,
                ..EnumConfig::default()
            };
            let what = format!("awkward, λ#edges {max_edges}, pk {check_pk_coverage}");
            let (listing, reference) = checked_enumeration(&schema, &db, &query, &cfg, &what);
            // With nothing to check nothing is dropped; with the check on
            // the last round is where the listing shrinks.
            assert_eq!(
                listing.graphs.len() < reference.graphs.len(),
                check_pk_coverage && max_edges > 0,
                "{what}"
            );
            assert_tree_shape(&listing.graphs);
        }
    }
}

fn node(rel: &str) -> JgNode {
    JgNode {
        label: NodeLabel::Rel(rel.into()),
    }
}

fn listed(graph: JoinGraph, parent: Option<usize>) -> EnumeratedGraph {
    EnumeratedGraph {
        key: graph.key(),
        graph,
        valid: true,
        parent,
    }
}

/// Graphs nobody enumerated: an edge written new → joined, edges listed
/// out of breadth-first order, and parent links that are wrong or
/// circular. The builder answers as the fold does.
#[test]
fn hand_built_graphs_fall_back_to_the_fold() {
    let (db, _) = awkward_corpus();
    let query = parse_sql(AWKWARD_SQL).unwrap();
    let pt = ProvenanceTable::compute(&db, &query).unwrap();
    let box_to_pt = JgEdge {
        from: 1,
        to: 0,
        cond: JoinCond::on(&[("gid", "gid")]),
        schema_edge: 1,
        cond_idx: 0,
        pt_from_idx: Some(1),
    };
    let team_to_box = JgEdge {
        from: 2,
        to: 1,
        cond: JoinCond::on(&[("tid", "tid")]),
        schema_edge: 2,
        cond_idx: 0,
        pt_from_idx: None,
    };
    let mut reversed = JoinGraph::pt_only();
    reversed.nodes.push(node("box"));
    reversed.edges.push(box_to_pt.clone());
    let mut chain = reversed.clone();
    chain.nodes.push(node("team"));
    chain.edges.push(team_to_box.clone());
    // Same graph, far edge listed first: its plan is not index order.
    let mut shuffled = chain.clone();
    shuffled.edges.reverse();

    let graphs = vec![
        listed(JoinGraph::pt_only(), None),
        listed(reversed.clone(), Some(0)),
        listed(chain.clone(), Some(1)),
        listed(shuffled.clone(), Some(1)), // parent is not a prefix
        listed(chain.clone(), Some(5)),    // parent follows it …
        listed(chain.clone(), Some(4)),    // … and points back
        listed(reversed.clone(), Some(99)), // parent out of range
    ];
    let builder = AptBuilder::new(&db, &pt, &graphs, f64::INFINITY);
    for (gi, g) in graphs.iter().enumerate().rev() {
        let what = format!("graph {gi}");
        let shared = builder.materialize(gi).unwrap().unwrap();
        assert_apt_eq(
            &shared,
            &Apt::materialize(&db, &pt, &g.graph).unwrap(),
            &what,
        );
        assert_matches_oracle(&db, &pt, &shared, &what);
    }
    assert!(builder.materialize(1).unwrap().unwrap().num_rows > 0);
    assert!(matches!(
        builder.materialize(graphs.len()),
        Err(GraphError::Malformed(_))
    ));
}

/// An error in a parent's step is every dependent child's error — the
/// same one, from any thread, on every call — and graphs that do not
/// depend on the failing step still materialize.
#[test]
fn a_parent_error_reaches_every_child_unchanged() {
    let (db, _) = awkward_corpus();
    let query = parse_sql(AWKWARD_SQL).unwrap();
    let pt = ProvenanceTable::compute(&db, &query).unwrap();
    let mut good = JoinGraph::pt_only();
    good.nodes.push(node("team"));
    good.edges.push(JgEdge {
        from: 0,
        to: 1,
        cond: JoinCond::on(&[("home", "tid")]),
        schema_edge: 0,
        cond_idx: 0,
        pt_from_idx: Some(0),
    });
    let mut bad = JoinGraph::pt_only();
    bad.nodes.push(node("box"));
    bad.edges.push(JgEdge {
        from: 0,
        to: 1,
        cond: JoinCond::on(&[("gid", "no_such_attr")]),
        schema_edge: 1,
        cond_idx: 0,
        pt_from_idx: Some(0),
    });
    let child_of = |parent: &JoinGraph, se: usize| {
        let mut g = parent.clone();
        g.nodes.push(node("team"));
        g.edges.push(JgEdge {
            from: 0,
            to: g.nodes.len() - 1,
            cond: JoinCond::on(&[("away", "tid")]),
            schema_edge: se,
            cond_idx: 1,
            pt_from_idx: Some(1),
        });
        g
    };
    let bad_child = child_of(&bad, 0);
    let graphs = vec![
        listed(JoinGraph::pt_only(), None),
        listed(bad.clone(), Some(0)),
        listed(bad_child.clone(), Some(1)),
        listed(child_of(&bad_child, 2), Some(2)),
        listed(good.clone(), Some(0)),
        listed(child_of(&good, 0), Some(4)),
    ];
    let want = Apt::materialize(&db, &pt, &bad).unwrap_err();
    assert!(matches!(want, GraphError::BadCondition(_)), "{want}");

    let builder = AptBuilder::new(&db, &pt, &graphs, f64::INFINITY);
    // Children first, concurrently: each dependent's fold reaches the
    // failing step — its first — and reports that step's error.
    const THREADS: u64 = 4;
    let failing = [3, 2, 1, 3];
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for gi in failing {
                    assert_eq!(builder.materialize(gi).unwrap_err(), want, "graph {gi}");
                }
            });
        }
    });
    for gi in [4, 5] {
        let alone = Apt::materialize(&db, &pt, &graphs[gi].graph).unwrap();
        assert_apt_eq(
            &builder.materialize(gi).unwrap().unwrap(),
            &alone,
            &format!("graph {gi}"),
        );
    }
    // One step applied per edge of the two graphs materialized, and the
    // failing step once per fold that stopped at it; it computed nothing.
    let edges: u64 = [4, 5]
        .iter()
        .map(|&gi| graphs[gi].graph.edges.len() as u64)
        .sum();
    assert_eq!(builder.join_steps(), edges + THREADS * failing.len() as u64);
    assert_eq!(builder.join_steps_computed(), 2);
}

// ---- Random small corpora -----------------------------------------------------

/// `(a, b, attribute pairs)`: a condition between relations `a` and `b`.
type RandomCond = (usize, usize, Vec<(usize, usize)>);

/// A database of `keys.len()` relations `r0, r1, …` over the attributes
/// `a0, a1, a2`, relation `i`'s primary key being the attributes in the
/// bit set `keys[i]` (none, one, or composite), and one schema-graph
/// condition per `(a, b, pairs)` — `a == b` is a self-join edge, several
/// entries on one pair of relations are alternative conditions, and a
/// pair list is a multi-attribute condition.
fn random_schema(keys: &[u8], conds: &[RandomCond]) -> (Database, SchemaGraph) {
    let mut db = Database::new("random");
    for (r, &key) in keys.iter().enumerate() {
        let mut schema = SchemaBuilder::new(format!("r{r}"));
        for a in 0..3 {
            let name = format!("a{a}");
            schema = if key & (1 << a) != 0 {
                schema.column_pk(name, DataType::Int, AttrKind::Categorical)
            } else {
                schema.column(name, DataType::Int, AttrKind::Categorical)
            };
        }
        db.create_table(schema.build()).unwrap();
        // Different cardinalities and NDVs per relation and attribute, so
        // that estimates differ between graphs.
        for row in 0..(3 + 2 * r as i64) {
            let cells = (0..3).map(|a| Value::Int(row % (a + 2 + r as i64)));
            db.table_mut(&format!("r{r}"))
                .unwrap()
                .push_row(cells.collect())
                .unwrap();
        }
    }
    let mut schema = SchemaGraph::new();
    for (a, b, pairs) in conds {
        let (a, b) = (a % keys.len(), b % keys.len());
        let names: Vec<(String, String)> = pairs
            .iter()
            .map(|(l, r)| (format!("a{l}"), format!("a{r}")))
            .collect();
        let pairs: Vec<(&str, &str)> = names
            .iter()
            .map(|(l, r)| (l.as_str(), r.as_str()))
            .collect();
        schema.add_condition(&format!("r{a}"), &format!("r{b}"), JoinCond::on(&pairs));
    }
    (db, schema)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random small schema graphs — composite and missing keys,
    /// self-join edges, alternative and multi-attribute conditions, `r0`
    /// bound twice in FROM — at every size, with each check on and off,
    /// the listing is the reference minus its dead leaves.
    #[test]
    fn listing_matches_reference_on_random_schema_graphs(
        keys in proptest::collection::vec(0u8..8, 2..5),
        conds in proptest::collection::vec(
            (0usize..4, 0usize..4, proptest::collection::vec((0usize..3, 0usize..3), 1..3)),
            1..6,
        ),
        second_binding in 0usize..4,
        max_edges in 0usize..=3,
        (check_pk_coverage, include_pt_only) in (any::<bool>(), any::<bool>()),
    ) {
        let (db, schema) = random_schema(&keys, &conds);
        let second = second_binding % keys.len();
        let query = parse_sql(&format!(
            "SELECT COUNT(*) AS c, x.a0 FROM r0 x, r{second} y WHERE x.a1 = y.a1 GROUP BY x.a0"
        ))
        .unwrap();
        let cfg = EnumConfig {
            max_edges,
            check_pk_coverage,
            include_pt_only,
            ..EnumConfig::default()
        };
        let (listing, reference) = checked_enumeration(&schema, &db, &query, &cfg, "random");
        assert_tree_shape(&listing.graphs);
        // `enumerate_join_graphs` is the listing and nothing else.
        let graphs = enumerate_join_graphs(&schema, &db, &query, 7, &cfg).unwrap();
        prop_assert_eq!(graphs.len(), listing.graphs.len());
        if !check_pk_coverage {
            prop_assert_eq!(listing.graphs.len(), reference.graphs.len());
            prop_assert_eq!(listing.extensions_rejected, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random small star corpora, under a random λ_qcost, the builder
    /// skips a graph iff the oracle of [`assert_builder_matches`] says so
    /// and otherwise agrees with the fold, on every enumerated graph,
    /// valid or not. Under a λ_qcost no join meets, every graph with an
    /// edge is skipped.
    #[test]
    fn builder_matches_fold_on_random_synth_corpora(
        rows in 20usize..160,
        tables in 1usize..4,
        columns in 1usize..3,
        fanout in 1usize..6,
        seed in 0u64..1_000_000,
        max_cost in prop_oneof![Just(-1.0), 0.0f64..1_000.0, Just(f64::INFINITY)],
    ) {
        let gen = synth::generate(&synth::SynthConfig {
            rows,
            tables,
            columns,
            fanout,
            cardinality: 4,
            seed,
        });
        let p = prepare(gen, synth::SYNTH_SQL, &EnumConfig::default());
        assert_tree_shape(&p.graphs);
        let (_, _, skipped) = assert_builder_matches(&p, max_cost, |_| true);
        let joined = p.graphs.iter().filter(|g| !g.graph.edges.is_empty()).count() as u64;
        if max_cost < 0.0 {
            prop_assert_eq!(skipped, joined);
        }
        if max_cost == f64::INFINITY {
            prop_assert_eq!(skipped, 0);
        }
    }
}
