//! The enumeration tree as the unit of sharing: structural keys, parent
//! links, and `AptBuilder` against `Apt::materialize`, a nested-loop
//! oracle, and digests recorded at the commit before the tree was shared.

use std::collections::HashMap;

use cajade_datagen::{mimic, nba, synth, GeneratedDb};
use cajade_graph::{
    enumerate_join_graphs, Apt, AptBuilder, EnumConfig, EnumeratedGraph, GraphError, JgEdge,
    JgNode, JoinCond, JoinGraph, NodeLabel, SchemaGraph,
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

/// Graph order, structure, `valid` and `est_rows` of an enumeration.
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
        h.u64(g.est_rows.to_bits());
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

// ---- Corpora ------------------------------------------------------------

const NBA_SQL: &str = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
    WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
    GROUP BY s.season_name";
const MIMIC_SQL: &str = "SELECT COUNT(*) AS cnt, los_group FROM icustays GROUP BY los_group";

fn nba_corpus() -> GeneratedDb {
    nba::generate(nba::NbaConfig {
        rich_stats: true,
        seed: 42,
        ..nba::NbaConfig::scaled(0.05)
    })
}

struct Prepared {
    gen: GeneratedDb,
    pt: ProvenanceTable,
    graphs: Vec<EnumeratedGraph>,
}

fn prepare(gen: GeneratedDb, sql: &str, cfg: &EnumConfig) -> Prepared {
    let query: Query = parse_sql(sql).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &query).unwrap();
    let graphs =
        enumerate_join_graphs(&gen.schema_graph, &gen.db, &query, pt.num_rows, cfg).unwrap();
    Prepared { gen, pt, graphs }
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

/// `AptBuilder::materialize(gi)` == `Apt::materialize` for the graphs
/// `pick` selects; returns the digest over the builder's APTs.
fn assert_builder_matches(
    p: &Prepared,
    pick: impl Fn(&EnumeratedGraph) -> bool,
) -> (u64, u64, u64) {
    let builder = AptBuilder::new(&p.gen.db, &p.pt, &p.graphs);
    let mut h = Fnv::new();
    for (gi, g) in p.graphs.iter().enumerate().filter(|(_, g)| pick(g)) {
        let shared = builder.materialize(gi).unwrap();
        let alone = Apt::materialize(&p.gen.db, &p.pt, &g.graph).unwrap();
        assert_apt_eq(&shared, &alone, &format!("graph {gi} ({})", g.key));
        apt_digest(&mut h, &shared);
    }
    (h.0, builder.join_steps(), builder.index_builds())
}

/// The three benchmark corpora: enumeration output and every valid APT are
/// what the commit before this change produced (digests recorded there
/// with this file's `enum_digest` / `apt_digest` over `Apt::materialize`).
#[test]
fn enumeration_and_apts_match_the_recorded_goldens() {
    struct Golden {
        enumerated: usize,
        valid: usize,
        enum_digest: u64,
        apt_digest: u64,
        /// Work the builder does for all valid graphs, vs the fold's
        /// one step and one index build per edge.
        join_steps: u64,
        index_builds: u64,
    }
    let cases = [
        (
            "nba",
            prepare(nba_corpus(), NBA_SQL, &EnumConfig::default()),
            Golden {
                enumerated: 3906,
                valid: 202,
                enum_digest: 0xd5a6_26e4_a420_5f5a,
                apt_digest: 0x231d_a104_0b69_317d,
                join_steps: 283,
                index_builds: 20,
            },
        ),
        (
            "mimic",
            prepare(
                mimic::generate(mimic::MimicConfig {
                    seed: 42,
                    ..mimic::MimicConfig::scaled(0.1)
                }),
                MIMIC_SQL,
                &EnumConfig::default(),
            ),
            Golden {
                enumerated: 98,
                valid: 18,
                enum_digest: 0xe95d_81a2_c466_3d2e,
                apt_digest: 0xab10_8e78_dbcf_3be9,
                join_steps: 19,
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
                valid: 35,
                enum_digest: 0x7d0b_cfd8_3723_3492,
                apt_digest: 0xf75c_f01e_2a02_4bc6,
                join_steps: 34,
                index_builds: 4,
            },
        ),
    ];
    for (name, p, want) in cases {
        assert_eq!(p.graphs.len(), want.enumerated, "{name}: enumerated");
        let valid = p.graphs.iter().filter(|g| g.valid).count();
        assert_eq!(valid, want.valid, "{name}: valid");
        assert_eq!(
            enum_digest(&p.graphs),
            want.enum_digest,
            "{name}: enum digest"
        );
        assert_tree_shape(&p.graphs);
        let (digest, steps, builds) = assert_builder_matches(&p, |g| g.valid);
        assert_eq!(digest, want.apt_digest, "{name}: APT digest");
        assert_eq!(
            (steps, builds),
            (want.join_steps, want.index_builds),
            "{name}: (join steps, index builds)"
        );
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
    for (gi, g) in p.graphs.iter().enumerate() {
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
    assert_eq!(by_key.len(), p.graphs.len());
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
    let builder = AptBuilder::new(&db, &pt, &graphs);
    let (mut closing, mut second_binding, mut nonempty) = (0, 0, 0);
    for (gi, g) in graphs.iter().enumerate() {
        let what = format!("graph {gi} ({})", g.key);
        let shared = builder.materialize(gi).unwrap();
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
    assert!(builder.join_steps() < graphs.iter().map(|g| g.graph.edges.len() as u64).sum());
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
        est_rows: 0.0,
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
    let builder = AptBuilder::new(&db, &pt, &graphs);
    for (gi, g) in graphs.iter().enumerate().rev() {
        let what = format!("graph {gi}");
        let shared = builder.materialize(gi).unwrap();
        assert_apt_eq(
            &shared,
            &Apt::materialize(&db, &pt, &g.graph).unwrap(),
            &what,
        );
        assert_matches_oracle(&db, &pt, &shared, &what);
    }
    assert!(builder.materialize(1).unwrap().num_rows > 0);
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

    let builder = AptBuilder::new(&db, &pt, &graphs);
    // Children first, concurrently: whoever gets there first computes the
    // failing parent step; everyone sees its error.
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for gi in [3, 2, 1, 3] {
                    assert_eq!(builder.materialize(gi).unwrap_err(), want, "graph {gi}");
                }
            });
        }
    });
    for gi in [4, 5] {
        let alone = Apt::materialize(&db, &pt, &graphs[gi].graph).unwrap();
        assert_apt_eq(
            &builder.materialize(gi).unwrap(),
            &alone,
            &format!("graph {gi}"),
        );
    }
    // The failing step ran once, not once per dependent.
    assert_eq!(builder.join_steps(), 1 + 2);
}

// ---- Random small corpora -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random small star corpora the builder agrees with the fold on
    /// every enumerated graph, valid or not.
    #[test]
    fn builder_matches_fold_on_random_synth_corpora(
        rows in 20usize..160,
        tables in 1usize..4,
        columns in 1usize..3,
        fanout in 1usize..6,
        seed in 0u64..1_000_000,
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
        assert_builder_matches(&p, |g| g.est_rows < 50_000.0);
    }
}
