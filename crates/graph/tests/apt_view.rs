//! The APT as a view: who shares which row-id vector along the
//! enumeration tree, what materializing a graph allocates, and the
//! `pt_row` order every later stage leans on.
//!
//! Cell contents are `enumeration_tree.rs`'s business (golden digests
//! recorded from the eager gather this view replaced); this file checks
//! the structure underneath them.

use std::sync::Arc;

use cajade_datagen::{nba, synth};
use cajade_graph::{
    enumerate_join_graphs, Apt, AptBuilder, EnumConfig, EnumeratedGraph, JgEdge, JgNode, JoinCond,
    JoinGraph, NodeLabel, RowIds,
};
use cajade_obs::alloc::scope_snapshot;
use cajade_obs::AllocScope;
use cajade_query::{parse_sql, ProvenanceTable};
use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

// Allocation counts need the tracking allocator in this test binary.
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const GAMES: i64 = 4_000;
const ARENAS: i64 = 8;

/// `game` (the PT) with three kinds of context:
///
/// * `arena` ← `game.arena_id`, and `city` ← `arena.city_id`: N:1, every
///   key finds its row — row-preserving joins;
/// * `box`: 0–3 rows per game — a fan-out (and, where 0, lossy) join;
/// * `team` ← `game.home_tid`: N:1, but every 5th game has a NULL key and
///   every 7th a dangling one — missing matches.
fn corpus() -> (Database, ProvenanceTable) {
    let mut db = Database::new("view");
    let cat = AttrKind::Categorical;
    let num = AttrKind::Numeric;
    for schema in [
        SchemaBuilder::new("game")
            .column_pk("gid", DataType::Int, cat)
            .column("season", DataType::Int, cat)
            .column("arena_id", DataType::Int, cat)
            .column("home_tid", DataType::Int, cat)
            .column("margin", DataType::Float, num),
        SchemaBuilder::new("arena")
            .column_pk("arena_id", DataType::Int, cat)
            .column("city_id", DataType::Int, cat)
            .column("capacity", DataType::Int, num),
        SchemaBuilder::new("city")
            .column_pk("city_id", DataType::Int, cat)
            .column("altitude", DataType::Float, num),
        SchemaBuilder::new("box")
            .column_pk("gid", DataType::Int, cat)
            .column_pk("slot", DataType::Int, cat)
            .column("pts", DataType::Int, num),
        SchemaBuilder::new("team")
            .column_pk("tid", DataType::Int, cat)
            .column("wins", DataType::Int, num),
    ] {
        db.create_table(schema.build()).unwrap();
    }
    let mut push = |table: &str, row: Vec<Value>| {
        db.table_mut(table).unwrap().push_row(row).unwrap();
    };
    for a in 0..ARENAS {
        push(
            "arena",
            vec![Value::Int(a), Value::Int(a % 3), Value::Int(10_000 + a)],
        );
    }
    for c in 0..3 {
        push("city", vec![Value::Int(c), Value::Float(c as f64 * 100.0)]);
    }
    for t in 0..10 {
        push("team", vec![Value::Int(t), Value::Int(30 + t)]);
    }
    for g in 0..GAMES {
        let home = match g {
            g if g % 5 == 0 => Value::Null,
            g if g % 7 == 0 => Value::Int(99),
            g => Value::Int(g % 10),
        };
        push(
            "game",
            vec![
                Value::Int(g),
                Value::Int(g % 4),
                Value::Int(g % ARENAS),
                home,
                Value::Float((g % 17) as f64 - 8.0),
            ],
        );
        for slot in 0..g % 4 {
            push(
                "box",
                vec![Value::Int(g), Value::Int(slot), Value::Int((g + slot) % 40)],
            );
        }
    }
    let query = parse_sql("SELECT count(*) AS c, season FROM game GROUP BY season").unwrap();
    let pt = ProvenanceTable::compute(&db, &query).unwrap();
    (db, pt)
}

/// `parent` plus node `rel`, joined to node `from` on `from_attr = attr`.
fn extended(parent: &JoinGraph, from: usize, rel: &str, on: (&str, &str)) -> JoinGraph {
    let mut g = parent.clone();
    g.nodes.push(JgNode {
        label: NodeLabel::Rel(rel.into()),
    });
    g.edges.push(JgEdge {
        from,
        to: g.nodes.len() - 1,
        cond: JoinCond::on(&[on]),
        schema_edge: g.edges.len(),
        cond_idx: 0,
        pt_from_idx: (from == 0).then_some(0),
    });
    g
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

const PT_ONLY: usize = 0;
const ARENA: usize = 1;
const ARENA_CITY: usize = 2;
const ARENA_BOX: usize = 3;
const TEAM: usize = 4;

/// The tree `PT → {arena → {city, box}, team}`.
fn tree() -> Vec<EnumeratedGraph> {
    let pt_only = JoinGraph::pt_only();
    let arena = extended(&pt_only, 0, "arena", ("arena_id", "arena_id"));
    let arena_city = extended(&arena, 1, "city", ("city_id", "city_id"));
    let arena_box = extended(&arena, 0, "box", ("gid", "gid"));
    let team = extended(&pt_only, 0, "team", ("home_tid", "tid"));
    vec![
        listed(pt_only, None),
        listed(arena, Some(PT_ONLY)),
        listed(arena_city, Some(ARENA)),
        listed(arena_box, Some(ARENA)),
        listed(team, Some(PT_ONLY)),
    ]
}

/// The row-id vector APT field `name` is read through.
fn rows_of<'a>(apt: &'a Apt, name: &str) -> &'a RowIds {
    apt.columns[apt.field_index(name).unwrap()].rows()
}

/// Every cell, `pt_row` and the schema of `a` and `b` agree.
fn assert_same_cells(a: &Apt, b: &Apt, what: &str) {
    assert_eq!(a.num_rows, b.num_rows, "{what}: rows");
    assert_eq!(a.pt_row, b.pt_row, "{what}: pt_row");
    assert_eq!(a.fields.len(), b.fields.len(), "{what}: fields");
    for (f, field) in a.fields.iter().enumerate() {
        assert_eq!(field.name, b.fields[f].name, "{what}: field {f}");
        for r in 0..a.num_rows {
            assert_eq!(a.value(r, f), b.value(r, f), "{what}: {}[{r}]", field.name);
        }
    }
}

#[test]
fn row_preserving_children_share_their_parents_vectors() {
    let (db, pt) = corpus();
    let graphs = tree();
    let builder = AptBuilder::new(&db, &pt, &graphs);
    let pt_only = builder.materialize(PT_ONLY).unwrap();
    let arena = builder.materialize(ARENA).unwrap();
    let arena_city = builder.materialize(ARENA_CITY).unwrap();

    // Every game has its arena and every arena its city: both joins keep
    // each input row exactly once, so the PT's vector goes all the way down
    // and the arena's one level.
    assert_eq!(arena.num_rows, GAMES as usize);
    assert!(RowIds::ptr_eq(&pt_only.pt_row, &arena.pt_row));
    assert!(RowIds::ptr_eq(&pt_only.pt_row, &arena_city.pt_row));
    assert!(RowIds::ptr_eq(
        rows_of(&arena, "arena.capacity"),
        rows_of(&arena_city, "arena.capacity")
    ));
    assert!(!RowIds::ptr_eq(
        rows_of(&arena_city, "arena.capacity"),
        rows_of(&arena_city, "city.altitude")
    ));
    // A PT column is read through the PT node's vector, and no cell of a
    // base column was copied: the view holds the table's own column.
    assert!(RowIds::ptr_eq(
        rows_of(&arena, "prov_game_margin"),
        &arena.pt_row
    ));
    let capacity = arena.field_index("arena.capacity").unwrap();
    let base = db.table("arena").unwrap().column_handle(2);
    assert!(Arc::ptr_eq(arena.columns[capacity].base(), &base));

    for gi in [PT_ONLY, ARENA, ARENA_CITY] {
        let alone = Apt::materialize(&db, &pt, &graphs[gi].graph).unwrap();
        assert_same_cells(&builder.materialize(gi).unwrap(), &alone, "graph");
    }
}

#[test]
fn fan_out_and_lossy_children_share_nothing() {
    let (db, pt) = corpus();
    let graphs = tree();
    let builder = AptBuilder::new(&db, &pt, &graphs);
    let pt_only = builder.materialize(PT_ONLY).unwrap();
    let arena = builder.materialize(ARENA).unwrap();

    // `game ⋈ box`: 0–3 rows per game.
    let arena_box = builder.materialize(ARENA_BOX).unwrap();
    let box_rows = db.table("box").unwrap().num_rows();
    assert_eq!(arena_box.num_rows, box_rows);
    assert!(box_rows > GAMES as usize);
    assert!(!RowIds::ptr_eq(&arena_box.pt_row, &arena.pt_row));
    assert!(!RowIds::ptr_eq(
        rows_of(&arena_box, "arena.capacity"),
        rows_of(&arena, "arena.capacity")
    ));

    // `game ⋈ team`: one team per game where there is one.
    let team = builder.materialize(TEAM).unwrap();
    assert!(team.num_rows < GAMES as usize && team.num_rows > GAMES as usize / 2);
    assert!(!RowIds::ptr_eq(&team.pt_row, &pt_only.pt_row));

    for (gi, apt) in [(ARENA_BOX, &arena_box), (TEAM, &team)] {
        let alone = Apt::materialize(&db, &pt, &graphs[gi].graph).unwrap();
        assert_same_cells(apt, &alone, &format!("graph {gi}"));
    }
}

/// A row-preserving child costs its own node's row-id vector and the
/// schema: 4 B a row and a few hundred bytes a field. The eager gather
/// this replaced copied ≥ 8 B × rows × fields for the same graph.
#[test]
fn materializing_a_row_preserving_child_allocates_one_vector() {
    let (db, pt) = corpus();
    let graphs = tree();
    let builder = AptBuilder::new(&db, &pt, &graphs);
    // A leaf, so its matrix is not memoized; the first call builds the
    // parent's matrix and `city`'s key index, the second is the steady
    // state of a sibling: one `extend` and the view.
    let first = builder.materialize(ARENA_CITY).unwrap();
    let guard = AllocScope::enter("test.apt_view.child");
    let again = builder.materialize(ARENA_CITY).unwrap();
    drop(guard);
    let allocated = scope_snapshot("test.apt_view.child")
        .expect("scope was entered")
        .allocated_bytes as usize;

    let (rows, fields) = (again.num_rows, again.fields.len());
    assert_eq!((rows, fields), (GAMES as usize, first.fields.len()));
    assert!(
        allocated >= 4 * rows,
        "{allocated} B: the new node's vector at least"
    );
    assert!(
        allocated < 8 * rows + 512 * fields,
        "{allocated} B for {rows} rows × {fields} fields"
    );
}

/// `Apt::pt_row` is non-decreasing — the invariant the scoring index's
/// bucket pass rests on — on every graph of an enumeration that an ask
/// materializes (the valid ones: row-preserving, fan-out and lossy joins
/// all occur among them).
#[test]
fn pt_row_is_non_decreasing_on_whole_enumerations() {
    const NBA_SQL: &str = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
        WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
        GROUP BY s.season_name";
    let corpora = [
        (nba::generate(nba::NbaConfig::tiny()), NBA_SQL),
        (
            synth::generate(&synth::SynthConfig::small()),
            synth::SYNTH_SQL,
        ),
    ];
    let (mut checked, mut fan_out) = (0, 0);
    for (gen, sql) in corpora {
        let query = parse_sql(sql).unwrap();
        let pt = ProvenanceTable::compute(&gen.db, &query).unwrap();
        let graphs = enumerate_join_graphs(
            &gen.schema_graph,
            &gen.db,
            &query,
            pt.num_rows,
            &EnumConfig::default(),
        )
        .unwrap();
        let builder = AptBuilder::new(&gen.db, &pt, &graphs);
        for gi in (0..graphs.len()).filter(|&gi| graphs[gi].valid) {
            let apt = builder.materialize(gi).unwrap();
            assert_eq!(apt.pt_row.len(), apt.num_rows);
            assert!(
                apt.pt_row.windows(2).all(|w| w[0] <= w[1]),
                "graph {gi} ({})",
                graphs[gi].key
            );
            checked += 1;
            fan_out += (apt.num_rows > pt.num_rows) as usize;
        }
    }
    assert!(
        checked > 40 && fan_out > 0,
        "{checked} graphs, {fan_out} fan-out"
    );
}
