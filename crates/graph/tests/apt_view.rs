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
        parent,
    }
}

const PT_ONLY: usize = 0;
const ARENA: usize = 1;
const ARENA_CITY: usize = 2;
const ARENA_BOX: usize = 3;
const TEAM: usize = 4;
const ARENA_BOX_CITY: usize = 5;
const ARENA_TWICE: usize = 6;
const ARENA_TWICE_CITY: usize = 7;
const BOX: usize = 8;
const TEAM_ARENA: usize = 9;

/// The tree `PT → {arena → {city, box → city, arena → city}, team →
/// arena, box}`.
fn tree() -> Vec<EnumeratedGraph> {
    let pt_only = JoinGraph::pt_only();
    let arena = extended(&pt_only, 0, "arena", ("arena_id", "arena_id"));
    let arena_city = extended(&arena, 1, "city", ("city_id", "city_id"));
    let arena_box = extended(&arena, 0, "box", ("gid", "gid"));
    let team = extended(&pt_only, 0, "team", ("home_tid", "tid"));
    let arena_box_city = extended(&arena_box, 1, "city", ("city_id", "city_id"));
    // `arena` a second time, and `city` off the second one (node 2).
    let arena_twice = extended(&arena, 0, "arena", ("arena_id", "arena_id"));
    let arena_twice_city = extended(&arena_twice, 2, "city", ("city_id", "city_id"));
    let box_ = extended(&pt_only, 0, "box", ("gid", "gid"));
    let team_arena = extended(&team, 0, "arena", ("arena_id", "arena_id"));
    vec![
        listed(pt_only, None),
        listed(arena, Some(PT_ONLY)),
        listed(arena_city, Some(ARENA)),
        listed(arena_box, Some(ARENA)),
        listed(team, Some(PT_ONLY)),
        listed(arena_box_city, Some(ARENA_BOX)),
        listed(arena_twice, Some(ARENA)),
        listed(arena_twice_city, Some(ARENA_TWICE)),
        listed(box_, Some(PT_ONLY)),
        listed(team_arena, Some(TEAM)),
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
    let builder = AptBuilder::new(&db, &pt, &graphs, f64::INFINITY);
    let pt_only = builder.materialize(PT_ONLY).unwrap().unwrap();
    let arena = builder.materialize(ARENA).unwrap().unwrap();
    let arena_city = builder.materialize(ARENA_CITY).unwrap().unwrap();

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
        assert_same_cells(&builder.materialize(gi).unwrap().unwrap(), &alone, "graph");
    }
}

#[test]
fn fan_out_and_lossy_children_share_nothing() {
    let (db, pt) = corpus();
    let graphs = tree();
    let builder = AptBuilder::new(&db, &pt, &graphs, f64::INFINITY);
    let pt_only = builder.materialize(PT_ONLY).unwrap().unwrap();
    let arena = builder.materialize(ARENA).unwrap().unwrap();

    // `game ⋈ box`: 0–3 rows per game.
    let arena_box = builder.materialize(ARENA_BOX).unwrap().unwrap();
    let box_rows = db.table("box").unwrap().num_rows();
    assert_eq!(arena_box.num_rows, box_rows);
    assert!(box_rows > GAMES as usize);
    assert!(!RowIds::ptr_eq(&arena_box.pt_row, &arena.pt_row));
    assert!(!RowIds::ptr_eq(
        rows_of(&arena_box, "arena.capacity"),
        rows_of(&arena, "arena.capacity")
    ));

    // `game ⋈ team`: one team per game where there is one.
    let team = builder.materialize(TEAM).unwrap().unwrap();
    assert!(team.num_rows < GAMES as usize && team.num_rows > GAMES as usize / 2);
    assert!(!RowIds::ptr_eq(&team.pt_row, &pt_only.pt_row));

    for (gi, apt) in [(ARENA_BOX, &arena_box), (TEAM, &team)] {
        let alone = Apt::materialize(&db, &pt, &graphs[gi].graph).unwrap();
        assert_same_cells(apt, &alone, &format!("graph {gi}"));
    }
}

/// A row-preserving child costs its own node's row-id vector and the
/// schema: 4 B a row and a few hundred bytes a field. The eager gather
/// this replaced copied ≥ 8 B × rows × fields for the same graph. Asked
/// for again, the graph costs the schema alone: its step reads what it
/// read the first time.
#[test]
fn materializing_a_row_preserving_child_allocates_one_vector() {
    let (db, pt) = corpus();
    let graphs = tree();
    let builder = AptBuilder::new(&db, &pt, &graphs, f64::INFINITY);
    // `city`'s key index and every step of the parent exist; the child's
    // last step — `city` through `arena`'s vector as `box`'s fan-out
    // re-emitted it — has not been computed by anyone.
    builder.materialize(ARENA_CITY).unwrap().unwrap();
    builder.materialize(ARENA_BOX).unwrap().unwrap();
    let allocated_by = |scope: &'static str| {
        let guard = AllocScope::enter(scope);
        let apt = builder.materialize(ARENA_BOX_CITY).unwrap().unwrap();
        drop(guard);
        let snapshot = scope_snapshot(scope).expect("scope was entered");
        (apt, snapshot.allocated_bytes as usize)
    };
    let (first, allocated) = allocated_by("test.apt_view.child");
    let (again, allocated_again) = allocated_by("test.apt_view.child_again");

    let (rows, fields) = (first.num_rows, first.fields.len());
    assert_eq!(rows, db.table("box").unwrap().num_rows());
    assert_eq!((again.num_rows, again.fields.len()), (rows, fields));
    assert!(
        allocated >= 4 * rows,
        "{allocated} B: the new node's vector at least"
    );
    assert!(
        allocated < 8 * rows + 512 * fields,
        "{allocated} B for {rows} rows × {fields} fields"
    );
    assert!(
        allocated_again < 512 * fields,
        "{allocated_again} B for {fields} fields, no vector"
    );
    assert!(RowIds::ptr_eq(
        rows_of(&first, "city.altitude"),
        rows_of(&again, "city.altitude")
    ));
    // Four materializations of 2 + 2 + 3 + 3 edges; the second ask of the
    // child computed nothing.
    assert_eq!(
        (builder.join_steps(), builder.join_steps_computed()),
        (10, 4)
    );
}

/// A step is a function of what it reads: graphs that are neither parent
/// nor child of each other hold one vector wherever they joined the same
/// table through the same key column over the same, unchanged vector.
#[test]
fn steps_reading_the_same_inputs_share_their_vectors() {
    let (db, pt) = corpus();
    let graphs = tree();
    let builder = AptBuilder::new(&db, &pt, &graphs, f64::INFINITY);
    let apts: Vec<Apt> = (0..graphs.len())
        .map(|gi| builder.materialize(gi).unwrap().unwrap())
        .collect();

    // A relation joined twice to the same anchor: one vector in one APT,
    // which `approx_bytes` counts once — the second `arena` costs its
    // fields, not its rows.
    let twice = &apts[ARENA_TWICE];
    assert!(RowIds::ptr_eq(
        rows_of(twice, "arena1.capacity"),
        rows_of(twice, "arena2.capacity")
    ));
    assert!(twice.approx_bytes() - apts[ARENA].approx_bytes() < 4 * twice.num_rows);

    // Cousins: `city` joined to the one `arena` vector, in the subtree of
    // `arena` and in the subtree of `arena ⋈ arena`.
    assert!(RowIds::ptr_eq(
        rows_of(&apts[ARENA_CITY], "city.altitude"),
        rows_of(&apts[ARENA_TWICE_CITY], "city.altitude")
    ));

    // The same fan-out over the same PT vector, under `PT` and under
    // `arena`: one emission list, so one re-emitted PT vector and one `box`
    // vector; `arena`'s vector is re-emitted for the graph that has it,
    // and that graph's child shares all three.
    let (plain, under_arena) = (&apts[BOX], &apts[ARENA_BOX]);
    assert!(RowIds::ptr_eq(&plain.pt_row, &under_arena.pt_row));
    assert!(RowIds::ptr_eq(
        rows_of(plain, "box.pts"),
        rows_of(under_arena, "box.pts")
    ));
    for field in ["prov_game_margin", "arena.capacity", "box.pts"] {
        assert!(
            RowIds::ptr_eq(
                rows_of(under_arena, field),
                rows_of(&apts[ARENA_BOX_CITY], field)
            ),
            "{field}"
        );
    }

    // Not the same inputs: `arena` through the PT vector the lossy `team`
    // join re-emitted is a probe of its own.
    assert!(!RowIds::ptr_eq(
        rows_of(&apts[TEAM_ARENA], "arena.capacity"),
        rows_of(&apts[ARENA], "arena.capacity")
    ));

    // One step applied per edge of every graph, 17; 6 computed. Of each
    // graph's last step 3 are look-ups — the second `arena`, `city` off
    // it, and `box` under `arena` — and so is every prefix step.
    assert_eq!(
        builder.join_steps(),
        graphs.iter().map(|g| g.graph.edges.len() as u64).sum()
    );
    assert_eq!(
        (builder.join_steps(), builder.join_steps_computed()),
        (17, 6)
    );
    for (gi, apt) in apts.iter().enumerate() {
        let alone = Apt::materialize(&db, &pt, &graphs[gi].graph).unwrap();
        assert_same_cells(apt, &alone, &format!("graph {gi}"));
        // A fold of one graph shares within the graph all the same.
        if gi == ARENA_TWICE {
            assert!(RowIds::ptr_eq(
                rows_of(&alone, "arena1.capacity"),
                rows_of(&alone, "arena2.capacity")
            ));
        }
    }
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
        let builder = AptBuilder::new(&gen.db, &pt, &graphs, f64::INFINITY);
        for gi in (0..graphs.len()).filter(|&gi| graphs[gi].valid) {
            let apt = builder.materialize(gi).unwrap().unwrap();
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
