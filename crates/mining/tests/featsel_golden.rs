//! Bit-pattern goldens for `filterAttrs`, recorded on the commit before
//! the histogram-tree kernel was rewritten (PR 16): every relevance as
//! `f64::to_bits`, the selected fields and the clusters. A change to the
//! trainer, the binning, the association measures or the RNG stream that
//! moves one bit of one importance fails here before it can move a
//! ranking somewhere harder to see.

use cajade_graph::{Apt, JgEdge, JgNode, JoinCond, JoinGraph, NodeLabel};
use cajade_mining::featsel::{select_features_hist, FeatSelConfig};
use cajade_mining::{
    BaseTableStats, ColumnStatsConfig, FeatureSelection, MiningParams, NoSharedStats, Question,
    ScoreIndex,
};
use cajade_query::{parse_sql, ProvenanceTable};
use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

fn rendered(fs: &FeatureSelection) -> String {
    let bits: Vec<String> = fs
        .relevance
        .iter()
        .map(|r| format!("{:016x}", r.to_bits()))
        .collect();
    format!(
        "rel=[{}] num={:?} cat={:?} clusters={:?}",
        bits.join(" "),
        fs.num_fields,
        fs.cat_fields,
        fs.clusters
    )
}

/// The family/noise fixture of `hist_featsel_equivalence.rs`: `signal`
/// separates the two groups, `dup` doubles it, `label_cat` restates it,
/// `noise` does not.
fn family_noise() -> (ProvenanceTable, Apt) {
    let mut db = Database::new("fs");
    db.create_table(
        SchemaBuilder::new("t")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("grp", DataType::Str, AttrKind::Categorical)
            .column("signal", DataType::Int, AttrKind::Numeric)
            .column("dup", DataType::Int, AttrKind::Numeric)
            .column("noise", DataType::Int, AttrKind::Numeric)
            .column("label_cat", DataType::Str, AttrKind::Categorical)
            .build(),
    )
    .unwrap();
    let groups = [db.intern("g1"), db.intern("g2")];
    let cats = [db.intern("a"), db.intern("b")];
    for i in 0..200i64 {
        let odd = (i % 2) as usize;
        let signal = if odd == 0 { i % 40 } else { 60 + i % 40 };
        db.table_mut("t")
            .unwrap()
            .push_row(vec![
                Value::Int(i),
                Value::Str(groups[odd]),
                Value::Int(signal),
                Value::Int(signal * 2),
                Value::Int((i * 7918) % 100),
                Value::Str(cats[odd]),
            ])
            .unwrap();
    }
    let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
    let pt = ProvenanceTable::compute(&db, &q).unwrap();
    let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
    (pt, apt)
}

/// An NBA-shaped APT: 260 games over five seasons joined to a fan-out
/// box-score table (wide enough that a node samples √p of the columns,
/// with a high-cardinality date-like key, a capped player dictionary,
/// nulls, and a float column), so every one-vs-rest task trains.
fn box_scores() -> (Database, ProvenanceTable, JoinGraph) {
    let mut db = Database::new("nba_shaped");
    db.create_table(
        SchemaBuilder::new("game")
            .column_pk("id", DataType::Int, AttrKind::Categorical)
            .column("season", DataType::Str, AttrKind::Categorical)
            .column("home_pts", DataType::Int, AttrKind::Numeric)
            .column("away_pts", DataType::Int, AttrKind::Numeric)
            .column("venue", DataType::Str, AttrKind::Categorical)
            .build(),
    )
    .unwrap();
    db.create_table(
        SchemaBuilder::new("box")
            .column_pk("game_id", DataType::Int, AttrKind::Categorical)
            .column_pk("slot", DataType::Int, AttrKind::Categorical)
            .column("player", DataType::Str, AttrKind::Categorical)
            .column("pos", DataType::Str, AttrKind::Categorical)
            .column("day", DataType::Int, AttrKind::Categorical)
            .column("pts", DataType::Int, AttrKind::Numeric)
            .column("reb", DataType::Int, AttrKind::Numeric)
            .column("ast", DataType::Int, AttrKind::Numeric)
            .column("minutes", DataType::Float, AttrKind::Numeric)
            .column("plus_minus", DataType::Int, AttrKind::Numeric)
            .build(),
    )
    .unwrap();
    let seasons: Vec<_> = (0..5).map(|s| db.intern(&format!("20{s}"))).collect();
    let venues: Vec<_> = (0..7).map(|v| db.intern(&format!("arena{v}"))).collect();
    let players: Vec<_> = (0..60).map(|p| db.intern(&format!("p{p}"))).collect();
    let positions: Vec<_> = ["G", "F", "C"].iter().map(|p| db.intern(p)).collect();
    // A fixed LCG, so the corpus is the same on every machine.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % m) as i64
    };
    for g in 0..260i64 {
        // Seasons of unequal size; later seasons score more.
        let season = match g {
            0..=89 => 0,
            90..=159 => 1,
            160..=209 => 2,
            210..=239 => 3,
            _ => 4,
        };
        db.table_mut("game")
            .unwrap()
            .push_row(vec![
                Value::Int(g),
                Value::Str(seasons[season]),
                Value::Int(90 + 4 * season as i64 + next(25)),
                Value::Int(88 + next(30)),
                Value::Str(venues[next(7) as usize]),
            ])
            .unwrap();
        for slot in 0..1 + next(4) {
            // Players rotate with the season, so `player` carries signal.
            let player = (season as i64 * 9 + next(24)) as usize % 60;
            let pts = next(12)
                + if player.is_multiple_of(9) {
                    14 + 2 * season as i64
                } else {
                    2
                };
            let minutes = if next(11) == 0 {
                Value::Null
            } else {
                Value::Float(8.0 + pts as f64 * 0.75 + next(9) as f64 * 0.5)
            };
            db.table_mut("box")
                .unwrap()
                .push_row(vec![
                    Value::Int(g),
                    Value::Int(slot),
                    Value::Str(players[player]),
                    Value::Str(positions[player % 3]),
                    Value::Int(g * 3 + next(3)),
                    Value::Int(pts),
                    if next(13) == 0 {
                        Value::Null
                    } else {
                        Value::Int(next(15))
                    },
                    Value::Int(next(11) + player.is_multiple_of(3) as i64 * 4),
                    minutes,
                    Value::Int(next(41) - 20 + season as i64),
                ])
                .unwrap();
        }
    }
    let q = parse_sql("SELECT count(*) AS c, season FROM game GROUP BY season").unwrap();
    let pt = ProvenanceTable::compute(&db, &q).unwrap();
    let mut graph = JoinGraph::pt_only();
    graph.nodes.push(JgNode {
        label: NodeLabel::Rel("box".into()),
    });
    graph.edges.push(JgEdge {
        from: 0,
        to: 1,
        cond: JoinCond::on(&[("id", "game_id")]),
        schema_edge: 0,
        cond_idx: 0,
        pt_from_idx: Some(0),
    });
    (db, pt, graph)
}

const FAMILY_NOISE_QUESTION: &str = "rel=[0000000000000000 0000000000000000 3fa7ae445f87a920 3fdaf4dd62cff44e 0000000000000000 3fe10aad089f8b46] num=[4] cat=[5] clusters=[[0, 2, 3, 5], [4]]";
const FAMILY_NOISE_GLOBAL: &str = "rel=[3f5674000bbb096d 0000000000000000 3fc7c97b9032bed9 3fb6a74cd7ad746e 3f51f6666fc8d457 3fe724824dbfdfcc] num=[4] cat=[5] clusters=[[0, 2, 3, 5], [4]]";
const BOX_SCORES_SHARED: &str = "rel=[3fa7c80a09afbd30 0000000000000000 3fcdbe74d08cd3ac 3fbb3523ee834d03 3fad65768fe1e15b 3f9157045e5757f3 3fc75429d5f84ee5 3f8b085253ae42dc 3f98fde3aa073bbe 3fa33fd5e7904c7d 3fad8fc3a47e513d 3fadaaaddb861728 3fb40ee3939fdcd6 3fb6cc92e3b1fa0b] num=[2, 3] cat=[6] clusters=[[0, 2, 8], [3], [4], [5], [6, 7], [9, 12], [10], [11], [13]]";
const BOX_SCORES_UNSHARED: &str = "rel=[3f9cf1eb94a1a05b 0000000000000000 3fce86fdfe964b99 3fb68b76a76c6d84 3fad59ae1fba73a2 3f9a461739dc0c5c 3fc71cd9bfc2704b 3f95a62785c04cda 3fa07fe8f598e0a8 3fb18c913a563bb5 3faf6662011b8884 3faeeceeafe2b7f1 3faa03ee2acd1216 3fb6505313ed0d36] num=[2, 3] cat=[6] clusters=[[0, 2, 8], [3], [4], [5], [6, 7], [9, 12], [10], [11], [13]]";

#[test]
fn family_noise_fixture_reproduces_the_recorded_bits() {
    let (pt, apt) = family_noise();
    let index = ScoreIndex::exact(&apt, &pt);
    let cfg = FeatSelConfig::default();
    let question = Question::TwoPoint { t1: 0, t2: 1 };
    let fs = select_features_hist(
        &apt,
        &pt,
        index.order(),
        Some(&question),
        &cfg,
        &NoSharedStats,
    );
    assert_eq!(rendered(&fs), FAMILY_NOISE_QUESTION);
    let fs = select_features_hist(&apt, &pt, index.order(), None, &cfg, &NoSharedStats);
    assert_eq!(rendered(&fs), FAMILY_NOISE_GLOBAL);
}

#[test]
fn multi_group_apt_with_shared_stats_reproduces_the_recorded_bits() {
    let (db, pt, graph) = box_scores();
    let apt = Apt::materialize(&db, &pt, &graph).unwrap();
    assert!(pt.rows_of_group.len() == 5 && apt.num_rows > 500);
    let index = ScoreIndex::exact(&apt, &pt);
    let cfg = FeatSelConfig::default();
    let shared = BaseTableStats::new(
        &db,
        ColumnStatsConfig::from_params(&MiningParams::default()),
    );
    let fs = select_features_hist(&apt, &pt, index.order(), None, &cfg, &shared);
    assert_eq!(rendered(&fs), BOX_SCORES_SHARED);
    let fs = select_features_hist(&apt, &pt, index.order(), None, &cfg, &NoSharedStats);
    assert_eq!(rendered(&fs), BOX_SCORES_UNSHARED);
}
