//! Micro-benchmarks for the substrate kernels: hash join,
//! group-by aggregation, pattern matching, LCA candidate generation,
//! random-forest training (the float reference and the histogram trainer
//! feature selection runs), Cramér's V and the association matrix,
//! join-graph enumeration, APT materialization and mining preparation of
//! a whole enumeration — with and without what its graphs share — the
//! exact re-score of one pattern, and one graph's warm mine with its
//! diverse top-k.
//!
//! `cargo bench` passes `--bench`, which measures each body and prints
//! its mean time; `cargo test` runs the same binary without it, and each
//! body runs once as a smoke test.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cajade_datagen::nba::{self, NbaConfig};
use cajade_datagen::{synth, GeneratedDb};
use cajade_graph::{
    enumerate_join_graphs, Apt, AptBuilder, EnumConfig, EnumeratedGraph, JoinGraph,
};
use cajade_mining::{
    lca_candidates, mine_prepared, prepare_apt, prepare_apt_with, select_top_k_diverse,
    BaseTableStats, ColumnStats, ColumnStatsConfig, ColumnStatsProvider, MiningParams, PatValue,
    Pattern, Pred, PredOp, PreparedApt, Question, ReadShare, ScoreIndex, Scorer,
};
use cajade_ml::{
    assoc_matrix, cramers_v, BinnedColumn, FeatureColumn, HistForest, RandomForest,
    RandomForestConfig,
};
use cajade_query::{execute, parse_sql, ProvenanceTable};

/// Samples a measured body is timed over.
const SAMPLES: u32 = 20;

/// Runs `body` under `name`. With `--bench`: calibrates for ~50 ms, then
/// times ~1 s of calls over [`SAMPLES`] samples and prints the mean time
/// per call. Without: runs it once.
fn bench<R>(name: &str, mut body: impl FnMut() -> R) {
    if !std::env::args().any(|a| a == "--bench") {
        black_box(body());
        println!("Testing {name} ... ok");
        return;
    }
    let calibration = Instant::now();
    let mut calls = 0u32;
    while calibration.elapsed() < Duration::from_millis(50) {
        black_box(body());
        calls += 1;
    }
    let per_call = calibration.elapsed() / calls;
    let per_sample = (Duration::from_secs(1).as_nanos() / per_call.as_nanos().max(1))
        .clamp(SAMPLES.into(), 1_000_000) as u32
        / SAMPLES;
    let total: Duration = (0..SAMPLES)
        .map(|_| {
            let sample = Instant::now();
            for _ in 0..per_sample {
                black_box(body());
            }
            sample.elapsed()
        })
        .sum();
    let ns = total.as_nanos() as f64 / f64::from(SAMPLES * per_sample);
    let time = match ns {
        ns if ns < 1e3 => format!("{ns:.1} ns"),
        ns if ns < 1e6 => format!("{:.2} µs", ns / 1e3),
        ns if ns < 1e9 => format!("{:.2} ms", ns / 1e6),
        ns => format!("{:.3} s", ns / 1e9),
    };
    println!("{name:<50} time: {time}");
}

/// The paper's running example: GSW's wins per season.
const GSW_WINS_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
     GROUP BY s.season_name";

fn bench_join_and_aggregate() {
    let gen = nba::generate(NbaConfig {
        seasons: 10,
        games_per_team: 20,
        players_per_team: 8,
        rich_stats: false,
        seed: 1,
    });
    let q = parse_sql(
        "SELECT COUNT(*) AS c, s.season_name \
         FROM player_game_stats pgs, game g, season s \
         WHERE pgs.game_date = g.game_date AND pgs.home_id = g.home_id \
           AND s.season_id = g.season_id \
         GROUP BY s.season_name",
    )
    .unwrap();
    bench("hash_join_3way_group_by", || {
        execute(black_box(&gen.db), black_box(&q)).unwrap()
    });
}

fn bench_provenance() {
    let gen = nba::generate(NbaConfig {
        seasons: 10,
        games_per_team: 20,
        players_per_team: 8,
        rich_stats: false,
        seed: 1,
    });
    let q = parse_sql(GSW_WINS_SQL).unwrap();
    bench("provenance_capture", || {
        ProvenanceTable::compute(black_box(&gen.db), black_box(&q)).unwrap()
    });
}

fn pattern_fixture() -> (cajade_datagen::GeneratedDb, ProvenanceTable, Apt) {
    let gen = nba::generate(NbaConfig {
        seasons: 10,
        games_per_team: 20,
        players_per_team: 8,
        rich_stats: false,
        seed: 1,
    });
    let q = parse_sql(GSW_WINS_SQL).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &q).unwrap();
    let apt = Apt::materialize(&gen.db, &pt, &JoinGraph::pt_only()).unwrap();
    (gen, pt, apt)
}

fn bench_pattern_scoring() {
    let (_gen, pt, apt) = pattern_fixture();
    let pts_field = apt.field_index("prov_game_home__points").unwrap();
    let pattern = Pattern::from_preds(vec![(
        pts_field,
        Pred {
            op: PredOp::Ge,
            value: PatValue::Int(105),
        },
    )]);
    let scorer = Scorer::exact(&apt, &pt);
    bench("pattern_score_definition7", || {
        scorer.score(black_box(&pattern), 0, Some(1))
    });

    // The Definition-7 count alone — one threshold's mask scored in every
    // direction of a two-point question (each questioned group counted
    // once) and of a single-point one (its group and the whole scan) — on
    // two fan-out graphs: the one whose join fans the PT rows out the most
    // (segments of thousands of rows), and the largest whose APT holds at
    // most 8 rows per PT row (segments of a few rows, as most graphs' are).
    let Enumeration {
        gen, pt, graphs, ..
    } = enumeration(pattern_fixture().0, GSW_WINS_SQL);
    let builder = AptBuilder::new(&gen.db, &pt, &graphs, f64::INFINITY);
    let materialize = |gi: usize| builder.materialize(gi).unwrap().unwrap();
    let rows: Vec<(usize, usize)> = (0..graphs.len())
        .filter(|&gi| graphs[gi].valid)
        .map(|gi| (materialize(gi).num_rows, gi))
        .collect();
    let widest = rows.iter().max().unwrap().1;
    let short = (rows.iter().filter(|&&(n, _)| n <= 8 * pt.num_rows))
        .max()
        .unwrap()
        .1;
    for gi in [widest, short] {
        let apt = materialize(gi);
        assert!(apt.num_rows >= 2 * pt.num_rows, "{} APT rows", apt.num_rows);
        let field = *(apt.pattern_fields().iter())
            .rfind(|&&f| apt.fields[f].kind == cajade_storage::AttrKind::Numeric)
            .unwrap();
        let threshold = Pred {
            op: PredOp::Ge,
            value: PatValue::from_value(&apt.value(apt.num_rows / 2, field)).unwrap(),
        };
        let index = ScoreIndex::exact(&apt, &pt).encode(&apt, &[field]);
        let mask = index.eval_pred(field, &threshold);
        let name = format!("pattern_score_definition7/fan_out_{}_rows", apt.num_rows);
        let two_point = Question::TwoPoint { t1: 0, t2: 1 };
        bench(&format!("{name}/two_point"), || {
            index.score_question(black_box(&mask), &two_point)
        });
        let single_point = Question::SinglePoint { t: 0 };
        bench(&format!("{name}/single_point"), || {
            index.score_question(black_box(&mask), &single_point)
        });
    }
}

fn bench_lca() {
    let (_gen, _pt, apt) = pattern_fixture();
    let cats: Vec<usize> = apt
        .pattern_fields()
        .into_iter()
        .filter(|&f| apt.fields[f].kind == cajade_storage::AttrKind::Categorical)
        .collect();
    for n in [64usize, 128, 256] {
        let rows: Vec<u32> = (0..apt.num_rows.min(n) as u32).collect();
        bench(&format!("lca_candidates/{n}"), || {
            lca_candidates(black_box(&apt), black_box(&rows), black_box(&cats))
        });
    }
}

fn bench_forest() {
    let n = 2000;
    let features = vec![
        FeatureColumn::Numeric((0..n).map(|i| (i % 97) as f64).collect()),
        FeatureColumn::Numeric((0..n).map(|i| (i % 13) as f64).collect()),
        FeatureColumn::Categorical((0..n).map(|i| (i % 7) as u32).collect()),
    ];
    let labels: Vec<bool> = (0..n).map(|i| (i % 97) > 48).collect();
    bench("random_forest_fit_2k_rows", || {
        RandomForest::fit(
            black_box(&features),
            black_box(&labels),
            &RandomForestConfig {
                num_trees: 10,
                ..Default::default()
            },
        )
    });
}

/// A deterministic stand-in for a hash: spreads `i` over `0..m`.
fn mix(i: usize, salt: usize, m: usize) -> usize {
    (i.wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(40_503)).wrapping_mul(2_246_822_519) % m
}

/// `features` binned columns over `rows` rows; those `categorical` picks
/// are keyed (cardinality `5 + 9f`, past the 32-bin budget from column 5
/// on), the others quantile-binned.
fn binned_fixture(
    rows: usize,
    features: usize,
    categorical: impl Fn(usize) -> bool,
) -> Vec<BinnedColumn> {
    (0..features)
        .map(|f| {
            if categorical(f) {
                let keys = (0..rows).map(|i| Some(mix(i, f, 5 + 9 * f) as u64));
                BinnedColumn::from_keys(keys.collect::<Vec<_>>(), 32)
            } else {
                let vals: Vec<f64> = (0..rows).map(|i| mix(i, f, 10_000) as f64).collect();
                BinnedColumn::from_f64(&vals, 32)
            }
        })
        .collect()
}

/// Row `i`'s group of four, carried weakly by columns 0 and 1.
fn group_of(i: usize) -> usize {
    (mix(i, 0, 10_000) / 2_500 + usize::from(mix(i, 1, 10_000) > 5_000)) % 4
}

/// One feature-selection task at the shapes the `e2e_bench` workloads
/// train on — bootstrap rows × candidate columns of a one-vs-rest task
/// on `nba_cold`, `mimic_churn` and `synth_wide`: 5 trees of depth 8,
/// ⌈√p⌉ features per node, two columns in three quantile-binned.
fn bench_hist_tree_fit() {
    for (rows, features) in [(58usize, 35usize), (160, 24), (1250, 23)] {
        let cols = binned_fixture(rows, features, |f| f % 3 == 2);
        // One group against the rest, carried weakly by two columns.
        let labels: Vec<bool> = (0..rows)
            .map(|i| mix(i, 0, 10_000) + mix(i, 1, 10_000) / 2 + mix(i, 999, 6_000) > 11_000)
            .collect();
        let cfg = RandomForestConfig {
            num_trees: 5,
            ..Default::default()
        };
        bench(&format!("hist_tree_fit/{rows}x{features}"), || {
            HistForest::fit(black_box(&cols), black_box(&labels), &cfg)
        });
    }
}

/// Whole forests at the two largest shapes the service and the harness
/// fit: `20000x7` is `e2e_bench`'s `ml_micro` (the largest `synth_wide`
/// APT's 7 numeric columns, 20 trees over full-size bootstraps);
/// `5000x23x4tasks` is one group-global `filterAttrs` on the star —
/// `featsel::MAX_TRAIN_ROWS` rows, four one-vs-rest tasks of 5 trees on
/// quarter-size bootstraps.
fn bench_hist_forest_fit() {
    let cols = binned_fixture(20_000, 7, |_| false);
    let labels: Vec<bool> = (0..20_000).map(|i| group_of(i) == 0).collect();
    let cfg = RandomForestConfig::default();
    bench("hist_forest_fit/20000x7", || {
        HistForest::fit(black_box(&cols), black_box(&labels), &cfg)
    });
    let cols = binned_fixture(5_000, 23, |f| f % 3 == 2);
    let tasks: Vec<(Vec<bool>, RandomForestConfig)> = (0..4)
        .map(|task| {
            let labels = (0..5_000).map(|i| group_of(i) == task).collect();
            let cfg = RandomForestConfig {
                num_trees: 5,
                bootstrap_fraction: 0.25,
                seed: 0xFEA7 + task as u64,
                ..Default::default()
            };
            (labels, cfg)
        })
        .collect();
    bench("hist_forest_fit/5000x23x4tasks", || {
        for (labels, cfg) in &tasks {
            black_box(HistForest::fit(black_box(&cols), labels, cfg));
        }
    });
}

/// One categorical pair of the association matrix:
/// `featsel::MAX_ASSOC_ROWS` rows, a low-cardinality column against
/// another one and against an id-like one (dense first-appearance codes
/// of a 5 000-row gather).
fn bench_cramers_v() {
    let xs: Vec<u32> = (0..512).map(|i| mix(i, 1, 30) as u32).collect();
    for distinct in [30usize, 3000] {
        let ys: Vec<u32> = (0..512).map(|i| mix(i, 2, distinct) as u32).collect();
        bench(&format!("cramers_v_512_rows/{distinct}"), || {
            cramers_v(black_box(&xs), black_box(&ys))
        });
    }
}

/// One graph's association matrix in `filterAttrs`: the 16 measured
/// candidates, six numeric and ten categorical of at most 6 codes (NBA's
/// mix of pairs: a sixth numeric, a third categorical, half mixed), over
/// an NBA APT's 168 rows and over `featsel::MAX_ASSOC_ROWS`.
fn bench_assoc_matrix() {
    for rows in [168usize, 512] {
        let cols: Vec<FeatureColumn> = (0..16)
            .map(|f| match f % 8 {
                0 | 3 | 6 => {
                    FeatureColumn::Numeric((0..rows).map(|i| mix(i, f, 500) as f64).collect())
                }
                k => FeatureColumn::Categorical(
                    (0..rows).map(|i| mix(i, f, 2 + k % 5) as u32).collect(),
                ),
            })
            .collect();
        bench(&format!("assoc_matrix/16x{rows}_mixed"), || {
            assoc_matrix(black_box(&cols))
        });
    }
}

/// The `nba_cold` corpus of `e2e_bench`.
fn nba_005() -> GeneratedDb {
    nba::generate(NbaConfig {
        rich_stats: true,
        seed: 42,
        ..NbaConfig::scaled(0.05)
    })
}

/// Stage 2 as a `query` op pays it — Algorithm 2, and nothing else: λ_qcost
/// is counted in the join step, not estimated here. The `GSW` query over
/// the NBA schema graph visits 8 221 extensions, decides 7 473 of them on
/// their description and lists 438 graphs for 202 valid ones; the 4×6
/// star 120 / 56 / 39 / 35. The work is per listed graph (an extension is
/// keyed in reused buffers, a listed graph shares its parent's labels and
/// conditions): `nba_gsw` ~1.1 ms, `star_4x6` ~75 µs on a 2-vCPU box
/// (pinned to one CPU, medians of 4), where the distinct-count pass that
/// fed the cost estimate made them ~1.8 ms and ~175 µs, and a key built
/// per extension and names copied per graph ~3.6 ms and ~330 µs.
fn bench_enumerate() {
    let star = synth::generate(&synth::SynthConfig::small().with_width(4, 6));
    for (name, gen, sql) in [
        ("nba_gsw", nba_005(), GSW_WINS_SQL),
        ("star_4x6", star, synth::SYNTH_SQL),
    ] {
        let query = parse_sql(sql).unwrap();
        let pt_rows = ProvenanceTable::compute(&gen.db, &query).unwrap().num_rows;
        let cfg = EnumConfig::default();
        bench(&format!("enumerate/{name}"), || {
            enumerate_join_graphs(&gen.schema_graph, &gen.db, &query, pt_rows, &cfg).unwrap()
        });
    }
}

/// The `synth_wide` corpus of `e2e_bench`: 20 000 fact rows, 4 dimension
/// tables of 6 numeric columns; every join is N:1 and finds its row.
fn star_20000x4() -> GeneratedDb {
    synth::generate(
        &synth::SynthConfig::small()
            .with_rows(20_000)
            .with_width(4, 6),
    )
}

/// One enumeration, ready to materialize: the provenance table, every
/// enumerated graph and the indices of the valid ones.
struct Enumeration {
    gen: GeneratedDb,
    pt: ProvenanceTable,
    graphs: Vec<EnumeratedGraph>,
    valid: Vec<usize>,
}

fn enumeration(gen: GeneratedDb, sql: &str) -> Enumeration {
    let query = parse_sql(sql).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &query).unwrap();
    let cfg = EnumConfig::default();
    let graphs =
        enumerate_join_graphs(&gen.schema_graph, &gen.db, &query, pt.num_rows, &cfg).unwrap();
    let valid = (0..graphs.len()).filter(|&gi| graphs[gi].valid).collect();
    Enumeration {
        gen,
        pt,
        graphs,
        valid,
    }
}

impl Enumeration {
    /// Every valid graph's APT out of one `AptBuilder`.
    fn apts(&self) -> Vec<Apt> {
        let builder = AptBuilder::new(&self.gen.db, &self.pt, &self.graphs, f64::INFINITY);
        let one = |&gi: &usize| builder.materialize(gi).unwrap().unwrap();
        self.valid.iter().map(one).collect()
    }
}

/// Stage 3 for a whole ask — every valid join graph of one enumeration:
/// 35 graphs of row-preserving joins on the star, 202 graphs with
/// per-game and per-player fan-out on NBA 0.05. `one_builder` is what an
/// ask does: every graph is folded through one kernel, and a step is
/// computed only if no graph read the same inputs before (4 of 84 on the
/// star, 166 of 572 on NBA). `fold_each` gives every graph a kernel of
/// its own, so graphs share nothing (84 and 572 steps computed).
fn bench_apt_enumeration() {
    for (name, gen, sql) in [
        ("star_20000x4", star_20000x4(), synth::SYNTH_SQL),
        ("nba_fanout", nba_005(), GSW_WINS_SQL),
    ] {
        let e = enumeration(gen, sql);
        bench(&format!("apt_enumeration/{name}/one_builder"), || e.apts());
        bench(&format!("apt_enumeration/{name}/fold_each"), || {
            let one = |&gi: &usize| Apt::materialize(&e.gen.db, &e.pt, &e.graphs[gi].graph);
            e.valid
                .iter()
                .map(|gi| one(gi).unwrap())
                .collect::<Vec<Apt>>()
        });
    }
}

/// Stage 3.5 for a whole ask on the star: the question-independent
/// `prepare` of all 35 APTs of one builder, service parameters and
/// base-table column statistics. `shared` plans one `ReadShare` over them,
/// as an ask does — 34 of the 798 candidate columns are gathered and
/// binned, and the scan orders and training rows are found once per
/// `pt_row` vector; `unshared` prepares each APT on its own.
fn bench_prepare_enumeration() {
    /// Base-table statistics next to an optional share.
    struct Provider<'a>(BaseTableStats<'a>, Option<ReadShare>);
    impl ColumnStatsProvider for Provider<'_> {
        fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
            self.0.column_stats(table, column)
        }
        fn read_share(&self) -> Option<&ReadShare> {
            self.1.as_ref()
        }
    }

    let e = enumeration(star_20000x4(), synth::SYNTH_SQL);
    let apts = e.apts();
    let params = MiningParams::default();
    let prepare_all = |share: Option<ReadShare>| {
        let stats = BaseTableStats::new(&e.gen.db, ColumnStatsConfig::from_params(&params));
        let provider = Provider(stats, share);
        let one = |apt| prepare_apt_with(apt, &e.pt, &params, &provider);
        apts.iter().map(one).collect::<Vec<PreparedApt>>()
    };
    bench("prepare_enumeration/star_20000x4/shared", || {
        prepare_all(Some(ReadShare::plan(&apts)))
    });
    bench("prepare_enumeration/star_20000x4/unshared", || {
        prepare_all(None)
    });
}

/// The exact re-score of one selected pattern — two numeric predicates —
/// over the 20 000 rows of a star APT: the row-at-a-time `Scorer` that
/// did it, and the all-rows bitmap index that does.
fn bench_exact_rescore() {
    let Enumeration {
        gen, pt, graphs, ..
    } = enumeration(star_20000x4(), synth::SYNTH_SQL);
    let widest = graphs
        .iter()
        .filter(|g| g.valid)
        .max_by_key(|g| g.graph.edges.len())
        .unwrap();
    let apt = Apt::materialize(&gen.db, &pt, &widest.graph).unwrap();
    let numeric: Vec<usize> = apt
        .pattern_fields()
        .into_iter()
        .filter(|&f| apt.fields[f].kind == cajade_storage::AttrKind::Numeric)
        .collect();
    let (lo, hi) = (numeric[0], numeric[numeric.len() - 1]);
    let threshold = |op| Pred {
        op,
        value: PatValue::Float(0.5f64.to_bits()),
    };
    let pattern = Pattern::from_preds(vec![
        (lo, threshold(PredOp::Ge)),
        (hi, threshold(PredOp::Le)),
    ]);

    let scorer = Scorer::exact(&apt, &pt);
    let index = ScoreIndex::exact(&apt, &pt).encode(&apt, &[lo, hi]);
    assert_eq!(
        scorer.score(&pattern, 0, Some(1)),
        index.score(&pattern, 0, Some(1))
    );
    bench("exact_rescore/20000x2preds/scorer", || {
        scorer.score(black_box(&pattern), 0, Some(1))
    });
    bench("exact_rescore/20000x2preds/bitmap", || {
        index.score(black_box(&pattern), 0, Some(1))
    });
}

/// The per-question half of one graph's mining, warm, on NBA tiny's
/// `GSW` graph whose two-point mine evaluates the most patterns (1 143,
/// the graph of `crates/mining/tests/mine_allocs.rs`), service defaults.
/// `select_top_k_diverse` picks the top 10 out of every pattern that mine
/// keeps, listed as a `top_k = usize::MAX` mine returns them;
/// `mine_prepared` is the whole warm mine — recall ranking, refinement
/// BFS, diverse top-k and the exact re-score of the winners, whose
/// all-rows masks an earlier mine filled.
fn bench_warm_mine() {
    let e = enumeration(nba::generate(NbaConfig::tiny()), GSW_WINS_SQL);
    let builder = AptBuilder::new(&e.gen.db, &e.pt, &e.graphs, f64::INFINITY);
    let params = MiningParams::default();
    let question = Question::TwoPoint { t1: 0, t2: 1 };
    let (apt, prepared, _) = (e.valid.iter())
        .map(|&gi| {
            let apt = builder.materialize(gi).unwrap().unwrap();
            let prepared = prepare_apt(&apt, &e.pt, &params);
            let patterns =
                mine_prepared(&prepared, &apt, &e.pt, &question, &params).patterns_evaluated;
            (apt, prepared, patterns)
        })
        .max_by_key(|(_, _, patterns)| *patterns)
        .unwrap();
    let every = MiningParams {
        top_k: usize::MAX,
        ..params.clone()
    };
    let kept: Vec<(Pattern, f64)> = (mine_prepared(&prepared, &apt, &e.pt, &question, &every))
        .explanations
        .into_iter()
        .map(|m| (m.pattern, m.sampled_f_score))
        .collect();
    let name = format!("select_top_k_diverse/nba_tiny_busiest_{}_kept", kept.len());
    bench(&name, || {
        select_top_k_diverse(black_box(&kept), params.top_k)
    });
    bench("mine_prepared/nba_tiny_busiest_warm", || {
        mine_prepared(black_box(&prepared), &apt, &e.pt, &question, &params)
    });
}

fn main() {
    bench_join_and_aggregate();
    bench_provenance();
    bench_pattern_scoring();
    bench_lca();
    bench_forest();
    bench_hist_tree_fit();
    bench_hist_forest_fit();
    bench_cramers_v();
    bench_assoc_matrix();
    bench_enumerate();
    bench_apt_enumeration();
    bench_prepare_enumeration();
    bench_exact_rescore();
    bench_warm_mine();
}
