//! Mining hot-loop throughput: the row-at-a-time `Scorer` (the miner's
//! exact re-score) vs the columnar bitmap `ScoreIndex` on the NBA
//! scale-0.05 workload — patterns scored per second on the largest APT,
//! plus cold-ask end-to-end latency through the service.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cajade_bench::workloads::nba_db;
use cajade_core::{Params, UserQuestion};
use cajade_datagen::GeneratedDb;
use cajade_graph::Apt;
use cajade_mining::{lca_candidates, Pattern, Question, ScoreIndex, Scorer};
use cajade_query::ProvenanceTable;
use cajade_service::{ExplanationService, ServiceConfig};

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

/// The largest valid APT of the GSW query plus a candidate pattern set
/// (LCA candidates over all rows, numeric refinements included via the
/// miner's own fragment thresholds would complicate the fixture; the
/// candidate mix here is representative of the ranking pass).
fn scoring_fixture(gen: &GeneratedDb) -> (Apt, ProvenanceTable, Vec<Pattern>) {
    let q = cajade_query::parse_sql(GSW_SQL).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &q).unwrap();
    let params = Params::fast();
    let graphs = cajade_graph::enumerate_join_graphs(
        &gen.schema_graph,
        &gen.db,
        &q,
        pt.num_rows,
        &cajade_graph::EnumConfig {
            max_edges: params.max_edges,
            max_cost: params.max_cost,
            check_pk_coverage: params.check_pk_coverage,
            include_pt_only: params.include_pt_only,
        },
    )
    .unwrap();
    let apt = graphs
        .iter()
        .filter(|g| g.valid)
        .map(|eg| Apt::materialize(&gen.db, &pt, &eg.graph).unwrap())
        .max_by_key(|a| a.num_rows)
        .expect("at least one valid graph");
    let cat_fields: Vec<usize> = apt
        .pattern_fields()
        .into_iter()
        .filter(|&f| apt.fields[f].kind == cajade_storage::AttrKind::Categorical)
        .take(4)
        .collect();
    let sample: Vec<u32> = (0..apt.num_rows.min(400) as u32).collect();
    let cat_pats = lca_candidates(&apt, &sample, &cat_fields);
    // Extend with the refinement shapes the BFS actually scores: numeric
    // thresholds alone and combined with each categorical candidate.
    let num_fields: Vec<usize> = apt
        .pattern_fields()
        .into_iter()
        .filter(|&f| apt.fields[f].kind == cajade_storage::AttrKind::Numeric)
        .take(4)
        .collect();
    let mut patterns = cat_pats.clone();
    for &f in &num_fields {
        for c in cajade_mining::fragments::fragment_boundaries(&apt, f, 6) {
            for op in [cajade_mining::PredOp::Le, cajade_mining::PredOp::Ge] {
                let pred = cajade_mining::Pred {
                    op,
                    value: cajade_mining::PatValue::Float(c.to_bits()),
                };
                patterns.push(Pattern::from_preds(vec![(f, pred)]));
                for base in &cat_pats {
                    if base.is_free(f) {
                        patterns.push(base.refine(f, pred));
                    }
                }
            }
        }
    }
    (apt, pt, patterns)
}

fn bench_mining_throughput(c: &mut Criterion) {
    let gen = nba_db(0.05);
    let (apt, pt, patterns) = scoring_fixture(&gen);
    let question = Question::TwoPoint { t1: 0, t2: 1 };
    let directions = question.directions();

    let mut group = c.benchmark_group("pattern_scoring");
    group.bench_function("scalar_scorer", |b| {
        let scorer = Scorer::exact(&apt, &pt);
        b.iter(|| {
            let mut acc = 0usize;
            for p in &patterns {
                for &(t, s) in &directions {
                    acc += scorer.score(p, t, s).tp;
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("vectorized_index", |b| {
        let index = ScoreIndex::exact(&apt, &pt).encode(&apt, &apt.pattern_fields());
        b.iter(|| {
            let mut acc = 0usize;
            for p in &patterns {
                for &(t, s) in &directions {
                    acc += index.score(p, t, s).tp;
                }
            }
            black_box(acc)
        })
    });
    // The refinement-BFS shape: one mask build per pattern, then
    // incremental AND + popcount per direction.
    group.bench_function("vectorized_masks", |b| {
        let index = ScoreIndex::exact(&apt, &pt).encode(&apt, &apt.pattern_fields());
        let masks: Vec<_> = patterns.iter().map(|p| index.pattern_mask(p)).collect();
        b.iter(|| {
            let mut acc = 0usize;
            for m in &masks {
                for &(t, s) in &directions {
                    acc += index.score_mask(m, t, s).tp;
                }
            }
            black_box(acc)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("cold_ask_end_to_end");
    group.sample_size(10);
    group.bench_function("cold_ask", |b| {
        b.iter(|| {
            let service = ExplanationService::new(ServiceConfig {
                params: Params::fast(),
                ..ServiceConfig::default()
            });
            service.register_database("nba", gen.db.clone(), gen.schema_graph.clone());
            let session = service.open_session("nba", GSW_SQL).unwrap();
            let q = UserQuestion::two_point(
                &[("season_name", "2015-16")],
                &[("season_name", "2012-13")],
            );
            black_box(session.ask(&q).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mining_throughput);
criterion_main!(benches);
