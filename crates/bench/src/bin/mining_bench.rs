//! `mining_bench` — the mining-engine perf trajectory harness.
//!
//! Measures, on the NBA scale-0.05 service workload (the ROADMAP's cold
//! baseline):
//!
//! * cold first ask and its feature-selection phase,
//! * warm new-question ask (cached `PreparedApt`, mining only),
//! * warm repeat ask (answer cache),
//! * refinement-BFS upper-bound pruning counters,
//! * the shared column-statistics cache: hit/miss counts of one cold
//!   multi-graph ask (asserted: some hits, no more misses than distinct
//!   context columns; `column_stats_hits` in the JSON is schema-checked
//!   in CI) and a controlled
//!   shared-vs-per-APT timing of the cross-graph preparation,
//! * raw pattern-scoring throughput (patterns/sec: one mask build +
//!   score per pattern, and the BFS's incremental-mask shape),
//! * the ingestion subsystem's per-stage wall clock (scan / infer /
//!   load / discover) on the CSV-exported corpus (best-of-5 minima per
//!   stage, like every other number here).
//!
//! ```text
//! cargo run -p cajade-bench --release --bin mining_bench -- \
//!     [--scale <f>] [--json <path>]
//! ```
//!
//! With `--json` (default `BENCH_mining.json` in the working directory)
//! the results are written as a flat JSON object so future PRs can track
//! the trajectory; the PR that introduced the engine records its numbers
//! in the README's Performance section. Headline ask latencies carry
//! `_p50_ms`/`_p99_ms` companions backed by `cajade-obs` histograms over
//! all runs — minima alone hide tail regressions.

use std::time::{Duration, Instant};

use cajade_bench::ingest_workload::TempDir;
use cajade_bench::workloads::nba_db;
use cajade_core::{Params, UserQuestion};
use cajade_datagen::GeneratedDb;
use cajade_graph::Apt;
use cajade_mining::{lca_candidates, Pattern, Question, ScoreIndex};
use cajade_obs::{HistSnapshot, Histogram};
use cajade_query::ProvenanceTable;
use cajade_service::{ExplanationService, ServiceConfig};

// Same heap attribution as cajade-serve: the bench process tracks its
// own allocations so the emitted JSON can report the run's heap
// watermark next to the wall-clock numbers.
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

fn question_1() -> UserQuestion {
    UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")])
}

fn question_2() -> UserQuestion {
    UserQuestion::two_point(&[("season_name", "2016-17")], &[("season_name", "2012-13")])
}

fn service_with(gen: &GeneratedDb, answer_cache: usize) -> ExplanationService {
    let service = ExplanationService::new(ServiceConfig {
        answer_cache_bytes: answer_cache,
        params: Params::fast(),
        ..ServiceConfig::default()
    });
    service.register_database("nba", gen.db.clone(), gen.schema_graph.clone());
    service
}

/// Best-of-`n` wall clock of `f`.
fn best_of(n: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..n).map(|_| f()).min().unwrap_or_default()
}

/// `n` runs of `f` as a full distribution: the minimum (the historical
/// headline number) plus a log-bucketed histogram snapshot for p50/p99 —
/// minima hide tail regressions, percentiles don't.
fn dist_of(n: usize, mut f: impl FnMut() -> Duration) -> (Duration, HistSnapshot) {
    let hist = Histogram::new();
    let mut min = Duration::MAX;
    for _ in 0..n {
        let d = f();
        hist.record_duration(d);
        min = min.min(d);
    }
    (min, hist.snapshot())
}

/// Histogram quantile in milliseconds (the histogram records µs).
fn qms(snap: &HistSnapshot, q: f64) -> f64 {
    snap.quantile(q) as f64 / 1e3
}

/// One cold ask's interesting numbers.
struct ColdAsk {
    wall: Duration,
    featsel: Duration,
    /// Cross-graph question-independent preparation (feature selection +
    /// LCA candidates + sampling + index/bitmap/fragment build) summed
    /// over every mined join graph — the phase the shared column-stats
    /// cache attacks.
    prepare: Duration,
    ub_pruned: u64,
    recall_pruned: u64,
    /// Column-statistics cache hits/misses of this one cold ask.
    column_stats_hits: u64,
    column_stats_misses: u64,
    /// Join graphs mined by the ask.
    graphs_mined: usize,
}

fn one_cold_ask(gen: &GeneratedDb) -> ColdAsk {
    let service = service_with(gen, 64 * 1024 * 1024);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let t0 = Instant::now();
    let a = session.ask(&question_1()).unwrap();
    let wall = t0.elapsed();
    let cs = service.stats().column_stats_cache;
    let m = &a.result.timings.mining;
    ColdAsk {
        wall,
        featsel: m.feature_selection,
        prepare: m.feature_selection + m.gen_pat_cand + m.sampling_for_f1 + m.prepare,
        ub_pruned: m.ub_pruned_children,
        recall_pruned: m.recall_pruned_subtrees,
        column_stats_hits: cs.hits + cs.coalesced,
        column_stats_misses: cs.misses,
        graphs_mined: a.result.num_graphs_mined,
    }
}

/// Best-of-5 cold ask (wall, featsel, and prepare minima taken
/// independently, per the bench-box methodology in the README), plus the
/// wall-clock distribution of all five runs for p50/p99 reporting.
fn cold_ask(gen: &GeneratedDb) -> (ColdAsk, HistSnapshot) {
    let hist = Histogram::new();
    let mut best: Option<ColdAsk> = None;
    for _ in 0..5 {
        let run = one_cold_ask(gen);
        hist.record_duration(run.wall);
        best = Some(match best {
            None => run,
            Some(mut b) => {
                b.featsel = b.featsel.min(run.featsel);
                b.prepare = b.prepare.min(run.prepare);
                if run.wall < b.wall {
                    b.wall = run.wall;
                }
                b
            }
        });
    }
    (best.unwrap(), hist.snapshot())
}

fn warm_asks(gen: &GeneratedDb) -> ((Duration, HistSnapshot), (Duration, HistSnapshot)) {
    // Answer cache off, so the "new question" path re-mines each time.
    let service = service_with(gen, 0);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.ask(&question_1()).unwrap();
    let warm_new = dist_of(5, || {
        let t0 = Instant::now();
        let a = session.ask(&question_2()).unwrap();
        assert!(a.provenance_cache_hit && a.apt_cache_misses == 0);
        t0.elapsed()
    });

    let service = service_with(gen, 64 * 1024 * 1024);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.ask(&question_1()).unwrap();
    let warm_repeat = dist_of(5, || {
        let t0 = Instant::now();
        let a = session.ask(&question_1()).unwrap();
        assert!(a.answer_cache_hit);
        t0.elapsed()
    });
    (warm_new, warm_repeat)
}

/// Raw scoring throughput on the largest APT: patterns scored per second
/// (each score = both question directions).
fn scoring_throughput(gen: &GeneratedDb) -> (f64, f64, usize, usize) {
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
        .expect("valid graph");
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
    let question = Question::TwoPoint { t1: 0, t2: 1 };
    let directions = question.directions();

    let reps = 20;
    let mut acc = 0usize;
    let index = ScoreIndex::exact(&apt, &pt).encode(&apt, &apt.pattern_fields());
    let t0 = Instant::now();
    for _ in 0..reps {
        for p in &patterns {
            for &(t, s) in &directions {
                acc += index.score(p, t, s).tp;
            }
        }
    }
    let vector_rate = (reps * patterns.len()) as f64 / t0.elapsed().as_secs_f64();

    // The refinement BFS's actual hot loop: masks are derived
    // incrementally (parent AND predicate), so scoring is popcounts only.
    let masks: Vec<_> = patterns.iter().map(|p| index.pattern_mask(p)).collect();
    let t0 = Instant::now();
    for _ in 0..reps {
        for m in &masks {
            for &(t, s) in &directions {
                acc += index.score_mask(m, t, s).tp;
            }
        }
    }
    let mask_rate = (reps * patterns.len()) as f64 / t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    (vector_rate, mask_rate, apt.num_rows, patterns.len())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Cross-graph preparation, shared vs per-APT (best-of-5 each): every
/// valid join graph's `prepare_apt`, once through the pass-through
/// provider (the pre-sharing behaviour) and once through the memoizing
/// [`cajade_mining::BaseTableStats`] provider, which analyzes each base column exactly
/// once — the isolated cost of the phase the service's column-stats
/// cache removes from multi-graph cold asks.
/// Returns `(shared, unshared, graphs, distinct context columns)` — the
/// last is the upper bound on cache misses a correctly cross-graph-keyed
/// column-stats cache can incur for this workload.
fn prepare_shared_vs_unshared(gen: &GeneratedDb) -> (Duration, Duration, usize, usize) {
    use cajade_mining::{
        prepare_apt, prepare_apt_with, source_column, BaseTableStats, ColumnStatsConfig,
    };

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
    let apts: Vec<Apt> = graphs
        .iter()
        .filter(|g| g.valid)
        .map(|eg| Apt::materialize(&gen.db, &pt, &eg.graph).unwrap())
        .collect();
    let distinct_columns = apts
        .iter()
        .flat_map(|apt| {
            apt.pattern_fields()
                .into_iter()
                .filter_map(|f| source_column(apt, f))
                .map(|(t, c)| (t.to_string(), c.to_string()))
                .collect::<Vec<_>>()
        })
        .collect::<std::collections::HashSet<_>>()
        .len();

    let unshared = best_of(5, || {
        let t0 = Instant::now();
        for apt in &apts {
            std::hint::black_box(prepare_apt(apt, &pt, &params.mining));
        }
        t0.elapsed()
    });
    let shared = best_of(5, || {
        // Fresh memo per run: each measurement includes the first
        // graph's misses, exactly like one cold ask.
        let provider = BaseTableStats::new(&gen.db, ColumnStatsConfig::from_params(&params.mining));
        let t0 = Instant::now();
        for apt in &apts {
            std::hint::black_box(prepare_apt_with(apt, &pt, &params.mining, &provider));
        }
        t0.elapsed()
    });
    (shared, unshared, apts.len(), distinct_columns)
}

/// Best-of-5 per-stage ingest timings over the CSV-exported corpus
/// (stage minima taken independently, like the featsel phase above).
fn ingest_phases(gen: &GeneratedDb) -> cajade_ingest::IngestTimings {
    let dir = TempDir::new("cajade_bench_ingest");
    cajade_ingest::export_csv_dir(
        &gen.db,
        &gen.schema_graph,
        dir.path(),
        &cajade_ingest::ExportOptions::default(),
    )
    .expect("export corpus");
    let mut best: Option<cajade_ingest::IngestTimings> = None;
    for _ in 0..5 {
        let run = cajade_ingest::ingest_dir(dir.path(), &cajade_ingest::IngestOptions::default())
            .expect("ingest corpus")
            .report
            .timings;
        best = Some(match best {
            None => run,
            Some(b) => cajade_ingest::IngestTimings {
                scan: b.scan.min(run.scan),
                infer: b.infer.min(run.infer),
                load: b.load.min(run.load),
                discover: b.discover.min(run.discover),
            },
        });
    }
    best.unwrap()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.05f64;
    let mut json_path = Some("BENCH_mining.json".to_string());
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                scale = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(0.05);
            }
            "--json" => {
                i += 1;
                json_path = argv.get(i).cloned();
            }
            "--no-json" => json_path = None,
            other => eprintln!("ignoring unknown flag `{other}`"),
        }
        i += 1;
    }

    let gen = nba_db(scale);
    println!("# mining-bench — NBA scale {scale}, GSW wins query\n");

    let (cold, cold_dist) = cold_ask(&gen);
    // The multi-graph cold ask must actually share column statistics.
    // The ask's `ReadShare` answers first — a column another graph already
    // binned through the same row-id vector is not asked for again — so
    // what reaches the cache is the first binning of a column per vector
    // and every graph's fragment stage; how many requests that is depends
    // on which fields get selected, and there is no floor in the graph
    // count any more (218 hits over 28 graphs before the share, 193 with
    // it). What must hold: there are hits at all, and (below) no column
    // misses twice. CI schema-checks the emitted field, so a silent
    // regression of the cache fails loudly.
    assert!(
        cold.column_stats_hits > 0,
        "cold multi-graph ask shared no column statistics: hits {} misses {} graphs {}",
        cold.column_stats_hits,
        cold.column_stats_misses,
        cold.graphs_mined
    );
    let ((warm_new, warm_new_dist), (warm_repeat, warm_repeat_dist)) = warm_asks(&gen);
    let (prepare_shared, prepare_unshared, num_graphs, distinct_columns) =
        prepare_shared_vs_unshared(&gen);
    // A correctly cross-graph-keyed cache misses at most once per
    // distinct base column; a per-graph/per-APT key regression would
    // blow way past this (and could still satisfy the hits check above
    // through intra-graph featsel→fragment reuse alone).
    assert!(
        cold.column_stats_misses <= distinct_columns as u64,
        "column-stats misses {} exceed the {} distinct context columns — cache key regressed?",
        cold.column_stats_misses,
        distinct_columns
    );
    let (vector_rate, mask_rate, apt_rows, num_patterns) = scoring_throughput(&gen);
    let ingest = ingest_phases(&gen);

    println!(
        "cold ask                     {:>10.2} ms (p50 {:.2} / p99 {:.2})",
        ms(cold.wall),
        qms(&cold_dist, 0.5),
        qms(&cold_dist, 0.99)
    );
    println!("feature selection (cold)     {:>10.2} ms", ms(cold.featsel));
    println!(
        "refinement pruning            ub-pruned children {} | recall-pruned subtrees {}",
        cold.ub_pruned, cold.recall_pruned
    );
    println!(
        "cross-graph prepare (cold)   {:>10.2} ms | column-stats hits {} misses {}",
        ms(cold.prepare),
        cold.column_stats_hits,
        cold.column_stats_misses
    );
    println!(
        "prepare, {num_graphs} graphs            shared {:>8.2} ms | per-APT {:>8.2} ms ({:.2}×)",
        ms(prepare_shared),
        ms(prepare_unshared),
        ms(prepare_unshared) / ms(prepare_shared).max(1e-9)
    );
    println!(
        "warm new question (re-mine)  {:>10.2} ms (p50 {:.2} / p99 {:.2})",
        ms(warm_new),
        qms(&warm_new_dist, 0.5),
        qms(&warm_new_dist, 0.99)
    );
    println!(
        "warm repeat (answer cache)   {:>10.3} ms (p50 {:.3} / p99 {:.3})",
        ms(warm_repeat),
        qms(&warm_repeat_dist, 0.5),
        qms(&warm_repeat_dist, 0.99)
    );
    println!(
        "scoring throughput            mask build + score {vector_rate:>12.0} pat/s | incremental masks {mask_rate:>12.0} pat/s ({num_patterns} patterns × 2 directions, {apt_rows}-row APT)"
    );
    println!(
        "csv ingest (export→ingest)    scan {:>7.2} ms | infer {:>7.2} ms | load {:>7.2} ms | discover {:>7.2} ms | total {:>7.2} ms",
        ms(ingest.scan),
        ms(ingest.infer),
        ms(ingest.load),
        ms(ingest.discover),
        ms(ingest.total())
    );

    // Whole-run heap watermark from the tracking allocator (0 when the
    // obs crate was built with tracking compiled out).
    let heap_peak = cajade_obs::alloc::heap_stats().map_or(0, |h| h.peak_live_bytes.max(0) as u64);
    println!(
        "heap peak (tracked live)     {:>10.1} MB",
        heap_peak as f64 / (1 << 20) as f64
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"scale\": {scale},\n  \"cold_ask_vectorized_ms\": {:.3},\n  \"cold_ask_vectorized_p50_ms\": {:.3},\n  \"cold_ask_vectorized_p99_ms\": {:.3},\n  \"cold_featsel_hist_ms\": {:.3},\n  \"ub_pruned_children\": {},\n  \"recall_pruned_subtrees\": {},\n  \"cold_prepare_ms\": {:.3},\n  \"column_stats_hits\": {},\n  \"column_stats_misses\": {},\n  \"prepare_shared_ms\": {:.3},\n  \"prepare_unshared_ms\": {:.3},\n  \"prepare_graphs\": {num_graphs},\n  \"warm_new_question_ms\": {:.3},\n  \"warm_new_question_p50_ms\": {:.3},\n  \"warm_new_question_p99_ms\": {:.3},\n  \"warm_repeat_ms\": {:.4},\n  \"warm_repeat_p50_ms\": {:.4},\n  \"warm_repeat_p99_ms\": {:.4},\n  \"scoring_patterns_per_sec_vectorized\": {:.0},\n  \"scoring_patterns_per_sec_incremental_masks\": {:.0},\n  \"throughput_apt_rows\": {apt_rows},\n  \"throughput_patterns\": {num_patterns},\n  \"ingest_scan_ms\": {:.3},\n  \"ingest_infer_ms\": {:.3},\n  \"ingest_load_ms\": {:.3},\n  \"ingest_discover_ms\": {:.3},\n  \"ingest_total_ms\": {:.3},\n  \"heap_peak_live_bytes\": {heap_peak}\n}}\n",
            ms(cold.wall),
            qms(&cold_dist, 0.5),
            qms(&cold_dist, 0.99),
            ms(cold.featsel),
            cold.ub_pruned,
            cold.recall_pruned,
            ms(cold.prepare),
            cold.column_stats_hits,
            cold.column_stats_misses,
            ms(prepare_shared),
            ms(prepare_unshared),
            ms(warm_new),
            qms(&warm_new_dist, 0.5),
            qms(&warm_new_dist, 0.99),
            ms(warm_repeat),
            qms(&warm_repeat_dist, 0.5),
            qms(&warm_repeat_dist, 0.99),
            vector_rate,
            mask_rate,
            ms(ingest.scan),
            ms(ingest.infer),
            ms(ingest.load),
            ms(ingest.discover),
            ms(ingest.total()),
        );
        std::fs::write(&path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
