//! `scale_bench` — the scale-sweep harness: per-phase scaling curves and
//! peak-RSS tracking across two independent axes.
//!
//! * **Rows axis** — the paper's §5 duplicate-up applied to NBA scale
//!   0.05: each factor `f` duplicates every table `f`× with remapped
//!   keys, so factors 1/5/20 reproduce the paper's 0.05/0.25/1.0 corpus
//!   sizes with *identical* value distributions. Duplication must not
//!   change ranked explanations (regression-tested in
//!   `tests/scale_identity.rs`); here it isolates how each pipeline
//!   phase scales with row count alone.
//! * **Width axis** — the synthetic star corpus
//!   ([`cajade_datagen::synth`]) at fixed rows and varying
//!   `tables×columns`, isolating the per-table/per-column costs
//!   (enumeration, feature selection, column statistics) the NBA corpus
//!   cannot move.
//!
//! Each point runs the full service lifecycle — CSV ingest (export →
//! `ingest_dir`), register, cold ask, warm new-question ask, warm repeat
//! ask — with the kernel peak-RSS watermark reset at the start of the
//! point (`/proc/self/clear_refs`) and read at the end, so the recorded
//! `peak_rss_bytes` attributes to that point alone. Per-phase wall
//! clocks (provenance, jg_enum, materialize, prepare, featsel, mine)
//! come from the session's [`cajade_core::SessionTimings`]. The service
//! at every point runs the cache budgets `cajade-serve` ships
//! ([`ServiceConfig::default`]).
//!
//! ```text
//! cargo run -p cajade-bench --release --bin scale_bench -- \
//!     [--factors 1,5,20] [--widths 3x4,6x8,9x12] [--synth-rows 20000] \
//!     [--runs 3] [--json BENCH_scale.json | --no-json]
//! ```
//!
//! Methodology: cold numbers are best-of-`--runs` over fresh services
//! (factors ≥ 5 drop to a single run — the corpus dominates wall clock
//! and the minimum stabilizes); phase minima are taken independently,
//! like every bench in this repo. `prepare_ms_per_krow` is the curve CI
//! watches: the prepare path's per-row cost must *fall* as rows grow
//! (its stats/fragment sampling is O(sample), its index build O(rows)),
//! so a superlinear regression shows up as a rising tail.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cajade_bench::ingest_workload::TempDir;
use cajade_bench::workloads::nba_db;
use cajade_core::{Params, UserQuestion};
use cajade_datagen::{scale::duplicate_scale, synth, GeneratedDb};
use cajade_service::{ExplanationService, ServiceConfig};

// Heap attribution: per-point `alloc_peak_bytes` and per-scope heap
// curves come from the tracking allocator's ledgers (the allocator-level
// companion to the kernel `VmHWM` watermark).
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

/// Scope-chain roots that partition the point's work: every other scope
/// ("provenance" under "cache.provenance", the mining phases under
/// "mine", "rank" under "cache.answer", …) nests inside one of these, so
/// summing their peak deltas never double-counts. The attributed fraction
/// divides that sum by the point's global peak-heap growth.
const ROOT_SCOPES: &[&str] = &[
    "ingest_scan",
    "ingest_infer",
    "ingest_load",
    "ingest_discover",
    "cache.provenance",
    "cache.apt",
    "mine",
    "cache.answer",
    "bench.register",
];

/// Per-scope deltas over one sweep point: bytes allocated during the
/// point (cumulative over its runs) and peak net growth over the scope's
/// net level at point start.
#[derive(Clone, Default)]
struct ScopeDelta {
    allocated_bytes: u64,
    peak_bytes: u64,
    net_bytes: i64,
}

/// `(allocated, net)` per scope — the baseline captured at point start.
fn scope_baseline() -> BTreeMap<&'static str, (u64, i64)> {
    cajade_obs::alloc::scope_snapshots()
        .into_iter()
        .map(|s| (s.name, (s.allocated_bytes, s.net_bytes)))
        .collect()
}

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One sweep point's measurements. All `_ms` fields are best-of-`runs`
/// minima (phase minima independent); RSS fields are point-local maxima.
struct Point {
    axis: &'static str,
    label: String,
    /// Rows axis: duplicate factor. Width axis: 0.
    factor: usize,
    /// Width axis: dimension tables × numeric columns. Rows axis: the
    /// corpus' fixed table/column counts.
    tables: usize,
    columns: usize,
    total_rows: usize,
    graphs: usize,
    explanations: usize,
    ingest_ms: f64,
    register_ms: f64,
    cold_ask_ms: f64,
    warm_new_question_ms: f64,
    warm_repeat_ms: f64,
    provenance_ms: f64,
    jg_enum_ms: f64,
    materialize_ms: f64,
    prepare_ms: f64,
    featsel_ms: f64,
    mine_ms: f64,
    peak_rss_bytes: u64,
    peak_rss_reset: bool,
    /// Peak heap growth over the point's starting live bytes (tracking
    /// allocator; 0 when tracking is inactive).
    alloc_peak_bytes: u64,
    /// Fraction of `alloc_peak_bytes` attributed to the root scopes.
    alloc_attributed_fraction: f64,
    /// Top-3 scopes by peak net growth — who owns the watermark.
    alloc_top_scopes: Vec<&'static str>,
    /// Per-scope heap deltas over the point, by scope name.
    alloc_scopes: BTreeMap<&'static str, ScopeDelta>,
}

struct Workload<'a> {
    gen: &'a GeneratedDb,
    sql: &'a str,
    q1: UserQuestion,
    q2: UserQuestion,
}

fn measure_point(
    axis: &'static str,
    label: String,
    factor: usize,
    w: &Workload,
    runs: usize,
) -> Point {
    let gen = w.gen;
    let total_rows: usize = gen.db.tables().iter().map(|t| t.num_rows()).sum();
    let tables = gen.db.tables().len();
    let columns: usize = gen
        .db
        .tables()
        .iter()
        .map(|t| t.schema().fields.len())
        .sum();

    // Point-local peak attribution: reset the kernel watermark and the
    // allocator's global/per-scope peaks, and snapshot the baselines the
    // end-of-point deltas subtract.
    let peak_rss_reset = cajade_obs::reset_peak_rss();
    cajade_obs::alloc::reset_peak();
    cajade_obs::alloc::reset_scope_peaks();
    let heap_base = cajade_obs::alloc::heap_stats().unwrap_or_default();
    let scope_base = scope_baseline();

    // Ingest: CSV export once, re-ingest `runs`× (best-of) with type/key
    // inference and join discovery — the bring-your-own-data cost curve.
    let dir = TempDir::new("cajade_scale_ingest");
    cajade_ingest::export_csv_dir(
        &gen.db,
        &gen.schema_graph,
        dir.path(),
        &cajade_ingest::ExportOptions::default(),
    )
    .expect("export corpus");
    let mut ingest = Duration::MAX;
    for _ in 0..runs {
        let t0 = Instant::now();
        std::hint::black_box(
            cajade_ingest::ingest_dir(dir.path(), &cajade_ingest::IngestOptions::default())
                .expect("ingest corpus"),
        );
        ingest = ingest.min(t0.elapsed());
    }
    drop(dir);

    // Cold lifecycle, best-of-`runs` over fresh services.
    let mut params = Params::fast();
    params.parallel = true;
    let mut best: Option<Point> = None;
    for _ in 0..runs {
        let config = ServiceConfig {
            params: params.clone(),
            ..ServiceConfig::default()
        };
        let service = ExplanationService::new(config);
        let t0 = Instant::now();
        {
            // The registered snapshot (a full db clone) is the service's
            // baseline residency; attribute it like the caches.
            let _mem = cajade_obs::AllocScope::enter("bench.register");
            service.register_database("db", gen.db.clone(), gen.schema_graph.clone());
        }
        let register = t0.elapsed();

        let session = service.open_session("db", w.sql).unwrap();
        let t0 = Instant::now();
        let cold = session.ask(&w.q1).unwrap();
        let cold_wall = t0.elapsed();
        assert!(!cold.answer_cache_hit && cold.apt_cache_misses > 0);

        let t0 = Instant::now();
        let warm_new = session.ask(&w.q2).unwrap();
        let warm_new_wall = t0.elapsed();
        assert!(warm_new.provenance_cache_hit && warm_new.apt_cache_misses == 0);

        let t0 = Instant::now();
        let repeat = session.ask(&w.q1).unwrap();
        let warm_repeat_wall = t0.elapsed();
        assert!(repeat.answer_cache_hit);

        let t = &cold.result.timings;
        let m = &t.mining;
        let run = Point {
            axis,
            label: label.clone(),
            factor,
            tables,
            columns,
            total_rows,
            graphs: cold.result.num_graphs_mined,
            explanations: cold.result.explanations.len(),
            ingest_ms: ms(ingest),
            register_ms: ms(register),
            cold_ask_ms: ms(cold_wall),
            warm_new_question_ms: ms(warm_new_wall),
            warm_repeat_ms: ms(warm_repeat_wall),
            provenance_ms: ms(t.provenance),
            jg_enum_ms: ms(t.jg_enum),
            materialize_ms: ms(t.materialize_apts),
            prepare_ms: ms(m.feature_selection + m.gen_pat_cand + m.sampling_for_f1 + m.prepare),
            featsel_ms: ms(m.feature_selection),
            mine_ms: ms(m.fscore_calc + m.refine_patterns),
            peak_rss_bytes: 0,
            peak_rss_reset,
            alloc_peak_bytes: 0,
            alloc_attributed_fraction: 0.0,
            alloc_top_scopes: Vec::new(),
            alloc_scopes: BTreeMap::new(),
        };
        best = Some(match best {
            None => run,
            Some(b) => Point {
                register_ms: b.register_ms.min(run.register_ms),
                cold_ask_ms: b.cold_ask_ms.min(run.cold_ask_ms),
                warm_new_question_ms: b.warm_new_question_ms.min(run.warm_new_question_ms),
                warm_repeat_ms: b.warm_repeat_ms.min(run.warm_repeat_ms),
                provenance_ms: b.provenance_ms.min(run.provenance_ms),
                jg_enum_ms: b.jg_enum_ms.min(run.jg_enum_ms),
                materialize_ms: b.materialize_ms.min(run.materialize_ms),
                prepare_ms: b.prepare_ms.min(run.prepare_ms),
                featsel_ms: b.featsel_ms.min(run.featsel_ms),
                mine_ms: b.mine_ms.min(run.mine_ms),
                ..run
            },
        });
    }
    let mut point = best.unwrap();
    // The point's high-water marks, after every phase has run: kernel
    // RSS, then the allocator ledgers diffed against the point baseline.
    point.peak_rss_bytes = cajade_obs::peak_rss_bytes().unwrap_or(0);
    if let Some(heap) = cajade_obs::alloc::heap_stats() {
        point.alloc_peak_bytes = (heap.peak_live_bytes - heap_base.live_bytes).max(0) as u64;
        for s in cajade_obs::alloc::scope_snapshots() {
            let (alloc0, net0) = scope_base.get(s.name).copied().unwrap_or((0, 0));
            let d = ScopeDelta {
                allocated_bytes: s.allocated_bytes.saturating_sub(alloc0),
                peak_bytes: (s.peak_net_bytes - net0).max(0) as u64,
                net_bytes: s.net_bytes - net0,
            };
            if d.allocated_bytes > 0 || d.peak_bytes > 0 {
                point.alloc_scopes.insert(s.name, d);
            }
        }
        let mut ranked: Vec<(&'static str, u64)> = point
            .alloc_scopes
            .iter()
            .map(|(name, d)| (*name, d.peak_bytes))
            .collect();
        ranked.sort_by_key(|(name, peak)| (std::cmp::Reverse(*peak), *name));
        point.alloc_top_scopes = ranked.iter().take(3).map(|(n, _)| *n).collect();
        let attributed: u64 = ROOT_SCOPES
            .iter()
            .filter_map(|r| point.alloc_scopes.get(r))
            .map(|d| d.peak_bytes)
            .sum();
        point.alloc_attributed_fraction = if point.alloc_peak_bytes > 0 {
            (attributed as f64 / point.alloc_peak_bytes as f64).min(1.0)
        } else {
            0.0
        };
    }
    point
}

fn rows_axis_points(base_scale: f64, factors: &[usize], runs: usize) -> Vec<Point> {
    let base = nba_db(base_scale);
    let q1 = UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")]);
    let q2 = UserQuestion::two_point(&[("season_name", "2016-17")], &[("season_name", "2012-13")]);
    factors
        .iter()
        .map(|&f| {
            let gen;
            let gen = if f == 1 {
                &base
            } else {
                gen = duplicate_scale(&base, f);
                &gen
            };
            let w = Workload {
                gen,
                sql: GSW_SQL,
                q1: q1.clone(),
                q2: q2.clone(),
            };
            // Large corpora dominate wall clock; one run suffices for a
            // stable minimum and keeps the sweep tractable.
            let point_runs = if f >= 5 { 1 } else { runs };
            let label = format!("nba {:.2} (x{f})", base_scale * f as f64);
            eprintln!("· rows axis: {label} …");
            measure_point("rows", label, f, &w, point_runs)
        })
        .collect()
}

fn width_axis_points(synth_rows: usize, widths: &[(usize, usize)], runs: usize) -> Vec<Point> {
    let q1 = UserQuestion::two_point(&[("grp", "g0")], &[("grp", "g1")]);
    let q2 = UserQuestion::two_point(&[("grp", "g2")], &[("grp", "g1")]);
    widths
        .iter()
        .map(|&(tables, columns)| {
            let cfg = synth::SynthConfig::small()
                .with_rows(synth_rows)
                .with_width(tables, columns);
            let gen = synth::generate(&cfg);
            let w = Workload {
                gen: &gen,
                sql: synth::SYNTH_SQL,
                q1: q1.clone(),
                q2: q2.clone(),
            };
            let label = format!("synth {tables}x{columns} ({synth_rows} rows)");
            eprintln!("· width axis: {label} …");
            measure_point("width", label, 0, &w, runs)
        })
        .collect()
}

fn point_json(p: &Point) -> String {
    let top_scopes: Vec<String> = p
        .alloc_top_scopes
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect();
    let scope_objs: Vec<String> = p
        .alloc_scopes
        .iter()
        .map(|(name, d)| {
            format!(
                "        \"{name}\": {{\"allocated_bytes\": {}, \"peak_bytes\": {}, \"net_bytes\": {}}}",
                d.allocated_bytes, d.peak_bytes, d.net_bytes
            )
        })
        .collect();
    format!(
        "    {{\n      \"axis\": \"{}\",\n      \"label\": \"{}\",\n      \"factor\": {},\n      \"tables\": {},\n      \"columns\": {},\n      \"total_rows\": {},\n      \"graphs\": {},\n      \"explanations\": {},\n      \"ingest_ms\": {:.3},\n      \"register_ms\": {:.3},\n      \"cold_ask_ms\": {:.3},\n      \"warm_new_question_ms\": {:.3},\n      \"warm_repeat_ms\": {:.4},\n      \"provenance_ms\": {:.3},\n      \"jg_enum_ms\": {:.3},\n      \"materialize_ms\": {:.3},\n      \"prepare_ms\": {:.3},\n      \"featsel_ms\": {:.3},\n      \"mine_ms\": {:.3},\n      \"prepare_ms_per_krow\": {:.4},\n      \"peak_rss_bytes\": {},\n      \"peak_rss_reset\": {},\n      \"alloc_peak_bytes\": {},\n      \"alloc_attributed_fraction\": {:.3},\n      \"alloc_top_scopes\": [{}],\n      \"alloc_scopes\": {{\n{}\n      }}\n    }}",
        p.axis,
        p.label,
        p.factor,
        p.tables,
        p.columns,
        p.total_rows,
        p.graphs,
        p.explanations,
        p.ingest_ms,
        p.register_ms,
        p.cold_ask_ms,
        p.warm_new_question_ms,
        p.warm_repeat_ms,
        p.provenance_ms,
        p.jg_enum_ms,
        p.materialize_ms,
        p.prepare_ms,
        p.featsel_ms,
        p.mine_ms,
        p.prepare_ms / (p.total_rows as f64 / 1e3).max(1e-9),
        p.peak_rss_bytes,
        p.peak_rss_reset,
        p.alloc_peak_bytes,
        p.alloc_attributed_fraction,
        top_scopes.join(", "),
        scope_objs.join(",\n"),
    )
}

fn print_table(points: &[Point]) {
    println!(
        "{:<24} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "point",
        "rows",
        "ingest",
        "cold",
        "warm-new",
        "repeat",
        "prov",
        "mat",
        "prepare",
        "featsel",
        "mine",
        "peakRSS",
        "peakHeap"
    );
    for p in points {
        println!(
            "{:<24} {:>9} {:>7.0}ms {:>8.1}ms {:>8.1}ms {:>8.2}ms {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>8.1}MB {:>8.1}MB",
            p.label,
            p.total_rows,
            p.ingest_ms,
            p.cold_ask_ms,
            p.warm_new_question_ms,
            p.warm_repeat_ms,
            p.provenance_ms,
            p.materialize_ms,
            p.prepare_ms,
            p.featsel_ms,
            p.mine_ms,
            p.peak_rss_bytes as f64 / (1 << 20) as f64,
            p.alloc_peak_bytes as f64 / (1 << 20) as f64,
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut factors: Vec<usize> = vec![1, 5, 20];
    let mut widths: Vec<(usize, usize)> = vec![(3, 4), (6, 8), (9, 12)];
    let mut synth_rows = 20_000usize;
    let mut base_scale = 0.05f64;
    let mut runs = 3usize;
    let mut json_path = Some("BENCH_scale.json".to_string());
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--factors" => {
                i += 1;
                factors = argv[i]
                    .split(',')
                    .map(|s| s.trim().parse().expect("--factors takes e.g. 1,5,20"))
                    .collect();
            }
            "--widths" => {
                i += 1;
                widths = argv[i]
                    .split(',')
                    .map(|s| {
                        let (t, c) = s
                            .trim()
                            .split_once('x')
                            .expect("--widths takes e.g. 3x4,6x8");
                        (t.parse().unwrap(), c.parse().unwrap())
                    })
                    .collect();
            }
            "--synth-rows" => {
                i += 1;
                synth_rows = argv[i].parse().expect("--synth-rows takes a count");
            }
            "--base-scale" => {
                i += 1;
                base_scale = argv[i].parse().expect("--base-scale takes a float");
            }
            "--runs" => {
                i += 1;
                runs = argv[i].parse().expect("--runs takes a count");
            }
            "--json" => {
                i += 1;
                json_path = Some(argv[i].clone());
            }
            "--no-json" => json_path = None,
            other => eprintln!("ignoring unknown flag `{other}`"),
        }
        i += 1;
    }

    println!(
        "# scale-bench — rows axis: NBA {base_scale} × {factors:?} (duplicate-up); \
         width axis: synth {synth_rows} rows × {widths:?}\n"
    );
    let mut points = rows_axis_points(base_scale, &factors, runs);
    points.extend(width_axis_points(synth_rows, &widths, runs));
    println!();
    print_table(&points);

    // The headline curve: per-row prepare cost across the rows axis.
    // Strided sampling keeps the stats/fragment share O(sample), so the
    // per-kilorow cost must not *grow* with the corpus (the index build
    // is O(rows), i.e. flat per-row; everything else shrinks per-row).
    let rows_pts: Vec<&Point> = points.iter().filter(|p| p.axis == "rows").collect();
    if rows_pts.len() >= 2 {
        let first = rows_pts.first().unwrap();
        let last = rows_pts.last().unwrap();
        let per_krow = |p: &Point| p.prepare_ms / (p.total_rows as f64 / 1e3).max(1e-9);
        let ratio = per_krow(last) / per_krow(first).max(1e-9);
        println!(
            "\nprepare per-krow: {:.3} ms → {:.3} ms across {}×→{}× rows (ratio {ratio:.2}; \
             ≤ 1 means the prepare path scales no worse than linearly)",
            per_krow(first),
            per_krow(last),
            first.factor,
            last.factor
        );
        assert!(
            ratio < 3.0,
            "prepare path scaled superlinearly: {:.3} → {:.3} ms/krow",
            per_krow(first),
            per_krow(last)
        );
    }

    // Width-axis memory attribution: the superlinear growth the sweep
    // exposes must be *named* — each width point reports its top scopes
    // by peak-live growth and the fraction of the heap watermark the
    // scope ledgers account for.
    for p in points.iter().filter(|p| p.axis == "width") {
        println!(
            "width {:<22} heap peak {:>7.1} MB, {:>5.1}% attributed, top scopes: {}",
            p.label,
            p.alloc_peak_bytes as f64 / (1 << 20) as f64,
            p.alloc_attributed_fraction * 100.0,
            p.alloc_top_scopes.join(", ")
        );
        if p.alloc_peak_bytes > 0 {
            assert!(
                p.alloc_attributed_fraction >= 0.8,
                "width-axis heap growth under-attributed ({:.1}% of {} bytes): \
                 a hot allocation path is missing its AllocScope",
                p.alloc_attributed_fraction * 100.0,
                p.alloc_peak_bytes
            );
        }
    }

    if let Some(path) = json_path {
        let body: Vec<String> = points.iter().map(point_json).collect();
        let rows_points = points.iter().filter(|p| p.axis == "rows").count();
        let width_points = points.iter().filter(|p| p.axis == "width").count();
        let json = format!(
            "{{\n  \"base_scale\": {base_scale},\n  \"synth_rows\": {synth_rows},\n  \"runs\": {runs},\n  \"rows_points\": {rows_points},\n  \"width_points\": {width_points},\n  \"points\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        );
        std::fs::write(&path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
