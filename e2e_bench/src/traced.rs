//! The traced pass: replays a fixed prefix of the same seeded cycles
//! in-process and attributes the time to layers.
//!
//! Three parts, all over cycles `1..=TRACED_CYCLES` of the workload:
//!
//! 1. **Decomposed** — the harness calls each layer's public function
//!    itself, in the order and under the heap-attribution scopes the
//!    service does, one call at a time, each in a span of the harness's
//!    own recorder. Sequential, so a layer's number is CPU-like and sums;
//!    the server runs the per-graph calls on its worker threads.
//! 2. **Service in-process** — the cycles go through
//!    `protocol::handle_line` on a service built like the binary's, once
//!    with the recorder off and once with it on (their difference is the
//!    recorder's own cost), plus cold asks alone on a service with
//!    `parallel` off, which is the wall the decomposed sums must cover.
//! 3. **Counter rounds over pipes** — the real server again, reading the
//!    protocol's own counters from outside: the `metrics` heap ledger
//!    around every cold ask, `stats` at the end, `/proc` for CPU and RSS,
//!    and a second round with `trace:true` on the cold asks.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cajade_core::pipeline;
use cajade_core::{Explanation, ExplanationSession, Params, UserQuestion};
use cajade_graph::{enumerate_join_graphs, Apt, EnumConfig};
use cajade_ingest::{ingest_dir, IngestOptions};
use cajade_mining::{
    mine_prepared, prepare_apt_with, BaseTableStats, ColumnStats, ColumnStatsConfig,
    ColumnStatsProvider, PreparedApt,
};
use cajade_ml::{BinSpec, HistForest, RandomForestConfig};
use cajade_obs::AllocScope;
use cajade_query::{execute, parse_sql, ProvenanceTable};
use cajade_service::json::Json;
use cajade_service::{protocol, ExplanationService, ServiceConfig};
use cajade_storage::{AttrKind, Database};

use crate::calib::Calibrator;
use crate::cycle::{run_cycle, CycleOptions, Endpoint, OpKind, RunLog};
use crate::piped::{Env, Session};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{questions, CyclePlan, Question, Workload};

/// Cycles every part replays: one on each corpus.
pub const TRACED_CYCLES: usize = 2;

/// Rows of a `query` response preview, which is what the questions of
/// the piped passes are drawn from.
const PREVIEW_ROWS: usize = 50;

/// One per-layer metric.
pub type Metric = (&'static str, f64, &'static str);

pub struct TracedPass {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// Digest of the counter round, comparable across runs of one seed.
    pub digest: u64,
}

/// A memoizing column-statistics provider that counts how often a
/// preparation found its column already analyzed — the service's
/// column-stats cache, seen from the caller's side.
struct CountingStats<'a> {
    inner: BaseTableStats<'a>,
    seen: Mutex<HashSet<(String, String)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a> CountingStats<'a> {
    fn new(db: &'a Database, params: &Params) -> Self {
        CountingStats {
            inner: BaseTableStats::new(db, ColumnStatsConfig::from_params(&params.mining)),
            seen: Mutex::new(HashSet::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl ColumnStatsProvider for CountingStats<'_> {
    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
        let fresh = self
            .seen
            .lock()
            .expect("no panic while held")
            .insert((table.to_string(), column.to_string()));
        let counter = if fresh { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        self.inner.column_stats(table, column)
    }
}

/// Sums the decomposed part collects beside its spans.
#[derive(Default)]
struct LayerSums {
    registers: f64,
    queries: f64,
    cold_asks: f64,
    asks: f64,
    ingest_rows: f64,
    infer_ms: f64,
    load_ms: f64,
    discover_ms: f64,
    pt_rows: f64,
    graphs_enumerated: f64,
    graphs_valid: f64,
    apt_rows: f64,
    apt_bytes: f64,
    featsel_ms: f64,
    index_ms: f64,
    prepared_bytes: f64,
    patterns_evaluated: f64,
    ub_pruned_children: f64,
    recall_pruned_subtrees: f64,
    colstats_hits: f64,
    colstats_misses: f64,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn user_question(q: &Question, col: &str) -> UserQuestion {
    match q {
        Question::TwoPoint(a, b) => UserQuestion::two_point(&[(col, a)], &[(col, b)]),
        Question::SinglePoint(a) => UserQuestion::single_point(&[(col, a)]),
    }
}

/// Runs `f` under the heap-attribution scopes the service enters around
/// the same call (outer first). The tracking allocator does more work per
/// allocation inside a scope, so a layer timed bare would look cheaper
/// than the server ever runs it.
fn under_scopes<R>(names: [&'static str; 2], f: impl FnOnce() -> R) -> R {
    let _outer = AllocScope::enter(names[0]);
    let _inner = AllocScope::enter(names[1]);
    f()
}

/// `HistForest::fit` and the `BinSpec` fit + encode it needs, on the
/// numeric columns of one APT, labelled by membership in the first group
/// — the shape of one feature-selection task.
fn ml_micro(rec: &mut Recorder, apt: &Apt, pt: &ProvenanceTable, params: &Params) {
    let numeric: Vec<Vec<f64>> = apt
        .pattern_fields()
        .into_iter()
        .filter(|&f| apt.fields[f].kind == AttrKind::Numeric)
        .map(|f| {
            (0..apt.num_rows)
                .map(|r| apt.columns[f].f64_at(r).unwrap_or(f64::NAN))
                .collect()
        })
        .collect();
    if numeric.is_empty() || apt.num_rows == 0 {
        return;
    }
    let hist_bins = ColumnStatsConfig::from_params(&params.mining).hist_bins;
    let cols = rec.span("ml.bin_encode", |_| {
        numeric
            .iter()
            .map(|v| BinSpec::fit_f64(v, hist_bins).encode_f64(v))
            .collect::<Vec<_>>()
    });
    let labels: Vec<bool> = apt
        .pt_row
        .iter()
        .map(|&r| pt.group_of[r as usize] == 0)
        .collect();
    let cfg = RandomForestConfig {
        num_trees: params.mining.forest_trees,
        seed: params.mining.seed,
        ..RandomForestConfig::default()
    };
    rec.span("ml.forest_fit", |_| {
        std::hint::black_box(HistForest::fit(&cols, &labels, &cfg));
    });
}

/// Part 1 for one cycle. `first` marks the cycle that also runs the
/// once-per-pass measurements (`ml.*`, `core.explain`).
fn decomposed_cycle(
    rec: &mut Recorder,
    w: &Workload,
    plan: &CyclePlan,
    corpora: &[PathBuf; 2],
    params: &Params,
    first: bool,
    sums: &mut LayerSums,
) -> Result<(), String> {
    rec.next_request();
    let dataset = rec
        .span("ingest.dir", |_| {
            ingest_dir(&corpora[plan.corpus], &IngestOptions::default())
        })
        .map_err(|e| format!("ingest_dir: {e}"))?;
    sums.registers += 1.0;
    sums.ingest_rows += dataset.report.total_rows() as f64;
    sums.infer_ms += ms(dataset.report.timings.infer);
    sums.load_ms += ms(dataset.report.timings.load);
    sums.discover_ms += ms(dataset.report.timings.discover);
    let db = &dataset.db;
    rec.span("storage.fingerprint", |_| {
        std::hint::black_box(db.fingerprint());
    });
    let colstats = CountingStats::new(db, params);

    for (si, session) in plan.sessions.iter().enumerate() {
        rec.next_request();
        let query = rec
            .span("query.parse", |_| parse_sql(&session.sql))
            .map_err(|e| format!("parse_sql: {e}"))?;
        let result = rec
            .span("query.execute", |_| execute(db, &query))
            .map_err(|e| format!("execute: {e}"))?;
        let pt = rec
            .span("query.provenance", |_| {
                under_scopes(["cache.provenance", "provenance"], || {
                    ProvenanceTable::compute(db, &query)
                })
            })
            .map_err(|e| format!("provenance: {e}"))?;
        let enum_cfg = EnumConfig {
            max_edges: params.max_edges,
            max_cost: params.max_cost,
            check_pk_coverage: params.check_pk_coverage,
            include_pt_only: params.include_pt_only,
        };
        let graphs = rec
            .span("graph.enumerate", |_| {
                under_scopes(["cache.provenance", "jg_enum"], || {
                    enumerate_join_graphs(&dataset.schema_graph, db, &query, pt.num_rows, &enum_cfg)
                })
            })
            .map_err(|e| format!("enumerate: {e}"))?;
        let valid: Vec<usize> = (0..graphs.len()).filter(|&i| graphs[i].valid).collect();
        sums.queries += 1.0;
        sums.pt_rows += pt.num_rows as f64;
        sums.graphs_enumerated += graphs.len() as f64;
        sums.graphs_valid += valid.len() as f64;

        let col = result
            .table
            .schema()
            .field_index(session.group_col)
            .ok_or_else(|| format!("no `{}` column in the answer", session.group_col))?;
        let values: Vec<String> = (0..result.table.num_rows().min(PREVIEW_ROWS))
            .map(|r| result.table.value(r, col).render(db.pool()))
            .collect();
        let qs = questions(&values, session.question_seed);
        let asked = qs.len().min(1 + w.warm_asks);

        let mut apts: Vec<Apt> = Vec::new();
        let mut preps: Vec<PreparedApt> = Vec::new();
        for (qi, q) in qs[..asked].iter().enumerate() {
            rec.next_request();
            let cold = qi == 0;
            let uq = user_question(q, session.group_col);
            let name = if cold { "ask.cold" } else { "ask.warm" };
            rec.span(name, |rec| -> Result<(), String> {
                if cold {
                    for &gi in &valid {
                        let apt = rec
                            .span("graph.materialize", |_| {
                                under_scopes(["cache.apt", "materialize"], || {
                                    Apt::materialize(db, &pt, &graphs[gi].graph)
                                })
                            })
                            .map_err(|e| format!("materialize: {e}"))?;
                        sums.apt_rows += apt.num_rows as f64;
                        sums.apt_bytes += apt.approx_bytes() as f64;
                        apts.push(apt);
                    }
                    for apt in &apts {
                        let prep = rec.span("mining.prepare", |_| {
                            under_scopes(["cache.apt", "prepare"], || {
                                prepare_apt_with(apt, &pt, &params.mining, &colstats)
                            })
                        });
                        sums.featsel_ms += ms(prep.prep_timings.feature_selection);
                        sums.index_ms += ms(prep.prep_timings.prepare);
                        sums.prepared_bytes += prep.approx_bytes() as f64;
                        preps.push(prep);
                    }
                    sums.cold_asks += 1.0;
                }
                let question = pipeline::resolve_question(db, &query, &pt, &uq)
                    .map_err(|e| format!("resolve_question: {e}"))?;
                let mut all: Vec<Explanation> = Vec::new();
                for (i, (apt, prep)) in apts.iter().zip(&preps).enumerate() {
                    let _mem = AllocScope::enter("mine");
                    let outcome = rec.span("mining.mine", |_| {
                        mine_prepared(prep, apt, &pt, &question, &params.mining)
                    });
                    sums.patterns_evaluated += outcome.patterns_evaluated as f64;
                    sums.ub_pruned_children += outcome.timings.ub_pruned_children as f64;
                    sums.recall_pruned_subtrees += outcome.timings.recall_pruned_subtrees as f64;
                    rec.span("core.render", |_| {
                        all.extend(outcome.explanations.iter().map(|m| {
                            Explanation::from_mined(
                                m,
                                apt,
                                db.pool(),
                                pipeline::group_label(db, &query, &pt, m.primary_group),
                                valid[i],
                            )
                        }));
                    });
                }
                let ranked = rec.span("core.rank", |_| pipeline::rank(all, params));
                sums.asks += 1.0;
                if ranked.is_empty() {
                    return Err(format!("{q:?}: decomposed ask found no explanation"));
                }
                Ok(())
            })?;
        }

        if first && si == 0 {
            rec.next_request();
            // What the heap-attribution scopes cost: the same gathers
            // again, bare and then the way the service runs them (the
            // later, warmer-cache turn goes to the scoped side, so the
            // overhead is if anything understated).
            for (name, scoped) in [
                ("obs.materialize_bare", false),
                ("obs.materialize_scoped", true),
            ] {
                rec.span(name, |_| {
                    for &gi in &valid {
                        let gather = || Apt::materialize(db, &pt, &graphs[gi].graph);
                        std::hint::black_box(match scoped {
                            true => under_scopes(["cache.apt", "materialize"], gather),
                            false => gather(),
                        })
                        .ok();
                    }
                });
            }
            if let Some(largest) = apts.iter().max_by_key(|a| a.num_rows) {
                ml_micro(rec, largest, &pt, params);
            }
            let uq = user_question(&qs[0], session.group_col);
            rec.span("core.explain", |_| {
                ExplanationSession::new(db, &dataset.schema_graph, params.clone())
                    .explain(&query, &uq)
            })
            .map_err(|e| format!("explain: {e}"))?;
        }
    }
    sums.colstats_hits += colstats.hits.load(Ordering::Relaxed) as f64;
    sums.colstats_misses += colstats.misses.load(Ordering::Relaxed) as f64;
    Ok(())
}

/// `protocol::handle_line` plus the response render the serve loop does,
/// timed without the recorder so a disabled recorder still yields op
/// times; the recorder's spans are the part whose cost is being priced.
struct InProcess<'a> {
    service: &'a ExplanationService,
    rec: &'a mut Recorder,
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
}

fn span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Register => "service.register",
        OpKind::Query => "service.query",
        OpKind::ColdAsk => "service.cold_ask",
        OpKind::WarmAsk => "service.warm_ask",
        OpKind::RepeatAsk => "service.repeat_ask",
        OpKind::Close => "service.close",
        OpKind::Probe => "service.probe",
    }
}

impl Endpoint for InProcess<'_> {
    fn exchange(&mut self, kind: OpKind, request: &str) -> Result<(Json, f64), String> {
        // `handle_line` parses the request itself; this extra parse only
        // prices that step and is not part of the op's time.
        let t = Instant::now();
        std::hint::black_box(Json::parse(request)).map_err(|e| format!("request JSON: {e}"))?;
        self.parse_us.push(t.elapsed().as_secs_f64() * 1e6);

        self.rec.next_request();
        let service = self.service;
        let render_us = &mut self.render_us;
        let t0 = Instant::now();
        let resp = self.rec.span(span_name(kind), |rec| {
            let resp = rec.span("service.handle_line", |_| {
                protocol::handle_line(service, request)
            });
            let t = Instant::now();
            rec.span("service.json_render", |_| {
                std::hint::black_box(resp.render());
            });
            render_us.push(t.elapsed().as_secs_f64() * 1e6);
            resp
        });
        Ok((resp, t0.elapsed().as_secs_f64() * 1e3))
    }
}

fn new_service(parallel: bool) -> ExplanationService {
    let mut config = ServiceConfig {
        registry: cajade_obs::global().clone(),
        ..ServiceConfig::default()
    };
    config.params.parallel = parallel;
    ExplanationService::new(config)
}

struct ServicePass {
    log: RunLog,
    wall_s: f64,
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
}

/// Part 2: `cycles` cycles of `w` through `handle_line` on a fresh
/// service. No warm-up: the process is already warm from part 1, and
/// cycle 2 replaces cycle 1's database like every measured cycle does.
fn service_pass(
    rec: &mut Recorder,
    w: &Workload,
    seed: u64,
    corpora: &[PathBuf; 2],
    parallel: bool,
    cycles: usize,
) -> Result<ServicePass, String> {
    let service = new_service(parallel);
    let mut ep = InProcess {
        service: &service,
        rec,
        parse_us: Vec::new(),
        render_us: Vec::new(),
    };
    let mut log = RunLog::default();
    let t0 = Instant::now();
    for c in 1..=cycles {
        let plan = w.cycle_plan(seed, c);
        run_cycle(
            &mut ep,
            w,
            &plan,
            corpora,
            CycleOptions::default(),
            &mut log,
        )?;
    }
    Ok(ServicePass {
        log,
        wall_s: t0.elapsed().as_secs_f64(),
        parse_us: ep.parse_us,
        render_us: ep.render_us,
    })
}

fn cache_field(stats: &Json, cache: &str, field: &str) -> f64 {
    stats
        .get(cache)
        .and_then(|c| c.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Runs all three parts and assembles the per-layer metrics.
pub fn run(w: &Workload, seed: u64, env: &Env, trace_out: &Path) -> Result<TracedPass, String> {
    let params = Params::paper();
    let mut calibrator = Calibrator::new();
    let mut speed_factors = vec![calibrator.speed_factor()];
    let dir = env.scratch.join(format!("{}-{seed}-traced", w.name));
    let corpora = w.export_corpora(seed, &dir)?;

    // ---- Part 1: decomposed layers. ------------------------------------
    let mut rec = Recorder::new(true);
    let mut sums = LayerSums::default();
    let mut first_cycle_cold_ms = 0.0;
    for c in 1..=TRACED_CYCLES {
        let plan = w.cycle_plan(seed, c);
        decomposed_cycle(&mut rec, w, &plan, &corpora, &params, c == 1, &mut sums)?;
        if c == 1 {
            first_cycle_cold_ms = rec.children_total_ms("ask.cold");
        }
    }
    let layers = rec.totals_by_name();
    let layer_ms = |name: &str| layers.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);

    speed_factors.push(calibrator.speed_factor());

    // ---- Part 2: the service in-process. --------------------------------
    let untraced = service_pass(
        &mut Recorder::new(false),
        w,
        seed,
        &corpora,
        true,
        TRACED_CYCLES,
    )?;
    let traced = service_pass(&mut rec, w, seed, &corpora, true, TRACED_CYCLES)?;
    // The wall the decomposed cold asks must cover: cycle 1's cold asks
    // alone, on a service that runs its graphs one after the other.
    let cold_only = Workload {
        warm_asks: 0,
        repeats: 0,
        ..*w
    };
    let sequential = service_pass(
        &mut Recorder::new(false),
        &cold_only,
        seed,
        &corpora,
        false,
        1,
    )?;
    rec.append_jsonl(trace_out, w.name)
        .map_err(|e| format!("write {}: {e}", trace_out.display()))?;

    speed_factors.push(calibrator.speed_factor());

    // ---- Part 3: counter rounds over pipes. ------------------------------
    // The same cycles twice on one server: first reading the heap ledger
    // around each cold ask, then with `trace:true` on the cold asks.
    let mut session = Session::start(w, seed, 1, env, &mut calibrator)?;
    let mut counters = RunLog::default();
    let mut with_flag = RunLog::default();
    let ledger = CycleOptions {
        heap_ledger: true,
        trace_flag: false,
    };
    let flagged = CycleOptions {
        heap_ledger: false,
        trace_flag: true,
    };
    for c in 1..=TRACED_CYCLES {
        session.run_cycle(c, ledger, &mut counters)?;
    }
    let stats = session.stats()?;
    for c in 1..=TRACED_CYCLES {
        session.run_cycle(c, flagged, &mut with_flag)?;
    }
    let warm_up = std::mem::take(&mut session.warm_up);
    let usage = session.finish()?;
    speed_factors.push(calibrator.speed_factor());

    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let s = &sums;
    let mine_ms = layer_ms("mining.mine");
    let in_proc = &traced.log;
    let in_proc_repeat_us = median_or_zero(in_proc.of(OpKind::RepeatAsk)) * 1e3;
    let piped_repeat_us = median_or_zero(counters.of(OpKind::RepeatAsk)) * 1e3;
    let cold_plain = median_or_zero(counters.of(OpKind::ColdAsk));
    let cold_flagged = median_or_zero(with_flag.of(OpKind::ColdAsk));
    let seq_cold_ms = sequential.log.of(OpKind::ColdAsk).iter().sum::<f64>();
    let heap = &counters.heap_deltas;
    let heap_mean = |f: fn(&crate::cycle::HeapDelta) -> f64| {
        per(heap.iter().map(f).sum::<f64>(), heap.len() as f64)
    };

    let metrics: Vec<Metric> = vec![
        (
            "ingest.dir_ms",
            per(layer_ms("ingest.dir"), s.registers),
            "ms",
        ),
        ("ingest.infer_ms", per(s.infer_ms, s.registers), "ms"),
        ("ingest.load_ms", per(s.load_ms, s.registers), "ms"),
        ("ingest.discover_ms", per(s.discover_ms, s.registers), "ms"),
        (
            "ingest.rows_per_s",
            per(s.ingest_rows, layer_ms("ingest.dir") / 1e3),
            "1/s",
        ),
        (
            "storage.fingerprint_ms",
            per(layer_ms("storage.fingerprint"), s.registers),
            "ms",
        ),
        (
            "query.parse_us",
            per(layer_ms("query.parse") * 1e3, s.queries),
            "us",
        ),
        (
            "query.execute_ms",
            per(layer_ms("query.execute"), s.queries),
            "ms",
        ),
        (
            "query.provenance_ms",
            per(layer_ms("query.provenance"), s.queries),
            "ms",
        ),
        ("query.pt_rows", per(s.pt_rows, s.queries), "count"),
        (
            "graph.enumerate_ms",
            per(layer_ms("graph.enumerate"), s.queries),
            "ms",
        ),
        (
            "graph.graphs_enumerated",
            per(s.graphs_enumerated, s.queries),
            "count",
        ),
        (
            "graph.graphs_valid",
            per(s.graphs_valid, s.queries),
            "count",
        ),
        (
            "graph.valid_ratio",
            per(s.graphs_valid, s.graphs_enumerated),
            "ratio",
        ),
        (
            "graph.materialize_ms",
            per(layer_ms("graph.materialize"), s.cold_asks),
            "ms",
        ),
        ("graph.apt_rows", per(s.apt_rows, s.cold_asks), "count"),
        ("graph.apt_bytes", per(s.apt_bytes, s.cold_asks), "bytes"),
        (
            "mining.prepare_ms",
            per(layer_ms("mining.prepare"), s.cold_asks),
            "ms",
        ),
        ("mining.featsel_ms", per(s.featsel_ms, s.cold_asks), "ms"),
        ("mining.index_ms", per(s.index_ms, s.cold_asks), "ms"),
        (
            "mining.prepared_bytes",
            per(s.prepared_bytes, s.cold_asks),
            "bytes",
        ),
        ("ml.forest_fit_ms", layer_ms("ml.forest_fit"), "ms"),
        ("ml.bin_encode_ms", layer_ms("ml.bin_encode"), "ms"),
        ("mining.mine_ms", per(mine_ms, s.asks), "ms"),
        (
            "mining.patterns_evaluated",
            per(s.patterns_evaluated, s.asks),
            "count",
        ),
        (
            "mining.patterns_per_s",
            per(s.patterns_evaluated, mine_ms / 1e3),
            "1/s",
        ),
        (
            "mining.ub_pruned_children",
            per(s.ub_pruned_children, s.asks),
            "count",
        ),
        (
            "mining.recall_pruned_subtrees",
            per(s.recall_pruned_subtrees, s.asks),
            "count",
        ),
        (
            "mining.colstats_hit_ratio",
            per(s.colstats_hits, s.colstats_hits + s.colstats_misses),
            "ratio",
        ),
        (
            "core.render_us",
            per(layer_ms("core.render") * 1e3, s.asks),
            "us",
        ),
        (
            "core.rank_us",
            per(layer_ms("core.rank") * 1e3, s.asks),
            "us",
        ),
        ("core.explain_ms", layer_ms("core.explain"), "ms"),
        (
            "service.handle_register_ms",
            median_or_zero(in_proc.of(OpKind::Register)),
            "ms",
        ),
        (
            "service.handle_query_ms",
            median_or_zero(in_proc.of(OpKind::Query)),
            "ms",
        ),
        (
            "service.handle_cold_ask_ms",
            median_or_zero(in_proc.of(OpKind::ColdAsk)),
            "ms",
        ),
        (
            "service.handle_cold_ask_seq_ms",
            median_or_zero(sequential.log.of(OpKind::ColdAsk)),
            "ms",
        ),
        (
            "service.handle_warm_ask_ms",
            median_or_zero(in_proc.of(OpKind::WarmAsk)),
            "ms",
        ),
        ("service.handle_repeat_ask_us", in_proc_repeat_us, "us"),
        (
            "service.json_parse_us",
            median_or_zero(&traced.parse_us),
            "us",
        ),
        (
            "service.json_render_us",
            median_or_zero(&traced.render_us),
            "us",
        ),
        ("service.repeat_ask_us_p50", piped_repeat_us, "us"),
        (
            "service.pipe_overhead_us",
            piped_repeat_us - in_proc_repeat_us,
            "us",
        ),
        (
            "service.apt_cache.hits",
            cache_field(&stats, "apt_cache", "hits"),
            "count",
        ),
        (
            "service.apt_cache.misses",
            cache_field(&stats, "apt_cache", "misses"),
            "count",
        ),
        (
            "service.apt_cache.evictions",
            cache_field(&stats, "apt_cache", "evictions"),
            "count",
        ),
        (
            "service.apt_cache.bytes",
            cache_field(&stats, "apt_cache", "bytes"),
            "bytes",
        ),
        (
            "service.prov_cache.hits",
            cache_field(&stats, "provenance_cache", "hits"),
            "count",
        ),
        (
            "service.prov_cache.misses",
            cache_field(&stats, "provenance_cache", "misses"),
            "count",
        ),
        (
            "service.answer_cache.hits",
            cache_field(&stats, "answer_cache", "hits"),
            "count",
        ),
        (
            "service.answer_cache.misses",
            cache_field(&stats, "answer_cache", "misses"),
            "count",
        ),
        (
            "service.prepared_apt_hits",
            stats
                .get("prepared_apt_hits")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            "count",
        ),
        (
            "service.prepared_apt_misses",
            stats
                .get("prepared_apt_misses")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            "count",
        ),
        (
            "service.invalidated_entries",
            counters.invalidated_entries as f64,
            "count",
        ),
        (
            "service.graphs_mined",
            per(counters.graphs_mined as f64, heap.len() as f64),
            "count",
        ),
        (
            "service.patterns_evaluated",
            (counters.cold_patterns_evaluated + counters.warm_patterns_evaluated) as f64,
            "count",
        ),
        ("service.cpu_s", usage.cpu_s, "s"),
        ("service.rss_peak_mb", usage.peak_rss_mb, "MB"),
        (
            "obs.alloc_bytes_per_cold_ask",
            heap_mean(|h| h.allocated_bytes),
            "bytes",
        ),
        (
            "obs.alloc_blocks_per_cold_ask",
            heap_mean(|h| h.allocated_blocks),
            "count",
        ),
        (
            "obs.heap_peak_live_mb",
            counters.heap_peak_live_bytes / (1024.0 * 1024.0),
            "MB",
        ),
        (
            "obs.trace_flag_overhead_pct",
            per((cold_flagged - cold_plain) * 100.0, cold_plain),
            "%",
        ),
        (
            "obs.alloc_scope_overhead_pct",
            per(
                (layer_ms("obs.materialize_scoped") - layer_ms("obs.materialize_bare")) * 100.0,
                layer_ms("obs.materialize_bare"),
            ),
            "%",
        ),
        (
            "bench.trace_overhead_pct",
            per((traced.wall_s - untraced.wall_s) * 100.0, untraced.wall_s),
            "%",
        ),
        ("bench.speed_factor", median(&speed_factors), "ratio"),
        (
            "bench.cold_ask_coverage_pct",
            per(first_cycle_cold_ms * 100.0, seq_cold_ms),
            "%",
        ),
    ];

    let parts = [
        &untraced.log,
        &traced.log,
        &sequential.log,
        &counters,
        &with_flag,
        &warm_up,
    ];
    let mut failures: Vec<String> = Vec::new();
    for log in parts {
        failures.extend(log.failures.iter().cloned());
    }
    Ok(TracedPass {
        metrics,
        attempted: parts.iter().map(|l| l.attempted).sum(),
        failed: parts.iter().map(|l| l.failed).sum(),
        failures,
        digest: counters.digest.0,
    })
}
