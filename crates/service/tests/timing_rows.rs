//! Every timing row is the sum of its stages' spans: the breakdown rows
//! of `SessionTimings` (with its `MiningTimings`) and `IngestTimings` are
//! filled from `Stage::finish()`, whose span closes at the same clock
//! reading, so a row and the `wall_us` of its stages' spans agree to
//! within the µs each span's rounding drops. Checked on a traced cold
//! and warm service ask, a collected `ingest_dir` and a collected
//! library `explain`. Also: under `prepare_apt` and `mine_apt` no span
//! falls outside the row map (or the listed nested spans), so no mining
//! stage goes untimed.

use std::collections::HashMap;
use std::time::Duration;

use cajade_core::{ExplanationSession, Params, SessionTimings, UserQuestion};
use cajade_datagen::nba;
use cajade_ingest::{ingest_dir, IngestOptions, IngestTimings};
use cajade_obs::{Collector, SpanRecord};
use cajade_query::parse_sql;
use cajade_service::{AskOptions, ExplanationService, ServiceConfig};

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

/// Spans under `prepare_apt` / `mine_apt` that sit inside a row's stage
/// rather than being one.
const NESTED: &[&str] = &[
    "featsel_gather",
    "featsel_encode",
    "featsel_forest",
    "featsel_assoc",
    "exact_rescore",
];

/// `(row, its value, the stages whose span walls it sums)`.
type Row = (&'static str, Duration, &'static [&'static str]);

fn session_rows(t: &SessionTimings) -> Vec<Row> {
    let m = &t.mining;
    vec![
        ("provenance", t.provenance, &["provenance"]),
        ("jg_enum", t.jg_enum, &["jg_enum"]),
        ("materialize_apts", t.materialize_apts, &["materialize_apt"]),
        ("sampling_for_f1", m.sampling_for_f1, &["sampling_for_f1"]),
        (
            "feature_selection",
            m.feature_selection,
            &["feature_selection"],
        ),
        ("gen_pat_cand", m.gen_pat_cand, &["gen_pat_cand"]),
        ("prepare", m.prepare, &["score_index", "fragments"]),
        (
            "fscore_calc",
            m.fscore_calc,
            &["rank_candidates", "select_top_k"],
        ),
        ("refine_patterns", m.refine_patterns, &["refine_bfs"]),
    ]
}

fn ingest_rows(t: &IngestTimings) -> Vec<Row> {
    vec![
        ("scan", t.scan, &["ingest_scan"]),
        ("infer", t.infer, &["ingest_infer"]),
        ("load", t.load, &["ingest_load"]),
        ("discover", t.discover, &["ingest_discover"]),
    ]
}

/// Each row equals the summed `wall_us` of its stages' spans, within
/// 1 µs per span; returns how many spans the rows covered.
fn assert_rows_are_spans(case: &str, rows: &[Row], spans: &[SpanRecord]) -> usize {
    let mut covered = 0;
    for &(row, value, stages) in rows {
        let (n, wall_us) = (spans.iter())
            .filter(|s| stages.contains(&s.name))
            .fold((0u64, 0u64), |(n, w), s| (n + 1, w + s.wall_us));
        let row_us = value.as_nanos() as f64 / 1e3;
        assert!(
            (row_us - wall_us as f64).abs() <= n as f64,
            "{case}: row `{row}` is {row_us} µs, its {n} {stages:?} spans sum to {wall_us} µs"
        );
        covered += n as usize;
    }
    covered
}

/// Every span below a `prepare_apt` or `mine_apt` span is a row's stage
/// or one of [`NESTED`].
fn assert_mining_spans_are_mapped(case: &str, rows: &[Row], spans: &[SpanRecord]) {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let under_graph = |s: &SpanRecord| {
        let mut parent = s.parent;
        while let Some(p) = parent.and_then(|id| by_id.get(&id)) {
            if matches!(p.name, "prepare_apt" | "mine_apt") {
                return true;
            }
            parent = p.parent;
        }
        false
    };
    for s in spans.iter().filter(|s| under_graph(s)) {
        let mapped = rows.iter().any(|(_, _, stages)| stages.contains(&s.name));
        assert!(
            mapped || NESTED.contains(&s.name),
            "{case}: span `{}` under a graph stage lands in no timing row",
            s.name
        );
    }
}

fn count(spans: &[SpanRecord], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn traced_cold_and_warm_asks_time_each_row_by_its_stage_spans() {
    let service = ExplanationService::new(ServiceConfig::default());
    let gen = nba::generate(nba::NbaConfig::tiny());
    service.register_database("nba", gen.db, gen.schema_graph);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let traced = AskOptions {
        trace: true,
        timeout: None,
    };

    let cold = (session.ask_with(
        &UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")]),
        &traced,
    ))
    .unwrap();
    assert!(!cold.provenance_cache_hit && cold.apt_cache_misses > 0);
    let spans = cold.trace.expect("traced");
    let rows = session_rows(&cold.result.timings);
    assert_rows_are_spans("cold ask", &rows, &spans);
    assert_mining_spans_are_mapped("cold ask", &rows, &spans);
    for stage in [
        "provenance",
        "materialize_apt",
        "feature_selection",
        "refine_bfs",
    ] {
        assert!(count(&spans, stage) > 0, "cold ask ran no `{stage}`");
    }

    // A new question over the same query: every graph is held prepared,
    // so only the per-question half of mining runs.
    let warm = (session.ask_with(
        &UserQuestion::two_point(&[("season_name", "2016-17")], &[("season_name", "2013-14")]),
        &traced,
    ))
    .unwrap();
    assert!(warm.provenance_cache_hit && !warm.answer_cache_hit);
    assert_eq!(warm.apt_cache_misses, 0);
    let spans = warm.trace.expect("traced");
    let rows = session_rows(&warm.result.timings);
    assert_rows_are_spans("warm ask", &rows, &spans);
    assert_mining_spans_are_mapped("warm ask", &rows, &spans);
    assert_eq!(count(&spans, "prepare_apt"), 0);
    let graphs = count(&spans, "mine_apt");
    assert!(graphs > 0);
    for stage in ["rank_candidates", "refine_bfs", "select_top_k"] {
        assert_eq!(count(&spans, stage), graphs, "one `{stage}` per graph");
    }
}

/// A graph over λ_qcost leaves its partial fold in a `materialize_apt`
/// span and in the `materialize_apts` row: at λ_qcost 5 000 on the tiny
/// NBA corpus a cold ask skips 39 of its 202 valid graphs.
#[test]
fn graphs_skipped_over_lambda_qcost_count_in_the_materialize_row() {
    let mut params = Params::paper();
    params.max_cost = 5_000.0;
    let service = ExplanationService::new(ServiceConfig {
        params,
        ..ServiceConfig::default()
    });
    let gen = nba::generate(nba::NbaConfig::tiny());
    service.register_database("nba", gen.db, gen.schema_graph);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let traced = AskOptions {
        trace: true,
        timeout: None,
    };
    let cold = (session.ask_with(
        &UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")]),
        &traced,
    ))
    .unwrap();
    let spans = cold.trace.expect("traced");
    assert_eq!(count(&spans, "apt_over_cost"), 39);
    assert_eq!(count(&spans, "materialize_apt"), 202);
    assert_eq!(cold.result.num_graphs_mined, 202 - 39);
    let rows = session_rows(&cold.result.timings);
    assert_rows_are_spans("cold ask over λ_qcost", &rows, &spans);
}

#[test]
fn collected_ingest_times_each_row_by_its_stage_span() {
    let dir = format!("{}/../../tests/data/retail_csv", env!("CARGO_MANIFEST_DIR"));
    let collector = Collector::new();
    let dataset = collector
        .with(None, || ingest_dir(&dir, &IngestOptions::default()))
        .unwrap();
    let spans = collector.finish();
    let rows = ingest_rows(&dataset.report.timings);
    assert_eq!(assert_rows_are_spans("ingest", &rows, &spans), 4);
}

#[test]
fn collected_library_explain_times_each_row_by_its_stage_spans() {
    let gen = nba::generate(nba::NbaConfig::tiny());
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, Params::fast());
    let query = parse_sql(GSW_SQL).unwrap();
    let collector = Collector::new();
    let result = collector
        .with(None, || {
            session.explain_between(
                &query,
                &[("season_name", "2015-16")],
                &[("season_name", "2012-13")],
            )
        })
        .unwrap();
    let spans = collector.finish();
    let rows = session_rows(&result.timings);
    assert!(assert_rows_are_spans("explain", &rows, &spans) > 0);
    assert_mining_spans_are_mapped("explain", &rows, &spans);
    assert_eq!(count(&spans, "prepare_apt"), count(&spans, "mine_apt"));
}
