//! The catalogs the docs promise — metric names and alloc scopes
//! (`docs/OBSERVABILITY.md`), failpoint sites and budget sites
//! (`docs/ROBUSTNESS.md`), error codes (`docs/PROTOCOL.md`) — against
//! the names the running system uses, in both directions: every name
//! the system used is a row (or matches a template row), and every row
//! is a name the system used (or is listed in [`NOT_DRIVEN`] with why).
//!
//! Doc rows are the backticked names of a table's first column. A row
//! may write a brace family (`heap_{live,freed}_bytes` is two names); a
//! name with `<…>` or `*` in it (`cache_<name>_hits_total`) is a
//! template, where each `<…>` or `*` stands for one or more characters.

use std::collections::BTreeSet;
use std::time::Duration;

use cajade_core::UserQuestion;
use cajade_datagen::nba;
use cajade_graph::{Apt, JoinGraph};
use cajade_mining::featsel::{select_features_hist, FeatSelConfig};
use cajade_mining::prepared::{mine_prepared, prepare};
use cajade_mining::{MiningParams, NoSharedStats, Question};
use cajade_obs::faults::{self, Site};
use cajade_obs::Budget;
use cajade_query::{parse_sql, ProvenanceTable};
use cajade_service::json::Json;
use cajade_service::protocol::handle_line;
use cajade_service::{AskOptions, ExplanationService, ServiceConfig, ERROR_CODES};

// The scope taxonomy and the `heap_*` / `mem_scope_*` gauges exist only
// where the tracking allocator is installed, as in `cajade-serve`.
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

/// Rows no path of this test takes, each with the reason.
const NOT_DRIVEN: &[(&str, &str)] = &[
    (
        "bench.register",
        "entered only by `scale_bench`'s registration, outside the service",
    ),
    #[cfg(not(target_os = "linux"))]
    ("process_peak_rss_bytes", "read from `/proc`: Linux only"),
    #[cfg(not(target_os = "linux"))]
    ("process_current_rss_bytes", "read from `/proc`: Linux only"),
];

fn doc(name: &str) -> String {
    let path = format!("{}/../../docs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The first-column names of the tables under the heading titled
/// `section` (up to the next heading), brace families expanded. A
/// table's header row is not a row.
fn table_rows(markdown: &str, section: &str) -> Vec<String> {
    let mut rows = Vec::new();
    let mut in_section = false;
    let mut header = true;
    for line in markdown.lines() {
        if line.starts_with('#') {
            in_section = line.trim_start_matches('#').trim() == section;
            continue;
        }
        let Some(cells) = line.strip_prefix('|').filter(|_| in_section) else {
            header = true;
            continue;
        };
        let first = cells.split('|').next().unwrap_or_default();
        if first.trim().chars().all(|c| c == '-') {
            header = false;
        } else if !header {
            rows.extend(backticked(first).flat_map(expand_braces));
        }
    }
    assert!(!rows.is_empty(), "no table under `{section}`");
    rows
}

/// Contents of every `` `…` `` span of `text`.
fn backticked(text: &str) -> impl Iterator<Item = &str> {
    text.split('`').skip(1).step_by(2)
}

/// `a_{x,y}_b` → `a_x_b`, `a_y_b`, for every brace group.
fn expand_braces(name: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (name.find('{'), name.find('}')) else {
        return vec![name.to_string()];
    };
    name[open + 1..close]
        .split(',')
        .flat_map(|part| {
            expand_braces(&format!(
                "{}{}{}",
                &name[..open],
                part.trim(),
                &name[close + 1..]
            ))
        })
        .collect()
}

fn is_template(row: &str) -> bool {
    row.contains(['<', '*'])
}

/// Does `name` fit `template`, each `<…>` or `*` standing for one or
/// more characters? Never for a template without either.
fn fits(template: &str, name: &str) -> bool {
    let parts: Vec<&str> = (template.split(['<', '*']))
        .map(|p| p.split_once('>').map_or(p, |(_, after)| after))
        .collect();
    let Some((last, middle)) = parts[1..].split_last() else {
        return false;
    };
    let Some(mut rest) = name.strip_prefix(parts[0]) else {
        return false;
    };
    for part in middle {
        let Some(at) = rest.get(1..).and_then(|r| r.find(part)) else {
            return false;
        };
        rest = &rest[1 + at + part.len()..];
    }
    rest.len() > last.len() && rest.ends_with(last)
}

/// Both directions of one catalog; one line per mismatch.
fn diff(catalog: &str, rows: &[String], used: &BTreeSet<String>) -> Vec<String> {
    let exempt = |row: &str| NOT_DRIVEN.iter().any(|(r, _)| *r == row);
    let mut out = Vec::new();
    for name in used {
        if !rows.iter().any(|r| r == name || fits(r, name)) {
            out.push(format!("{catalog}: `{name}` is used but has no row"));
        }
    }
    for row in rows {
        let seen = if is_template(row) {
            used.iter().any(|n| fits(row, n))
        } else {
            used.contains(row)
        };
        if !seen && !exempt(row) {
            out.push(format!(
                "{catalog}: row `{row}` names nothing the system used"
            ));
        }
    }
    out
}

fn ok(response: &Json) -> &Json {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response:?}"
    );
    response
}

#[test]
fn doc_catalogs_match_the_names_the_running_system_uses() {
    let service = ExplanationService::new(ServiceConfig::default());
    let gen = nba::generate(nba::NbaConfig::tiny());
    service.register_database("nba", gen.db, gen.schema_graph);

    // A CSV registration runs the ingest stages; a fault plan that fires
    // once (and sleeps 0 ms) mints a `fault_<site>_fired_total` counter.
    let csv = format!("{}/../../tests/data/retail_csv", env!("CARGO_MANIFEST_DIR"));
    let register =
        format!(r#"{{"op":"register","db":"retail","source":"csv_dir","path":"{csv}"}}"#);
    let plan = faults::Plan::parse("ingest.profile=sleep:0@1").unwrap();
    ok(&plan.install(|| handle_line(&service, &register)));

    // A cold ask, then the same ask again (an answer-cache hit).
    let query = handle_line(
        &service,
        &format!(r#"{{"op":"query","db":"nba","sql":"{GSW_SQL}"}}"#),
    );
    let session = ok(&query).get("session").and_then(Json::as_u64).unwrap();
    let ask = format!(
        r#"{{"op":"ask","session":{session},"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}}}}"#
    );
    ok(&handle_line(&service, &ask));
    ok(&handle_line(&service, &ask));

    let mut metrics = BTreeSet::new();
    for snap in [service.metrics_snapshot(), cajade_obs::global().snapshot()] {
        metrics.extend(snap.counters.into_iter().map(|(n, _)| n));
        metrics.extend(snap.gauges.into_iter().map(|(n, _)| n));
        metrics.extend(snap.hists.into_iter().map(|(n, _)| n));
    }
    let scopes = cajade_obs::alloc::scope_snapshots()
        .into_iter()
        .map(|s| s.name.to_string())
        .collect();
    let sites = Site::ALL.iter().map(|s| s.name().to_string()).collect();
    let codes = ERROR_CODES.iter().map(|c| c.to_string()).collect();

    let (observability, robustness) = (doc("OBSERVABILITY.md"), doc("ROBUSTNESS.md"));
    let problems: Vec<String> = [
        diff(
            "metric names",
            &table_rows(&observability, "Metric names"),
            &metrics,
        ),
        diff(
            "scope taxonomy",
            &table_rows(&observability, "Scope taxonomy"),
            &scopes,
        ),
        diff(
            "failpoint catalog",
            &table_rows(&robustness, "Failpoint catalog"),
            &sites,
        ),
        diff(
            "error codes",
            &table_rows(&doc("PROTOCOL.md"), "Errors"),
            &codes,
        ),
    ]
    .concat();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// An expired budget stops each site of `docs/ROBUSTNESS.md`'s budget
/// table, and the budget (and so the ask's `truncated` list) names it.
#[test]
fn an_expired_budget_stops_each_budget_site_and_reports_it() {
    let expired = || Budget::with_timeout(Duration::ZERO);
    let mut seen = BTreeSet::new();

    // materialize: an ask whose budget expired before it began mines no graph.
    let service = ExplanationService::new(ServiceConfig::default());
    let gen = nba::generate(nba::NbaConfig::tiny());
    let db = gen.db.clone();
    service.register_database("nba", gen.db, gen.schema_graph);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let question =
        UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")]);
    let options = AskOptions {
        trace: false,
        timeout: Some(Duration::ZERO),
    };
    let asked = session.ask_with(&question, &options).unwrap().result;
    assert!(asked.degraded && asked.num_graphs_mined == 0, "{asked:?}");
    assert_eq!(asked.truncated, ["materialize"]);
    seen.extend(asked.truncated);

    // The other sites run inside one graph's preparation and mining.
    let pt = ProvenanceTable::compute(&db, &parse_sql(GSW_SQL).unwrap()).unwrap();
    let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
    let params = MiningParams::default();
    let mut report = |budget: &Budget, site: &str| {
        assert_eq!(budget.truncated(), [site]);
        seen.insert(site.to_string());
    };

    let budget = expired();
    let prepared = budget.install(|| prepare(&apt, &pt, &params, &NoSharedStats, None));
    assert!(prepared.truncated && prepared.pool.is_empty());
    report(&budget, "prepare");

    let budget = expired();
    let order: Vec<u32> = (0..apt.num_rows as u32).collect();
    let cfg = FeatSelConfig::default();
    let select = || select_features_hist(&apt, &pt, &order, None, &cfg, &NoSharedStats);
    // No forest trained: the relevance is the untrained fallback's.
    assert_ne!(budget.install(select).relevance, select().relevance);
    report(&budget, "featsel.forest");

    // Without feature selection this graph's refinement BFS scores
    // ~2 000 patterns; expired, it scores none.
    let params = MiningParams {
        feature_selection: false,
        ..params
    };
    let prepared = prepare(&apt, &pt, &params, &NoSharedStats, None);
    let budget = expired();
    let question = Question::TwoPoint { t1: 0, t2: 1 };
    let mined = budget.install(|| mine_prepared(&prepared, &apt, &pt, &question, &params));
    assert_eq!(
        (mined.patterns_evaluated, mined.timings.budget_stopped),
        (0, 1)
    );
    report(&budget, "mine.refine");

    let rows = table_rows(&doc("ROBUSTNESS.md"), "Request budgets");
    let problems = diff("budget sites", &rows, &seen);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
