//! The `cajade-serve` JSON-lines protocol.
//!
//! One request per input line, one response per output line. Every
//! response is an object with `"ok": true|false`; errors carry
//! `"error": {"code": "<stable_code>", "message": "<human text>"}` —
//! clients branch on `code` (fixed taxonomy, see `docs/PROTOCOL.md`),
//! never on the message.
//!
//! | op | request fields | response fields |
//! |---|---|---|
//! | `register` | `db`, plus either `dataset` (`nba`\|`mimic`) with `scale`? (number) (synthetic source) or `source:"csv_dir"` with `path`, `strict`? (bool), `max_joins`? (non-negative integer) | `epoch` (new with every call), `replaced`, `invalidated_entries`, `tables`, `rows`; csv_dir adds an `ingest` report (per-stage timings, per-table stats, join provenance, warnings) |
//! | `query` | `db`, `sql`, `preview`? (bool, default `true`), `max_rows`? (non-negative integer, default 50) | `session`, `columns`, `rows` (≤ `max_rows`); with `preview: true` warms the provenance cache; reuses an existing session on the same `(db, sql)` |
//! | `ask` | `session`, exactly one of `t1`+`t2` or `t` (objects of col→value), `trace`? (bool, default `false`), `timeout_ms`? (positive number: the request budget) | `explanations`, `cache`, `timings`; with `trace: true` adds a `trace` span-tree array; a budget-truncated answer adds `degraded: true` plus the `truncated` site list |
//! | `stats` | — | service counters + the provenance cache and the prepared graphs and answers its entries hold + cumulative ingest stats |
//! | `metrics` | `format`? (`"json"` default, or `"prometheus"`; any other value is a `bad_request`) | registry snapshot: `counters`, `gauges`, `histograms` (count/sum/max/mean + p50/p90/p99/p999), or `{"text": ...}` in the Prometheus exposition format |
//! | `close` | `session` | `closed` |
//!
//! An optional field (`?`) that is absent takes its default; one that is
//! present but malformed is a `bad_request` naming it.
//!
//! Example exchange:
//!
//! ```text
//! → {"op":"register","db":"nba","dataset":"nba","scale":0.25}
//! ← {"ok":true,"db":"nba","epoch":0,"replaced":false,"tables":11,"rows":123456,...}
//! → {"op":"register","db":"retail","source":"csv_dir","path":"tests/data/retail_csv"}
//! ← {"ok":true,"db":"retail","tables":2,"rows":605,"ingest":{"timings_ms":{...},"tables":[...],"joins":[{"condition":"sales.store_id = stores.store_id","origin":"discovered",...}],...},...}
//! → {"op":"query","db":"nba","sql":"SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' GROUP BY s.season_name"}
//! ← {"ok":true,"session":1,"columns":["win","season_name"],"rows":[...]}
//! → {"op":"ask","session":1,"t1":{"season_name":"2015-16"},"t2":{"season_name":"2012-13"}}
//! ← {"ok":true,"explanations":[...],"cache":{"provenance":"miss","apt_hits":0,"apt_misses":9},...}
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use cajade_core::UserQuestion;
use cajade_datagen::{mimic, nba};
use cajade_obs::faults::{self, Site};
use cajade_storage::Database;

use crate::cache::CacheStats;
use crate::json::Json;
use crate::session::AskOptions;
use crate::{AskResult, ExplanationService, ServiceError};

/// Handles one protocol line, returning the response object. Never
/// panics on malformed input — all failures become `ok: false` — and
/// isolates panics escaping any handler: the panic is caught, counted
/// (`requests_panicked_total`), and answered as an `internal_panic`
/// error so one poisoned request cannot take the serve loop down.
pub fn handle_line(service: &ExplanationService, line: &str) -> Json {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_line_inner(service, line)
    })) {
        Ok(resp) => resp,
        Err(payload) => {
            service.obs().requests_panicked_total.inc();
            err(
                "internal_panic",
                &format!("request panicked: {}", panic_message(&payload)),
            )
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

fn handle_line_inner(service: &ExplanationService, line: &str) -> Json {
    faults::failpoint_infallible(Site::ServeRequest);
    let line = line.trim();
    if line.is_empty() {
        return err("bad_request", "empty request");
    }
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return err("bad_request", &format!("bad JSON: {e}")),
    };
    let op = match req.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return err("bad_request", "missing \"op\""),
    };
    let reply = match op {
        "register" => handle_register(service, &req),
        "query" => handle_query(service, &req),
        "ask" => handle_ask(service, &req),
        "stats" => Ok(handle_stats(service)),
        "metrics" => handle_metrics(service, &req),
        "close" => handle_close(service, &req),
        other => Err(err("bad_request", &format!("unknown op `{other}`"))),
    };
    reply.unwrap_or_else(|error| error)
}

/// A handler's response: `Err` holds the error response, so a handler
/// answers its first malformed field with `?`.
type Reply = Result<Json, Json>;

fn err(code: &str, message: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([("code", Json::str(code)), ("message", Json::str(message))]),
        ),
    ])
}

fn service_err(e: ServiceError) -> Json {
    err(e.code(), &e.to_string())
}

fn str_field<'a>(req: &'a Json, field: &str) -> Result<&'a str, Json> {
    req.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| err("bad_request", &format!("missing string field \"{field}\"")))
}

/// An optional field: absent, `default`; present, what `read` makes of it,
/// or a `bad_request` saying what the field `must` be — never a silent
/// fall-back to the default.
fn optional<'a, T>(
    req: &'a Json,
    field: &str,
    default: T,
    must: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, Json> {
    match req.get(field) {
        None => Ok(default),
        Some(v) => {
            read(v).ok_or_else(|| err("bad_request", &format!("\"{field}\" must be {must}")))
        }
    }
}

const BOOL: &str = "true or false";
const COUNT: &str = "a non-negative integer";

fn as_usize(v: &Json) -> Option<usize> {
    v.as_u64().and_then(|n| usize::try_from(n).ok())
}

fn handle_register(service: &ExplanationService, req: &Json) -> Reply {
    let db_name = str_field(req, "db")?;
    match req.get("source").and_then(Json::as_str) {
        Some("csv_dir") => return handle_register_csv_dir(service, req, db_name),
        Some("synthetic") | None => {}
        Some(other) => {
            return Err(err(
                "bad_request",
                &format!("unknown source `{other}` (expected \"synthetic\" or \"csv_dir\")"),
            ))
        }
    }
    let dataset = str_field(req, "dataset")?;
    let scale = optional(req, "scale", 0.1, "a number", Json::as_f64)?.clamp(0.01, 10.0);
    let generated = match dataset {
        "nba" => nba::generate(nba::NbaConfig::scaled(scale)),
        "mimic" => mimic::generate(mimic::MimicConfig::scaled(scale)),
        other => {
            return Err(err(
                "bad_request",
                &format!("unknown dataset `{other}` (expected \"nba\" or \"mimic\")"),
            ))
        }
    };
    let tables = generated.db.tables().len();
    let rows = generated.db.total_rows();
    let outcome = service.register_database(db_name, generated.db, generated.schema_graph);
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("db", Json::str(db_name)),
        ("epoch", Json::num(outcome.epoch as f64)),
        ("replaced", Json::Bool(outcome.replaced)),
        (
            "invalidated_entries",
            Json::num(outcome.invalidated_entries as f64),
        ),
        ("tables", Json::num(tables as f64)),
        ("rows", Json::num(rows as f64)),
    ]))
}

fn handle_register_csv_dir(service: &ExplanationService, req: &Json, db_name: &str) -> Reply {
    let path = str_field(req, "path")?;
    let defaults = cajade_ingest::IngestOptions::default();
    let options = cajade_ingest::IngestOptions {
        strict_types: optional(req, "strict", defaults.strict_types, BOOL, Json::as_bool)?,
        max_discovered_joins: optional(
            req,
            "max_joins",
            defaults.max_discovered_joins,
            COUNT,
            |v| as_usize(v).map(Some),
        )?,
        ..defaults
    };
    let (outcome, report) =
        (service.register_csv_dir(db_name, path, &options)).map_err(service_err)?;
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("db", Json::str(db_name)),
        ("epoch", Json::num(outcome.epoch as f64)),
        ("replaced", Json::Bool(outcome.replaced)),
        (
            "invalidated_entries",
            Json::num(outcome.invalidated_entries as f64),
        ),
        ("tables", Json::num(report.tables.len() as f64)),
        ("rows", Json::num(report.total_rows() as f64)),
        ("ingest", ingest_report_json(&report)),
    ]))
}

fn ingest_report_json(report: &cajade_ingest::IngestReport) -> Json {
    let ms = |d: std::time::Duration| Json::num(d.as_secs_f64() * 1e3);
    let tables: Vec<Json> = report
        .tables
        .iter()
        .map(|t| {
            Json::obj([
                ("name", Json::str(t.name.clone())),
                ("rows", Json::num(t.rows as f64)),
                ("columns", Json::num(t.columns as f64)),
                (
                    "key",
                    Json::Arr(t.key.iter().map(|k| Json::str(k.clone())).collect()),
                ),
                ("key_pinned", Json::Bool(t.key_pinned)),
                ("ragged_rows", Json::num(t.ragged_rows as f64)),
                ("coerced_nulls", Json::num(t.coerced_nulls as f64)),
            ])
        })
        .collect();
    let joins: Vec<Json> = report
        .joins
        .iter()
        .map(|j| {
            let mut fields = vec![
                ("condition", Json::str(j.condition.clone())),
                ("origin", Json::str(j.origin.label())),
            ];
            if let Some(e) = &j.evidence {
                fields.push(("containment", Json::num(e.containment)));
                fields.push(("uniqueness", Json::num(e.to_uniqueness)));
                fields.push(("coverage", Json::num(e.to_coverage)));
            }
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("dataset", Json::str(report.dataset.clone())),
        ("manifest_used", Json::Bool(report.manifest_used)),
        (
            "timings_ms",
            Json::obj([
                ("scan", ms(report.timings.scan)),
                ("infer", ms(report.timings.infer)),
                ("load", ms(report.timings.load)),
                ("discover", ms(report.timings.discover)),
                ("total", ms(report.timings.total())),
            ]),
        ),
        ("tables", Json::Arr(tables)),
        ("joins", Json::Arr(joins)),
        (
            "warnings",
            Json::Arr(
                report
                    .warnings
                    .iter()
                    .map(|w| Json::str(w.clone()))
                    .collect(),
            ),
        ),
    ])
}

fn handle_query(service: &ExplanationService, req: &Json) -> Reply {
    let db_name = str_field(req, "db")?;
    let sql = str_field(req, "sql")?;
    let max_rows = optional(req, "max_rows", 50, COUNT, as_usize)?;
    let preview = optional(req, "preview", true, BOOL, Json::as_bool)?;
    let (handle, opened) = service
        .open_or_reuse_session(db_name, sql)
        .map_err(service_err)?;
    if !preview {
        // `preview: false` leaves every pipeline stage cold, so a
        // subsequent traced ask shows the full provenance → jg_enum →
        // materialize → prepare → mine span tree.
        return Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("session", Json::num(handle.id() as f64)),
            ("db", Json::str(db_name)),
            ("sql", Json::str(handle.sql())),
            ("preview", Json::Bool(false)),
        ]));
    }
    // Preview runs the prepared stages through the provenance cache, so
    // the caller sees the output tuples they can ask about AND the
    // session's first ask skips preparation; the tuples are rendered
    // through the registration the preview ran on. If it fails (e.g. a
    // string column summed; SQL that does not bind opened no session),
    // close the session if this request opened it, rather than leaking
    // it; a reused one is another request's.
    let (reg, result) = handle.preview().map_err(|e| {
        if opened {
            service.close_session(handle.id());
        }
        service_err(e)
    })?;
    let columns: Vec<Json> = result
        .table
        .schema()
        .fields
        .iter()
        .map(|f| Json::str(f.name.clone()))
        .collect();
    let rows = render_rows(&reg.db, &result.table, max_rows);
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("session", Json::num(handle.id() as f64)),
        ("db", Json::str(db_name)),
        ("sql", Json::str(handle.sql())),
        ("columns", Json::Arr(columns)),
        ("rows", Json::Arr(rows)),
        ("total_rows", Json::num(result.table.num_rows() as f64)),
    ]))
}

fn render_rows(db: &Database, table: &cajade_storage::Table, max_rows: usize) -> Vec<Json> {
    (0..table.num_rows().min(max_rows))
        .map(|r| {
            Json::Arr(
                (0..table.num_columns())
                    .map(|c| Json::str(table.value(r, c).render(db.pool())))
                    .collect(),
            )
        })
        .collect()
}

/// Reads a `{"col": "value", ...}` object into question pairs.
fn tuple_spec(spec: &Json) -> Option<Vec<(String, String)>> {
    let value = |v: &Json| v.as_str().map_or_else(|| v.render(), str::to_string);
    Some(
        spec.as_object()?
            .iter()
            .map(|(k, v)| (k.clone(), value(v)))
            .collect(),
    )
}

fn handle_ask(service: &ExplanationService, req: &Json) -> Reply {
    let handle = service.session(session_field(req)?).map_err(service_err)?;
    // Each field absent, or present and read: `t` beside `t1`/`t2` is
    // refused, not answered as either form.
    let question = match ["t1", "t2", "t"].map(|field| req.get(field).map(tuple_spec)) {
        [Some(Some(t1)), Some(Some(t2)), None] => UserQuestion::TwoPoint { t1, t2 },
        [None, None, Some(Some(t))] => UserQuestion::SinglePoint { t },
        _ => {
            return Err(err(
                "bad_request",
                "expected exactly one of \"t1\"+\"t2\" (two-point) or \"t\" (single-point)",
            ))
        }
    };
    let trace = optional(req, "trace", false, BOOL, Json::as_bool)?;
    let positive = "a positive number of milliseconds";
    let timeout = optional(req, "timeout_ms", None, positive, |v| {
        let ms = v.as_f64().filter(|ms| *ms > 0.0 && ms.is_finite())?;
        // Too far away to represent is no deadline at all.
        Some(std::time::Duration::try_from_secs_f64(ms / 1e3).ok())
    })?;
    let outcome = handle.ask_with(&question, &AskOptions { trace, timeout });
    Ok(ask_response(&outcome.map_err(service_err)?))
}

fn ask_response(outcome: &AskResult) -> Json {
    let explanations: Vec<Json> = outcome
        .result
        .explanations
        .iter()
        .map(|e| {
            Json::obj([
                ("pattern", Json::str(e.pattern_desc.clone())),
                (
                    "predicates",
                    Json::Arr(
                        e.preds
                            .iter()
                            .map(|(a, op, v)| {
                                Json::Arr(vec![
                                    Json::str(a.clone()),
                                    Json::str(op.clone()),
                                    Json::str(v.clone()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("join_graph", Json::str(e.graph_structure.clone())),
                (
                    "join_conditions",
                    Json::Arr(e.graph_edges.iter().map(|s| Json::str(s.clone())).collect()),
                ),
                ("primary", Json::str(e.primary.clone())),
                ("f_score", Json::num(e.metrics.f_score)),
                ("precision", Json::num(e.metrics.precision)),
                ("recall", Json::num(e.metrics.recall)),
                ("provenance_only", Json::Bool(e.from_pt_only)),
            ])
        })
        .collect();
    let r = &outcome.result;
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("explanations", Json::Arr(explanations)),
        (
            "cache",
            Json::obj([
                (
                    "answer",
                    Json::str(if outcome.answer_cache_hit {
                        "hit"
                    } else {
                        "miss"
                    }),
                ),
                (
                    "provenance",
                    Json::str(if outcome.provenance_cache_hit {
                        "hit"
                    } else {
                        "miss"
                    }),
                ),
                ("apt_hits", Json::num(outcome.apt_cache_hits as f64)),
                ("apt_misses", Json::num(outcome.apt_cache_misses as f64)),
            ]),
        ),
        (
            "pipeline",
            Json::obj([
                (
                    "graphs_enumerated",
                    Json::num(r.num_graphs_enumerated as f64),
                ),
                ("graphs_mined", Json::num(r.num_graphs_mined as f64)),
                ("pt_rows", Json::num(r.pt_rows as f64)),
                ("patterns_evaluated", Json::num(r.patterns_evaluated as f64)),
            ]),
        ),
        (
            "timings_ms",
            Json::obj([
                ("wall", Json::num(outcome.wall.as_secs_f64() * 1e3)),
                (
                    "provenance",
                    Json::num(r.timings.provenance.as_secs_f64() * 1e3),
                ),
                ("jg_enum", Json::num(r.timings.jg_enum.as_secs_f64() * 1e3)),
                (
                    "materialize_apts",
                    Json::num(r.timings.materialize_apts.as_secs_f64() * 1e3),
                ),
                (
                    "mining",
                    Json::num(r.timings.mining.total().as_secs_f64() * 1e3),
                ),
            ]),
        ),
    ];
    // Budget-truncated answers are flagged; unbudgeted (or in-time) asks
    // omit both fields, keeping their responses byte-identical to a build
    // without the budget subsystem.
    if r.degraded {
        fields.push(("degraded", Json::Bool(true)));
        fields.push((
            "truncated",
            Json::Arr(r.truncated.iter().map(|s| Json::str(s.clone())).collect()),
        ));
    }
    if let Some(spans) = &outcome.trace {
        let tree: Vec<Json> = spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("span", Json::num(s.id as f64)),
                    (
                        "parent",
                        match s.parent {
                            Some(p) => Json::num(p as f64),
                            None => Json::Null,
                        },
                    ),
                    ("start_us", Json::num(s.start_us as f64)),
                    ("wall_us", Json::num(s.wall_us as f64)),
                    ("alloc_bytes", Json::num(s.alloc_bytes as f64)),
                    ("peak_bytes", Json::num(s.peak_bytes as f64)),
                ])
            })
            .collect();
        fields.push(("trace", Json::Arr(tree)));
    }
    Json::obj(fields)
}

fn handle_metrics(service: &ExplanationService, req: &Json) -> Reply {
    let formats = "\"json\" or \"prometheus\"";
    let format = optional(req, "format", "json", formats, Json::as_str)?;
    let snap = service.metrics_snapshot();
    Ok(match format {
        "prometheus" => Json::obj([
            ("ok", Json::Bool(true)),
            ("format", Json::str("prometheus")),
            ("text", Json::str(snap.render_prometheus())),
        ]),
        "json" => Json::obj([
            ("ok", Json::Bool(true)),
            ("counters", numbers(&snap.counters)),
            ("gauges", numbers(&snap.gauges)),
            (
                "histograms",
                Json::Obj(
                    snap.hists
                        .iter()
                        .map(|(k, h)| {
                            let mut fields = vec![
                                ("count".to_string(), Json::num(h.count as f64)),
                                ("sum".to_string(), Json::num(h.sum as f64)),
                                ("max".to_string(), Json::num(h.max as f64)),
                                ("mean".to_string(), Json::num(h.mean())),
                            ];
                            for (q, label) in cajade_obs::registry::QUANTILES {
                                // "0.5" → p50, "0.9" → p90, "0.99" → p99,
                                // "0.999" → p999.
                                let digits = label.trim_start_matches("0.");
                                let key = if digits.len() == 1 {
                                    format!("p{digits}0")
                                } else {
                                    format!("p{digits}")
                                };
                                fields.push((key, Json::num(h.quantile(q) as f64)));
                            }
                            (k.clone(), Json::Obj(fields.into_iter().collect()))
                        })
                        .collect(),
                ),
            ),
            ("memory", memory_json()),
        ]),
        other => {
            let msg = format!("unknown format `{other}` (expected {formats})");
            return Err(err("bad_request", &msg));
        }
    })
}

/// A snapshot's named counts as a JSON object.
fn numbers(named: &[(String, u64)]) -> Json {
    Json::Obj(
        named
            .iter()
            .map(|(k, v)| (k.clone(), Json::num(*v as f64)))
            .collect(),
    )
}

/// The `metrics` op's `memory` block: process RSS watermarks (Linux,
/// `null` elsewhere) plus the heap-attribution ledgers. `tracking` is
/// `false` — and `heap`/`scopes` are absent — when the binary did not
/// install `cajade_obs::alloc::TrackingAlloc`; RSS fields are reported
/// either way. Scopes are ranked by peak net bytes, descending.
fn memory_json() -> Json {
    let opt_num = |v: Option<u64>| match v {
        Some(n) => Json::num(n as f64),
        None => Json::Null,
    };
    let mut fields = vec![
        ("tracking", Json::Bool(cajade_obs::alloc::tracking_active())),
        (
            "rss",
            Json::obj([
                ("peak_bytes", opt_num(cajade_obs::peak_rss_bytes())),
                ("current_bytes", opt_num(cajade_obs::current_rss_bytes())),
            ]),
        ),
    ];
    if let Some(h) = cajade_obs::alloc::heap_stats() {
        fields.push((
            "heap",
            Json::obj([
                ("allocated_bytes", Json::num(h.allocated_bytes as f64)),
                ("freed_bytes", Json::num(h.freed_bytes as f64)),
                ("allocated_blocks", Json::num(h.allocated_blocks as f64)),
                ("freed_blocks", Json::num(h.freed_blocks as f64)),
                ("live_bytes", Json::num(h.live_bytes.max(0) as f64)),
                (
                    "peak_live_bytes",
                    Json::num(h.peak_live_bytes.max(0) as f64),
                ),
            ]),
        ));
        let mut scopes = cajade_obs::alloc::scope_snapshots();
        scopes.sort_by_key(|s| std::cmp::Reverse(s.peak_net_bytes));
        fields.push((
            "scopes",
            Json::Arr(
                scopes
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("allocated_bytes", Json::num(s.allocated_bytes as f64)),
                            ("freed_bytes", Json::num(s.freed_bytes as f64)),
                            ("net_bytes", Json::num(s.net_bytes as f64)),
                            ("peak_net_bytes", Json::num(s.peak_net_bytes as f64)),
                            ("allocated_blocks", Json::num(s.allocated_blocks as f64)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

fn cache_json(s: &CacheStats) -> Json {
    Json::obj([
        ("entries", Json::num(s.entries as f64)),
        ("bytes", Json::num(s.bytes as f64)),
        ("budget_bytes", Json::num(s.budget_bytes as f64)),
        ("hits", Json::num(s.hits as f64)),
        ("misses", Json::num(s.misses as f64)),
        ("evictions", Json::num(s.evictions as f64)),
        ("inserts", Json::num(s.inserts as f64)),
        ("rejected", Json::num(s.rejected as f64)),
        ("coalesced", Json::num(s.coalesced as f64)),
    ])
}

fn handle_stats(service: &ExplanationService) -> Json {
    let s = service.stats();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("databases", Json::num(s.databases as f64)),
        ("open_sessions", Json::num(s.open_sessions as f64)),
        ("sessions_opened", Json::num(s.sessions_opened as f64)),
        ("questions_answered", Json::num(s.questions_answered as f64)),
        ("prepared_apt_hits", Json::num(s.prepared_apt_hits() as f64)),
        (
            "prepared_apt_misses",
            Json::num(s.prepared_apt_misses() as f64),
        ),
        ("hit_rate", Json::num(s.hit_rate())),
        ("provenance_cache", cache_json(&s.provenance_cache)),
        ("apt_cache", cache_json(&s.apt_cache)),
        ("answer_cache", cache_json(&s.answer_cache)),
        (
            "ingest",
            Json::obj([
                ("ingests", Json::num(s.ingest.ingests as f64)),
                ("tables", Json::num(s.ingest.tables as f64)),
                ("rows", Json::num(s.ingest.rows as f64)),
                ("joins_pinned", Json::num(s.ingest.joins_pinned as f64)),
                (
                    "joins_discovered",
                    Json::num(s.ingest.joins_discovered as f64),
                ),
                ("scan_ms", Json::num(s.ingest.scan_us as f64 / 1e3)),
                ("infer_ms", Json::num(s.ingest.infer_us as f64 / 1e3)),
                ("load_ms", Json::num(s.ingest.load_us as f64 / 1e3)),
                ("discover_ms", Json::num(s.ingest.discover_us as f64 / 1e3)),
            ]),
        ),
    ])
}

fn handle_close(service: &ExplanationService, req: &Json) -> Reply {
    let closed = service.close_session(session_field(req)?);
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("closed", Json::Bool(closed)),
    ]))
}

fn session_field(req: &Json) -> Result<u64, Json> {
    (req.get("session").and_then(Json::as_u64))
        .ok_or_else(|| err("bad_request", "missing numeric field \"session\""))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    fn service_with_tiny_nba() -> ExplanationService {
        let service = ExplanationService::new(ServiceConfig::default());
        let gen = nba::generate(nba::NbaConfig::tiny());
        service.register_database("nba", gen.db, gen.schema_graph);
        service
    }

    const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
         FROM team t, game g, season s \
         WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
           AND t.team = 'GSW' GROUP BY s.season_name";

    /// A failed preview closes only a session its own request opened: a
    /// `preview:false` query opens session 1 on SQL that binds but fails
    /// when executed (a string column summed), the same query with the
    /// preview fails, and session 1 is still open for its client.
    #[test]
    fn a_failed_preview_leaves_a_reused_session_open() {
        let service = ExplanationService::default();
        let register = r#"{"op":"register","db":"nba","dataset":"nba","scale":0.05}"#;
        let registered = handle_line(&service, register);
        assert_eq!(registered.get("ok").and_then(Json::as_bool), Some(true));
        let sql = "SELECT SUM(s.season_name) AS n, s.season_name FROM season s \
                   GROUP BY s.season_name";
        let query = |preview: bool| {
            let line = Json::obj([
                ("op", Json::str("query")),
                ("db", Json::str("nba")),
                ("sql", Json::str(sql)),
                ("preview", Json::Bool(preview)),
            ]);
            handle_line(&service, &line.render())
        };
        let opened = query(false);
        assert_eq!(opened.get("ok").and_then(Json::as_bool), Some(true));
        let session = opened.get("session").and_then(Json::as_u64).unwrap();
        assert_eq!(session, 1);
        let failed = query(true);
        assert_eq!(error_of(&failed).0, Some("pipeline"), "{failed:?}");
        let close = handle_line(&service, r#"{"op":"close","session":1}"#);
        assert_eq!(close.get("closed").and_then(Json::as_bool), Some(true));

        // A failed preview on a session of its own closes it.
        let failed = query(true);
        assert_eq!(error_of(&failed).0, Some("pipeline"), "{failed:?}");
        let close = handle_line(&service, r#"{"op":"close","session":2}"#);
        assert_eq!(close.get("closed").and_then(Json::as_bool), Some(false));
    }

    /// SQL that does not bind opens no session, previewed or not: each
    /// `query` answers `parse` and `stats.open_sessions` stays 0.
    #[test]
    fn sql_that_does_not_bind_opens_no_session() {
        let service = service_with_tiny_nba();
        let sql = "SELECT COUNT(*) AS n, s.nope FROM season s GROUP BY s.nope";
        for preview in [false, true] {
            let line = Json::obj([
                ("op", Json::str("query")),
                ("db", Json::str("nba")),
                ("sql", Json::str(sql)),
                ("preview", Json::Bool(preview)),
            ]);
            let refused = handle_line(&service, &line.render());
            assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(error_of(&refused).0, Some("parse"), "{refused:?}");
            let stats = handle_line(&service, r#"{"op":"stats"}"#);
            let open = stats.get("open_sessions").and_then(Json::as_u64);
            assert_eq!(open, Some(0), "preview {preview}: {stats:?}");
        }
    }

    #[test]
    fn malformed_lines_answer_ok_false() {
        let service = ExplanationService::default();
        for line in ["", "not json", "{}", r#"{"op":"wat"}"#, r#"{"op":"ask"}"#] {
            let resp = handle_line(&service, line);
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(false),
                "{line}"
            );
            // Errors are objects with a stable code + human message.
            let error = resp.get("error").unwrap_or_else(|| panic!("{line}"));
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some("bad_request"),
                "{line}"
            );
            assert!(
                error.get("message").and_then(Json::as_str).is_some(),
                "{line}"
            );
        }
    }

    #[test]
    fn error_codes_follow_the_taxonomy() {
        let service = service_with_tiny_nba();
        let cases = [
            (
                r#"{"op":"query","db":"ghost","sql":"SELECT 1"}"#,
                "unknown_database",
            ),
            (
                r#"{"op":"ask","session":999,"t1":{"a":"b"},"t2":{"a":"c"}}"#,
                "unknown_session",
            ),
            (
                r#"{"op":"query","db":"nba","sql":"NOT SQL AT ALL"}"#,
                "parse",
            ),
            (
                r#"{"op":"register","db":"x","source":"csv_dir","path":"/nonexistent/cajade"}"#,
                "ingest",
            ),
        ];
        for (line, code) in cases {
            let resp = handle_line(&service, line);
            assert_eq!(
                resp.get("ok").and_then(Json::as_bool),
                Some(false),
                "{line}"
            );
            assert_eq!(
                resp.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some(code),
                "{line}: {resp:?}"
            );
        }
    }

    /// `metrics`' `format` and `ask`'s question forms are read, not
    /// defaulted: a present `format` that is not `"json"` or
    /// `"prometheus"` — a number, `null` — is a `bad_request` naming the
    /// field, and `t` beside `t1`/`t2` is a `bad_request` naming both
    /// forms, not a two-point answer.
    #[test]
    fn metrics_format_and_question_forms_are_refused_not_defaulted() {
        let service = service_with_tiny_nba();
        for format in ["5", "null", "true", "{}"] {
            let line = format!(r#"{{"op":"metrics","format":{format}}}"#);
            let resp = handle_line(&service, &line);
            let (code, message) = error_of(&resp);
            assert_eq!(code, Some("bad_request"), "{line}: {resp:?}");
            assert!(message.contains("\"format\""), "{line}: {message}");
        }
        let json = handle_line(&service, r#"{"op":"metrics","format":"json"}"#);
        assert!(json.get("counters").is_some(), "{json:?}");

        let q = format!(r#"{{"op":"query","db":"nba","sql":"{GSW_SQL}","preview":false}}"#);
        let session = handle_line(&service, &q)
            .get("session")
            .and_then(Json::as_u64);
        let session = session.expect("a session");
        let t1 = r#""t1":{"season_name":"2015-16"}"#;
        let t2 = r#""t2":{"season_name":"2012-13"}"#;
        let t = r#""t":{"season_name":"2015-16"}"#;
        for fields in [
            format!("{t1},{t2},{t}"),
            format!(r#"{t1},{t2},"t":null"#),
            format!("{t1},{t}"),
            format!("{t2},{t}"),
            r#""t":5"#.to_string(),
        ] {
            let line = format!(r#"{{"op":"ask","session":{session},{fields}}}"#);
            let resp = handle_line(&service, &line);
            let (code, message) = error_of(&resp);
            assert_eq!(code, Some("bad_request"), "{line}: {resp:?}");
            assert!(
                message.contains("\"t1\"+\"t2\"") && message.contains("\"t\""),
                "{line}: {message}"
            );
        }
        assert_eq!(
            service.obs().asks_total.get(),
            0,
            "no refused question was asked"
        );
    }

    /// The code and message of an error response.
    fn error_of(resp: &Json) -> (Option<&str>, &str) {
        let error = resp.get("error");
        let field = |name| error.and_then(|e| e.get(name)).and_then(Json::as_str);
        (field("code"), field("message").unwrap_or_default())
    }

    /// `timeout_ms` is outside input: not a positive number is a
    /// `bad_request`; too large for `Duration` (`1e300`) or for the clock
    /// (`1e22`) is no deadline — the unbudgeted answer, not a panic. So
    /// are the ask's `trace` and the query's `max_rows` and `preview`:
    /// absent, each takes its default; present with the wrong type, it is
    /// a `bad_request` that names it, never a silent default.
    #[test]
    fn timeout_ms_is_validated_never_trusted() {
        // One fresh service per ask, so no answer comes from a cache.
        // `query_field` goes on the query, `ask_field` on the ask; a
        // refused query is the response.
        let ask = |query_field: &str, ask_field: &str| {
            let service = service_with_tiny_nba();
            let q = handle_line(
                &service,
                &format!(r#"{{"op":"query","db":"nba","sql":"{GSW_SQL}"{query_field}}}"#),
            );
            assert_eq!(service.obs().requests_panicked_total.get(), 0, "{q:?}");
            let Some(session) = q.get("session").and_then(Json::as_u64) else {
                return q;
            };
            let resp = handle_line(
                &service,
                &format!(
                    r#"{{"op":"ask","session":{session},"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}}{ask_field}}}"#
                ),
            );
            assert_eq!(service.obs().requests_panicked_total.get(), 0, "{resp:?}");
            resp
        };
        // Everything of an ask's response but the wall-clock `timings`.
        let answer = |resp: &Json| {
            ["ok", "explanations", "cache", "degraded", "truncated"]
                .map(|field| resp.get(field).map(Json::render))
        };
        let unbudgeted = ask("", "");
        assert!(unbudgeted.get("explanations").is_some(), "{unbudgeted:?}");
        let on_ask =
            |field: &'static str, value: &'static str, accepted| (field, "", value, accepted);
        let on_query =
            |field: &'static str, value: &'static str, accepted| (field, value, "", accepted);
        for (field, query_value, ask_value, accepted) in [
            on_ask("timeout_ms", "0", false),
            on_ask("timeout_ms", "-5", false),
            on_ask("timeout_ms", "\"fast\"", false),
            on_ask("timeout_ms", "null", false),
            on_ask("timeout_ms", "1e300", true),
            on_ask("timeout_ms", "1e22", true),
            on_ask("trace", "false", true),
            on_ask("trace", "1", false),
            on_ask("trace", "\"true\"", false),
            on_ask("trace", "null", false),
            on_query("max_rows", "5", true),
            on_query("max_rows", "0", true),
            on_query("max_rows", "-1", false),
            on_query("max_rows", "2.5", false),
            on_query("max_rows", "\"5\"", false),
            on_query("max_rows", "null", false),
            on_query("preview", "true", true),
            on_query("preview", "0", false),
            on_query("preview", "\"false\"", false),
            on_query("preview", "null", false),
        ] {
            let with = |value: &str| match value {
                "" => String::new(),
                value => format!(r#","{field}":{value}"#),
            };
            let resp = ask(&with(query_value), &with(ask_value));
            let case = format!("{field}={query_value}{ask_value}");
            if accepted {
                assert_eq!(answer(&resp), answer(&unbudgeted), "{case}");
                continue;
            }
            let (code, message) = error_of(&resp);
            assert_eq!(code, Some("bad_request"), "{case}: {resp:?}");
            assert!(
                message.contains(&format!("\"{field}\"")),
                "{case}: {message}"
            );
        }
    }

    /// A `register`'s options are outside input too: a csv_dir's
    /// `max_joins` and `strict`, anything but a non-negative integer or a
    /// bool, and a synthetic source's `scale`, anything but a number, are
    /// a `bad_request` naming the field, never a silent fall-back to the
    /// default.
    #[test]
    fn register_options_are_validated_never_trusted() {
        let register = |option: &str| {
            let service = ExplanationService::default();
            let resp = handle_line(
                &service,
                &format!(
                    r#"{{"op":"register","db":"retail","source":"csv_dir","path":"{}/../../tests/data/retail_csv"{option}}}"#,
                    env!("CARGO_MANIFEST_DIR")
                ),
            );
            assert_eq!(service.obs().requests_panicked_total.get(), 0, "{resp:?}");
            resp
        };
        let discovered = |resp: &Json| {
            let joins = resp.get("ingest").and_then(|i| i.get("joins"));
            let joins = joins.and_then(Json::as_array).expect("joins");
            joins
                .iter()
                .filter(|j| j.get("origin").and_then(Json::as_str) == Some("discovered"))
                .count()
        };
        assert_eq!(discovered(&register("")), 1);
        for (option, accepted) in [
            (r#","max_joins":0"#, true),
            (r#","max_joins":8"#, true),
            (r#","max_joins":-1"#, false),
            (r#","max_joins":2.5"#, false),
            (r#","max_joins":"8""#, false),
            (r#","max_joins":null"#, false),
            (r#","max_joins":1e300"#, false),
            (r#","strict":true"#, true),
            (r#","strict":false"#, true),
            (r#","strict":1"#, false),
            (r#","strict":"true""#, false),
            (r#","strict":null"#, false),
        ] {
            let resp = register(option);
            if accepted {
                assert_eq!(
                    resp.get("ok"),
                    Some(&Json::Bool(true)),
                    "{option}: {resp:?}"
                );
                let want = if option.contains("max_joins\":0") {
                    0
                } else {
                    1
                };
                assert_eq!(discovered(&resp), want, "{option}");
                continue;
            }
            let (code, message) = error_of(&resp);
            assert_eq!(code, Some("bad_request"), "{option}: {resp:?}");
            let field = if option.contains("strict") {
                "strict"
            } else {
                "max_joins"
            };
            assert!(
                message.contains(&format!("\"{field}\"")),
                "{option}: {message}"
            );
        }

        // The synthetic source's `scale`: an accepted one is read, not the
        // default (0.1).
        let rows = |option: &str| {
            let service = ExplanationService::default();
            let line = format!(r#"{{"op":"register","db":"nba","dataset":"nba"{option}}}"#);
            let resp = handle_line(&service, &line);
            assert_eq!(service.obs().requests_panicked_total.get(), 0, "{resp:?}");
            resp.get("rows").and_then(Json::as_u64).ok_or(resp)
        };
        assert!(rows(r#","scale":0.01"#).unwrap() < rows("").unwrap());
        for option in [r#","scale":"0.01""#, r#","scale":null"#, r#","scale":true"#] {
            let resp = rows(option).unwrap_err();
            let (code, message) = error_of(&resp);
            assert_eq!(code, Some("bad_request"), "{option}: {resp:?}");
            assert!(message.contains("\"scale\""), "{option}: {message}");
        }
    }

    #[test]
    fn panicking_request_is_isolated_and_coded() {
        let service = service_with_tiny_nba();
        let query_line = Json::obj([
            ("op", Json::str("query")),
            ("db", Json::str("nba")),
            ("sql", Json::str(GSW_SQL)),
        ])
        .render();
        let q = handle_line(&service, &query_line);
        let session = q.get("session").and_then(Json::as_u64).unwrap();
        let ask = format!(
            r#"{{"op":"ask","session":{session},"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}}}}"#
        );

        let plan = cajade_obs::faults::Plan::parse("serve.request=panic@1").unwrap();
        let resp = plan.install(|| handle_line(&service, &ask));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("internal_panic"),
            "{resp:?}"
        );

        // The service keeps answering after the isolated panic.
        let resp = handle_line(&service, &ask);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        let snap = service.metrics_snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .find(|(k, _)| k == "requests_panicked_total")
                .map(|(_, v)| *v),
            Some(1)
        );
    }

    #[test]
    fn register_query_ask_round_trip() {
        let service = service_with_tiny_nba();

        let query_line = Json::obj([
            ("op", Json::str("query")),
            ("db", Json::str("nba")),
            ("sql", Json::str(GSW_SQL)),
        ])
        .render();
        let q = handle_line(&service, &query_line);
        assert_eq!(q.get("ok").and_then(Json::as_bool), Some(true), "{q:?}");
        let session = q.get("session").and_then(Json::as_u64).unwrap();
        // Re-issuing the same query reuses the session instead of
        // growing the registry.
        let q_again = handle_line(&service, &query_line);
        assert_eq!(q_again.get("session").and_then(Json::as_u64), Some(session));
        assert!(q.get("rows").and_then(Json::as_array).unwrap().len() > 2);

        let ask = format!(
            r#"{{"op":"ask","session":{session},"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}}}}"#
        );
        let a1 = handle_line(&service, &ask);
        assert_eq!(a1.get("ok").and_then(Json::as_bool), Some(true), "{a1:?}");
        assert!(!a1
            .get("explanations")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
        // The `query` op previews through the provenance cache, so even
        // the first ask skips preparation (but must still materialize).
        assert_eq!(
            a1.get("cache")
                .and_then(|c| c.get("provenance"))
                .and_then(Json::as_str),
            Some("hit")
        );
        assert!(
            a1.get("cache")
                .and_then(|c| c.get("apt_misses"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );

        // Second ask: everything question-independent must be a hit.
        let a2 = handle_line(&service, &ask);
        assert_eq!(
            a2.get("cache")
                .and_then(|c| c.get("provenance"))
                .and_then(Json::as_str),
            Some("hit")
        );
        assert_eq!(
            a2.get("cache")
                .and_then(|c| c.get("apt_misses"))
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(
            a1.get("explanations").unwrap().render(),
            a2.get("explanations").unwrap().render(),
            "warm ask returns identical explanations"
        );

        let stats = handle_line(&service, r#"{"op":"stats"}"#);
        assert_eq!(
            stats.get("questions_answered").and_then(Json::as_u64),
            Some(2)
        );

        let close = handle_line(
            &service,
            &format!(r#"{{"op":"close","session":{session}}}"#),
        );
        assert_eq!(close.get("closed").and_then(Json::as_bool), Some(true));
        let again = handle_line(&service, &ask);
        assert_eq!(again.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn register_via_protocol_generates_dataset() {
        let service = ExplanationService::default();
        let resp = handle_line(
            &service,
            r#"{"op":"register","db":"demo","dataset":"nba","scale":0.02}"#,
        );
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        assert!(resp.get("rows").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(service.database_names(), vec!["demo".to_string()]);
    }
}
