//! Turns rounds and traced passes into named metrics and renders them:
//! the one-line result the benchmark contract asks for, the
//! `workload metric value unit` table, and `results.json`.

use std::collections::BTreeMap;

use cajade_service::json::Json;

use crate::cycle::OpKind;
use crate::piped::Round;
use crate::stats::{median, summarize, Summary};
use crate::traced::TracedPass;

/// One reported number. Latency metrics also carry their sample count
/// and supported tail; only `value` is ever gated. End-to-end times are
/// at reference machine speed (see `calib`).
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub summary: Option<Summary>,
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Every workload
/// runs every op kind, so every workload reports every one.
pub fn end_to_end(round: &Round) -> Result<Vec<Reported>, String> {
    let latency = |name: &'static str, kind: OpKind| -> Result<Reported, String> {
        let summary = summarize(round.log.of(kind)).ok_or_else(|| format!("no {kind:?} sample"))?;
        Ok(Reported {
            name,
            value: summary.p50,
            unit: "ms",
            summary: Some(summary),
        })
    };
    let plain = |name: &'static str, value: f64, unit: &'static str| Reported {
        name,
        value,
        unit,
        summary: None,
    };
    if round.setup_s.is_empty() || round.wall_s <= 0.0 {
        return Err("round measured nothing".to_string());
    }
    Ok(vec![
        plain("setup_s", median(&round.setup_s), "s"),
        latency("register_ms_p50", OpKind::Register)?,
        latency("query_ms_p50", OpKind::Query)?,
        latency("cold_ask_ms_p50", OpKind::ColdAsk)?,
        latency("warm_ask_ms_p50", OpKind::WarmAsk)?,
        plain("ops_per_s", round.measured_ops as f64 / round.wall_s, "1/s"),
    ])
}

pub fn per_layer(pass: &TracedPass) -> Vec<Reported> {
    pass.metrics
        .iter()
        .map(|&(name, value, unit)| Reported {
            name,
            value,
            unit,
            summary: None,
        })
        .collect()
}

fn metric_json(m: &Reported, with_summary: bool) -> Json {
    let mut fields = vec![("value", Json::num(m.value)), ("unit", Json::str(m.unit))];
    if let (Some(s), true) = (&m.summary, with_summary) {
        fields.push(("n", Json::num(s.n as f64)));
        fields.push(("tail", Json::num(s.tail)));
        fields.push(("tail_pct", Json::num(s.tail_pct)));
    }
    Json::obj(fields)
}

fn metrics_json(metrics: &[Reported], with_summary: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), metric_json(m, with_summary)))
            .collect(),
    )
}

/// The single JSON object the benchmark contract wants as the last line
/// of standard output.
pub fn contract_line(metrics: &[Reported], attempted: usize, failed: usize) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics_json(metrics, false)),
    ])
    .render()
}

/// Everything one set of runs measured for one workload.
pub struct WorkloadResult {
    pub name: &'static str,
    pub end_to_end: Vec<Reported>,
    /// Median machine-speed factor of the measured cycles: the end-to-end
    /// times are at reference speed, raw time = value × this.
    pub speed_factor: f64,
    pub per_layer: Vec<Reported>,
    pub answers_digest: u64,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
}

impl WorkloadResult {
    pub fn value(&self, metric: &str) -> Option<&Reported> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == metric)
    }
}

/// `workload metric value unit`, one line per metric.
pub fn table(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    for r in results {
        for m in r.end_to_end.iter().chain(&r.per_layer) {
            out.push_str(&format!(
                "{} {} {:.4} {}\n",
                r.name, m.name, m.value, m.unit
            ));
        }
        out.push_str(&format!(
            "{} speed_factor {:.4} ratio\n{} answers_digest {:016x} hash\n",
            r.name, r.speed_factor, r.name, r.answers_digest
        ));
    }
    out
}

pub fn results_json(seed: u64, results: &[WorkloadResult]) -> Json {
    let workloads: BTreeMap<String, Json> = results
        .iter()
        .map(|r| {
            let body = Json::obj([
                ("end_to_end", metrics_json(&r.end_to_end, true)),
                ("speed_factor", Json::num(r.speed_factor)),
                ("per_layer", metrics_json(&r.per_layer, true)),
                (
                    "answers_digest",
                    Json::str(format!("{:016x}", r.answers_digest)),
                ),
                ("attempted", Json::num(r.attempted as f64)),
                ("failed", Json::num(r.failed as f64)),
            ]);
            (r.name.to_string(), body)
        })
        .collect();
    Json::obj([
        ("seed", Json::num(seed as f64)),
        (
            "available_parallelism",
            Json::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", Json::Obj(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let m = [Reported {
            name: "latency_ms",
            value: 1.25,
            unit: "ms",
            summary: None,
        }];
        let parsed = Json::parse(&contract_line(&m, 10, 0)).unwrap();
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        let metric = parsed.get("metrics").unwrap().get("latency_ms").unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("ms"));
        let failed = Json::parse(&contract_line(&m, 10, 2)).unwrap();
        assert_eq!(failed.get("correct").and_then(Json::as_bool), Some(false));
    }
}
