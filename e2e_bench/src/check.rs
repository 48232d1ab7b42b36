//! `--check`: two full sets of the same build must agree — end-to-end
//! metrics within the bounds `BENCHMARK.json` fixes, answers and counts
//! exactly.

use cajade_service::json::Json;

use crate::report::WorkloadResult;

/// Blocks allocated per cold ask may differ by this share between two
/// sets of one build (thread scheduling moves a few small allocations).
const ALLOC_BLOCKS_TOLERANCE: f64 = 1e-4;

pub struct EndToEndSpec {
    pub name: String,
    pub unit: String,
    /// Share of the baseline by which the metric may get worse.
    pub bound: f64,
    pub lower_is_better: bool,
}

/// The parts of `BENCHMARK.json` the harness must agree with: it is the
/// one place the names and bounds are written down.
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<EndToEndSpec>,
    /// `(name, unit)` of every per-layer metric.
    pub per_layer: Vec<(String, String)>,
}

impl Manifest {
    /// Reads `BENCHMARK.json` from the working directory.
    pub fn read() -> Result<Manifest, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
        Manifest::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
        };
        let text_of = |entry: &Json, field: &str| {
            entry
                .get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{field}`"))
        };
        Ok(Manifest {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| {
                    Ok(EndToEndSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        bound: m
                            .get("bound")
                            .and_then(Json::as_f64)
                            .ok_or("BENCHMARK.json: an end_to_end entry lacks `bound`")?,
                        lower_is_better: text_of(m, "better")? == "lower",
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Every way two sets of the same build disagree, and every way either
/// disagrees with the manifest. Empty when the check passes.
pub fn compare_sets(
    manifest: &Manifest,
    a: &[WorkloadResult],
    b: &[WorkloadResult],
) -> Vec<String> {
    let mut problems = Vec::new();
    let ran: Vec<&str> = a.iter().map(|r| r.name).collect();
    if manifest.workloads != ran {
        problems.push(format!("workloads {ran:?} differ from BENCHMARK.json"));
    }
    for (ra, rb) in a.iter().zip(b) {
        for spec in &manifest.end_to_end {
            let (Some(x), Some(y)) = (ra.value(&spec.name), rb.value(&spec.name)) else {
                problems.push(format!("{} {}: not reported", ra.name, spec.name));
                continue;
            };
            if x.unit != spec.unit {
                problems.push(format!(
                    "{} {}: unit {} is not {}",
                    ra.name, spec.name, x.unit, spec.unit
                ));
            }
            let ratio = if spec.lower_is_better {
                y.value / x.value
            } else {
                x.value / y.value
            };
            if (ratio - 1.0).abs() > spec.bound {
                problems.push(format!(
                    "{} {}: {:.4} vs {:.4} {} differ by more than {:.0} %",
                    ra.name,
                    spec.name,
                    x.value,
                    y.value,
                    x.unit,
                    spec.bound * 100.0
                ));
            }
        }
        let reported: Vec<(String, String)> = ra
            .per_layer
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        if reported != manifest.per_layer {
            problems.push(format!(
                "{}: per-layer metrics differ from BENCHMARK.json",
                ra.name
            ));
        }
        if ra.answers_digest != rb.answers_digest {
            problems.push(format!("{} answers_digest differs", ra.name));
        }
        for (x, y) in ra.per_layer.iter().zip(&rb.per_layer) {
            let same = if x.name == "obs.alloc_blocks_per_cold_ask" {
                (x.value - y.value).abs() <= ALLOC_BLOCKS_TOLERANCE * x.value
            } else {
                x.unit != "count" || x.value == y.value
            };
            if !same {
                problems.push(format!(
                    "{} {}: {} vs {} {}",
                    ra.name, x.name, x.value, y.value, x.unit
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::OP_KINDS;
    use crate::piped::Round;
    use crate::report::{end_to_end, Reported};
    use crate::workload::WORKLOADS;

    fn committed_manifest() -> Manifest {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Manifest::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn manifest_names_the_workloads_and_end_to_end_metrics_the_harness_emits() {
        let manifest = committed_manifest();
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(manifest.workloads, workloads);

        let mut round = Round {
            wall_s: 1.0,
            measured_ops: 5,
            setup_s: vec![1.0],
            ..Round::default()
        };
        for kind in 0..OP_KINDS {
            round.log.samples[kind].push(1.0);
        }
        let emitted: Vec<(String, String)> = end_to_end(&round)
            .unwrap()
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let declared: Vec<(String, String)> = manifest
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        assert_eq!(emitted, declared);
        assert!(manifest
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    fn result(value: f64, blocks: f64, digest: u64) -> WorkloadResult {
        let metric = |name, value, unit| Reported {
            name,
            value,
            unit,
            summary: None,
        };
        WorkloadResult {
            name: "w",
            end_to_end: vec![metric("latency_ms", value, "ms")],
            speed_factor: 1.0,
            per_layer: vec![
                metric("layer.rows", 7.0, "count"),
                metric("obs.alloc_blocks_per_cold_ask", blocks, "count"),
            ],
            answers_digest: digest,
            attempted: 1,
            failed: 0,
            failures: Vec::new(),
        }
    }

    #[test]
    fn compare_sets_applies_bounds_and_exact_counts() {
        let manifest = Manifest {
            workloads: vec!["w".into()],
            end_to_end: vec![EndToEndSpec {
                name: "latency_ms".into(),
                unit: "ms".into(),
                bound: 0.1,
                lower_is_better: true,
            }],
            per_layer: vec![
                ("layer.rows".into(), "count".into()),
                ("obs.alloc_blocks_per_cold_ask".into(), "count".into()),
            ],
        };
        let base = [result(100.0, 1_000_000.0, 9)];
        assert!(compare_sets(&manifest, &base, &[result(108.0, 1_000_050.0, 9)]).is_empty());
        let slower = compare_sets(&manifest, &base, &[result(120.0, 1_000_000.0, 9)]);
        assert_eq!(slower.len(), 1, "{slower:?}");
        let other_answers = compare_sets(&manifest, &base, &[result(100.0, 1_000_000.0, 8)]);
        assert_eq!(other_answers.len(), 1, "{other_answers:?}");
        let more_blocks = compare_sets(&manifest, &base, &[result(100.0, 1_001_000.0, 9)]);
        assert_eq!(more_blocks.len(), 1, "{more_blocks:?}");
    }
}
