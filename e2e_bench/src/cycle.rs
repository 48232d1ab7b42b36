//! Runs one workload cycle against an endpoint — the real server over
//! pipes, or `protocol::handle_line` in-process — timing every op and
//! checking every response.

use std::path::PathBuf;

use cajade_service::json::Json;

use crate::workload::{questions, CorpusKind, CyclePlan, Question, Workload};

/// Something that answers protocol lines. `exchange` returns the parsed
/// response and the milliseconds the op took, as that endpoint defines it.
pub trait Endpoint {
    fn exchange(&mut self, kind: OpKind, request: &str) -> Result<(Json, f64), String>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Register,
    Query,
    ColdAsk,
    WarmAsk,
    RepeatAsk,
    Close,
    /// `stats` / `metrics` probes; never part of a measured cycle's mix
    /// except where the counter pass asks for the heap ledger.
    Probe,
}

pub const OP_KINDS: usize = 7;

/// Extra probes of the counter pass around each cold ask.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleOptions {
    /// Read the `metrics` heap ledger before and after each cold ask.
    pub heap_ledger: bool,
    /// Send cold asks with `trace:true`.
    pub trace_flag: bool,
}

/// FNV-1a over the pattern, join graph and F-score of every explanation
/// of every cold and warm ask, in op order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01B3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(0x1_0000_0000_01B3);
    }
}

/// Heap-ledger deltas around one cold ask.
#[derive(Debug, Clone, Copy)]
pub struct HeapDelta {
    pub allocated_bytes: f64,
    pub allocated_blocks: f64,
}

/// Everything the ops of a run left behind.
#[derive(Debug, Default)]
pub struct RunLog {
    /// Latency samples in ms, indexed by `OpKind as usize`.
    pub samples: [Vec<f64>; OP_KINDS],
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure messages, for the operator.
    pub failures: Vec<String>,
    pub digest: Digest,
    /// Sum of `invalidated_entries` over the register responses.
    pub invalidated_entries: u64,
    /// Sums of the `ask.pipeline` counters over cold asks.
    pub graphs_mined: u64,
    pub cold_patterns_evaluated: u64,
    /// Sum of `ask.pipeline.patterns_evaluated` over warm asks.
    pub warm_patterns_evaluated: u64,
    pub heap_deltas: Vec<HeapDelta>,
    pub heap_peak_live_bytes: f64,
}

impl RunLog {
    pub fn of(&self, kind: OpKind) -> &[f64] {
        &self.samples[kind as usize]
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Multiplies every latency sample by `by`.
    pub fn scale_samples(&mut self, by: f64) {
        for s in self.samples.iter_mut().flatten() {
            *s *= by;
        }
    }

    /// Adds another log's attempted and failed ops, and its failure
    /// messages, without pooling its samples.
    pub fn merge_counts(&mut self, other: &RunLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
        self.failures.truncate(8);
    }

    /// Pools another round's samples and counters into this one.
    pub fn merge(&mut self, other: RunLog) {
        self.merge_counts(&other);
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        self.digest.feed(&other.digest.0.to_le_bytes());
        self.invalidated_entries += other.invalidated_entries;
        self.graphs_mined += other.graphs_mined;
        self.cold_patterns_evaluated += other.cold_patterns_evaluated;
        self.warm_patterns_evaluated += other.warm_patterns_evaluated;
        self.heap_deltas.extend(other.heap_deltas);
        self.heap_peak_live_bytes = self.heap_peak_live_bytes.max(other.heap_peak_live_bytes);
    }
}

fn json_escape(s: &str) -> String {
    Json::str(s).render()
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

fn path_u64(resp: &Json, a: &str, b: &str) -> Option<u64> {
    resp.get(a)?.get(b)?.as_u64()
}

/// The group-by column's values in the `query` response, in row order.
fn group_values(resp: &Json, group_col: &str) -> Option<Vec<String>> {
    let col = resp
        .get("columns")?
        .as_array()?
        .iter()
        .position(|c| c.as_str() == Some(group_col))?;
    resp.get("rows")?
        .as_array()?
        .iter()
        .map(|row| Some(row.as_array()?.get(col)?.as_str()?.to_string()))
        .collect()
}

fn heap_field(metrics: &Json, field: &str) -> Option<f64> {
    metrics.get("memory")?.get("heap")?.get(field)?.as_f64()
}

struct Runner<'a> {
    ep: &'a mut dyn Endpoint,
    log: &'a mut RunLog,
}

impl Runner<'_> {
    /// Sends one op; a response that is not `ok` is a failed op. `Err` is
    /// a transport failure (server dead, op timed out) and ends the run.
    fn op(&mut self, kind: OpKind, request: &str) -> Result<Option<Json>, String> {
        self.log.attempted += 1;
        let (resp, ms) = match self.ep.exchange(kind, request) {
            Ok(r) => r,
            Err(e) => {
                self.log.fail(format!("{kind:?}: {e}"));
                return Err(e);
            }
        };
        self.log.samples[kind as usize].push(ms);
        if is_ok(&resp) {
            Ok(Some(resp))
        } else {
            self.log.fail(format!("{kind:?} not ok: {}", resp.render()));
            Ok(None)
        }
    }

    fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.log.fail(what());
        }
    }
}

/// The checks every cold or warm ask response must pass, and the digest.
fn check_ask(r: &mut Runner<'_>, w: &Workload, kind: OpKind, question: &Question, resp: &Json) {
    let cache = |field: &str| path_u64(resp, "cache", field);
    let answer = resp
        .get("cache")
        .and_then(|c| c.get("answer"))
        .and_then(Json::as_str);
    match kind {
        OpKind::ColdAsk => {
            r.check(answer == Some("miss"), || {
                "cold ask hit the answer cache".into()
            });
            r.check(cache("apt_misses").is_some_and(|m| m > 0), || {
                "cold ask materialized no APT".into()
            });
        }
        OpKind::WarmAsk => {
            r.check(answer == Some("miss"), || {
                "warm ask hit the answer cache".into()
            });
            r.check(cache("apt_misses") == Some(0), || {
                format!("warm ask missed {:?} cached APTs", cache("apt_misses"))
            });
        }
        _ => {
            r.check(answer == Some("hit"), || {
                "repeat ask missed the answer cache".into()
            });
        }
    }
    let explanations = resp
        .get("explanations")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    r.check(!explanations.is_empty(), || {
        format!("{question:?}: no explanation")
    });
    if kind == OpKind::RepeatAsk {
        return;
    }
    for e in explanations {
        for field in ["pattern", "join_graph"] {
            r.log
                .digest
                .feed(e.get(field).and_then(Json::as_str).unwrap_or("").as_bytes());
        }
        let f = e.get("f_score").and_then(Json::as_f64).unwrap_or(f64::NAN);
        r.log.digest.feed(&f.to_bits().to_le_bytes());
    }
    // The story `datagen::synth` plants: `g0` rows carry a higher `val`,
    // so any question about `g0` must rank a `val` predicate on top. Against
    // one other group it separates almost perfectly; against all three at
    // once (single-point) the overlap caps the F-score near 0.88.
    if w.corpus == CorpusKind::Synth && question.involves("g0") {
        let floor = match question {
            Question::TwoPoint(..) => 0.9,
            Question::SinglePoint(_) => 0.85,
        };
        let top = explanations.first();
        let f_score = top.and_then(|e| e.get("f_score")).and_then(Json::as_f64);
        let on_val = top
            .and_then(|e| e.get("predicates"))
            .and_then(Json::as_array)
            .is_some_and(|preds| {
                preds.iter().any(|p| {
                    p.as_array()
                        .and_then(|p| p.first())
                        .and_then(Json::as_str)
                        .is_some_and(|attr| attr.contains("val"))
                })
            });
        r.check(f_score.is_some_and(|f| f >= floor) && on_val, || {
            format!("{question:?}: planted `val` story not on top (f_score {f_score:?})")
        });
    }
}

/// Runs one cycle: `register`, then per session `query`, cold `ask`,
/// warm asks, repeat asks and `close`.
pub fn run_cycle(
    ep: &mut dyn Endpoint,
    w: &Workload,
    plan: &CyclePlan,
    corpora: &[PathBuf; 2],
    opts: CycleOptions,
    log: &mut RunLog,
) -> Result<(), String> {
    let mut r = Runner { ep, log };
    let register = format!(
        "{{\"op\":\"register\",\"db\":\"bench\",\"source\":\"csv_dir\",\"path\":{}}}",
        json_escape(&corpora[plan.corpus].to_string_lossy())
    );
    match r.op(OpKind::Register, &register)? {
        Some(resp) => {
            r.log.invalidated_entries += resp
                .get("invalidated_entries")
                .and_then(Json::as_u64)
                .unwrap_or(0);
        }
        None => return Ok(()),
    }
    for session in &plan.sessions {
        let query = format!(
            "{{\"op\":\"query\",\"db\":\"bench\",\"sql\":{}}}",
            json_escape(&session.sql)
        );
        let Some(resp) = r.op(OpKind::Query, &query)? else {
            continue;
        };
        let id = resp.get("session").and_then(Json::as_u64);
        let values = group_values(&resp, session.group_col);
        let (Some(id), Some(values)) = (id, values) else {
            r.log.fail(format!(
                "query response lacks session or rows: {}",
                resp.render()
            ));
            continue;
        };
        let qs = questions(&values, session.question_seed);
        let asked = qs.len().min(1 + w.warm_asks);
        for (i, q) in qs[..asked].iter().enumerate() {
            let kind = if i == 0 {
                OpKind::ColdAsk
            } else {
                OpKind::WarmAsk
            };
            let before = match kind == OpKind::ColdAsk && opts.heap_ledger {
                true => r.op(OpKind::Probe, "{\"op\":\"metrics\"}")?,
                false => None,
            };
            let trace = match kind == OpKind::ColdAsk && opts.trace_flag {
                true => ",\"trace\":true",
                false => "",
            };
            let ask = format!(
                "{{\"op\":\"ask\",\"session\":{id}{trace},{}}}",
                q.render(session.group_col)
            );
            let Some(resp) = r.op(kind, &ask)? else {
                continue;
            };
            check_ask(&mut r, w, kind, q, &resp);
            let pipeline = |field: &str| path_u64(&resp, "pipeline", field).unwrap_or(0);
            if kind == OpKind::ColdAsk {
                r.log.graphs_mined += pipeline("graphs_mined");
                r.log.cold_patterns_evaluated += pipeline("patterns_evaluated");
            } else {
                r.log.warm_patterns_evaluated += pipeline("patterns_evaluated");
            }
            if let Some(before) = before {
                if let Some(after) = r.op(OpKind::Probe, "{\"op\":\"metrics\"}")? {
                    let delta = |f: &str| Some(heap_field(&after, f)? - heap_field(&before, f)?);
                    match (delta("allocated_bytes"), delta("allocated_blocks")) {
                        (Some(allocated_bytes), Some(allocated_blocks)) => {
                            r.log.heap_deltas.push(HeapDelta {
                                allocated_bytes,
                                allocated_blocks,
                            });
                            r.log.heap_peak_live_bytes = r
                                .log
                                .heap_peak_live_bytes
                                .max(heap_field(&after, "peak_live_bytes").unwrap_or(0.0));
                        }
                        _ => r.log.fail("metrics response lacks memory.heap".into()),
                    }
                }
            }
        }
        for i in 0..w.repeats {
            let q = &qs[i % asked];
            let ask = format!(
                "{{\"op\":\"ask\",\"session\":{id},{}}}",
                q.render(session.group_col)
            );
            if let Some(resp) = r.op(OpKind::RepeatAsk, &ask)? {
                check_ask(&mut r, w, OpKind::RepeatAsk, q, &resp);
            }
        }
        let close = format!("{{\"op\":\"close\",\"session\":{id}}}");
        if let Some(resp) = r.op(OpKind::Close, &close)? {
            r.check(
                resp.get("closed").and_then(Json::as_bool) == Some(true),
                || "close did not close the session".into(),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_values_follow_the_response_rows() {
        let resp = Json::parse(
            r#"{"ok":true,"session":3,"columns":["n","grp"],"rows":[["5","g1"],["7","g0"]]}"#,
        )
        .unwrap();
        assert_eq!(
            group_values(&resp, "grp"),
            Some(vec!["g1".to_string(), "g0".to_string()])
        );
        assert_eq!(group_values(&resp, "missing"), None);
    }

    #[test]
    fn digest_separates_fields_and_depends_on_order() {
        let mut a = Digest::default();
        a.feed(b"ab");
        a.feed(b"c");
        let mut b = Digest::default();
        b.feed(b"a");
        b.feed(b"bc");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.feed(b"ab");
        c.feed(b"c");
        assert_eq!(a, c);
    }
}
