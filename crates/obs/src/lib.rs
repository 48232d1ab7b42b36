//! # cajade-obs
//!
//! The unified telemetry layer: structured tracing spans, log-bucketed
//! latency histograms, and a registry of named counters/gauges/histograms.
//! Every number the paper's runtime-breakdown figures (Fig. 7, Fig. 9c/9d)
//! report — and every tail-latency percentile the production-serving
//! roadmap demands — flows through this crate.
//!
//! Zero external dependencies (std only), consistent with the offline
//! `crates/compat` policy: nothing here can pull the build onto the
//! network.
//!
//! The modules:
//!
//! * [`trace`] — RAII span guards ([`trace::span`]) over
//!   thread-local span stacks with monotonically
//!   assigned trace/span ids. When neither a sink nor a per-request
//!   [`trace::Collector`] is active, creating a span is a couple of
//!   atomic/TLS loads (~ns) and records nothing. A pluggable
//!   [`trace::TraceSink`] emits JSON-lines events, gated by the
//!   `CAJADE_TRACE` env var ([`init_from_env`]).
//! * [`hist`] — HDR-style log-bucketed [`hist::Histogram`]s: lock-free
//!   recording, p50/p90/p99/p999 estimation with
//!   a bounded relative error (≤ 1/32, pinned by a unit test).
//! * [`registry`] — a [`registry::Registry`] of named counters, gauges,
//!   and histograms with a JSON-friendly snapshot and a Prometheus-style
//!   text exposition renderer. [`global`] returns the process-wide
//!   instance; services may also carry their own (test isolation).
//! * [`budget`] — per-request deadlines, checked cooperatively:
//!   a [`budget::Budget`] installed around a request makes
//!   [`budget::stop`] checks inside the pipeline's loops report expiry
//!   and record which phases truncated. Disabled path: one TLS load.
//! * [`faults`] — fault injection: a [`faults::Plan`] installed around
//!   a request panics, fails or stalls it at named failpoints, for
//!   robustness tests. Disabled path: one TLS load.
//! * [`rss`] — process-memory watermarks (current/peak RSS from
//!   `/proc/self/status` on Linux), mirrored into the registry as
//!   gauges so every metrics snapshot carries the memory high-water
//!   mark.
//! * [`alloc`] — heap attribution: a tracking [`alloc::TrackingAlloc`]
//!   global allocator (opt-in per binary) with global/thread/scoped
//!   byte ledgers. [`alloc::AllocScope::enter`] guards attribute bytes
//!   to pipeline stages, mining phases, ingest stages, and caches;
//!   traced spans carry per-span `alloc_bytes`/`peak_bytes` deltas.
//! * [`ctx`] — what a pipeline stage uses of all of the above: [`Ctx`]
//!   carries a request's tracing position, budget, fault plan and
//!   alloc-scope chain onto worker threads in one hop; [`Stage`] opens a
//!   stage's span and alloc scope off one clock reading and returns its
//!   wall time.
//!
//! The span taxonomy and metric names used across the workspace are
//! documented in `docs/OBSERVABILITY.md`; budget/degradation semantics
//! and the failpoint site catalog live in `docs/ROBUSTNESS.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod budget;
pub mod ctx;
pub mod faults;
pub mod hist;
mod local;
pub mod registry;
pub mod rss;
pub mod trace;

pub use alloc::{AllocScope, ScopeHandle, TrackingAlloc};
pub use budget::Budget;
pub use ctx::{Ctx, Stage};
pub use hist::{HistSnapshot, Histogram};
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use rss::{current_rss_bytes, peak_rss_bytes, record_rss, reset_peak_rss};
pub use trace::{span, Collector, Level, SpanGuard, SpanRecord, TraceSink};

use std::sync::{Arc, OnceLock};

// The obs unit-test binary runs under the tracking allocator so the
// alloc-ledger tests observe real attribution.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc;

/// Serializes the unit tests that allocate tens of MB or reset global
/// watermarks, so their asserts don't race each other's spikes.
#[cfg(test)]
pub(crate) fn big_alloc_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The process-wide registry. Binaries (the serve and bench front ends)
/// report through this instance; library code takes a `&Registry` so
/// tests can isolate their counters.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// Reads `CAJADE_TRACE` and installs a JSON-lines stderr sink at the
/// requested level. Idempotent; call it once at binary startup.
///
/// | value | effect |
/// |---|---|
/// | unset, empty, `0`, `off` | tracing disabled (the default; span guards are inert) |
/// | `1`, `spans` | coarse request/stage spans emitted as JSON lines on stderr |
/// | `2`, `detail`, `all` | adds per-phase spans (mining phases, ingest stages) |
///
/// Any other value aborts startup loudly rather than silently tracing
/// nothing.
pub fn init_from_env() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let value = std::env::var_os("CAJADE_TRACE").unwrap_or_default();
        let level = match parse_trace_level(&value.to_string_lossy()) {
            Ok(level) => level,
            Err(e) => panic!("invalid CAJADE_TRACE: {e}"),
        };
        if level != Level::Off {
            trace::set_sink(Arc::new(trace::JsonLinesSink::stderr()), level);
        }
    });
}

/// Parses a `CAJADE_TRACE` value (unset reads as empty); anything
/// [`init_from_env`] does not list is an error naming the accepted values.
fn parse_trace_level(value: &str) -> Result<Level, String> {
    match value {
        "" | "0" | "off" => Ok(Level::Off),
        "1" | "spans" => Ok(Level::Spans),
        "2" | "detail" | "all" => Ok(Level::Detail),
        other => Err(format!(
            "{other:?} (expected one of 0, off, 1, spans, 2, detail, all)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_levels_parse_and_unknown_values_are_rejected() {
        for (value, level) in [
            ("", Level::Off),
            ("0", Level::Off),
            ("off", Level::Off),
            ("1", Level::Spans),
            ("spans", Level::Spans),
            ("2", Level::Detail),
            ("detail", Level::Detail),
            ("all", Level::Detail),
        ] {
            assert_eq!(parse_trace_level(value), Ok(level), "{value:?}");
        }
        for value in ["true", "3", "on", "SPANS", " 1"] {
            let err = parse_trace_level(value).unwrap_err();
            assert!(err.contains(&format!("{value:?}")), "{err}");
        }
    }
}
