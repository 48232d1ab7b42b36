//! # cajade-service
//!
//! The interactive explanation service layer over the CaJaDE pipeline.
//!
//! CaJaDE sessions are interactive (paper §2.4): a user runs one query,
//! then asks many successive questions about its answers. The one-shot
//! [`cajade_core::ExplanationSession`] recomputes provenance, join-graph
//! enumeration, and APT materialization — the dominant costs of the
//! paper's Fig. 10 runtime breakdown — on every question. This crate
//! keeps those stage outputs in keyed caches so the second and later
//! questions skip straight to mining:
//!
//! * [`ExplanationService`] — thread-safe catalog of registered databases
//!   (with content fingerprints, registration epochs and the statistics
//!   of their base columns), a session registry, and the two caches,
//!   all under the one parameter set of [`ServiceConfig::params`];
//! * provenance cache keyed by `(epoch, canonical SQL)` — one
//!   [`QueryEntry`] per query: provenance, enumeration and, per join
//!   graph an ask has prepared, one [`PreparedGraph`] (the view and its
//!   mining preparation) — with LRU eviction under a byte budget;
//! * answer cache keyed by `(epoch, canonical SQL, canonical
//!   question)` — a repeated question returns its fully-ranked
//!   explanations without running any pipeline stage (this reproduction's
//!   mining stage dominates the runtime profile, so skipping only
//!   preparation is not enough for interactive-grade warm latency);
//! * [`SessionHandle::ask`] — answers a [`cajade_core::UserQuestion`],
//!   materializing and preparing only cache-missed join graphs (in
//!   parallel) and always re-mining, because mining is question-specific;
//! * re-registering a database with different content or a different
//!   schema graph advances its epoch and sweeps every stale cache entry; the replaced registration's
//!   column statistics are dropped with it.
//!
//! The `cajade-serve` binary (this crate's `src/bin/serve.rs`) exposes
//! the service over a JSON-lines stdin/stdout protocol
//! (`register` / `query` / `ask` / `stats` / `metrics` / `close`).
//!
//! Telemetry: every service records into a `cajade-obs`
//! [`Registry`](cajade_obs::Registry) ([`ServiceConfig::registry`]) —
//! ask/stage/mining-phase latency histograms, per-cache counters, and
//! ingest stage timings — exported via
//! [`ExplanationService::metrics_snapshot`] and the protocol's `metrics`
//! op. [`SessionHandle::ask_traced`] additionally captures a per-request
//! span tree. Names and taxonomy: `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]

pub mod cache;
mod colstats;
mod error;
pub mod json;
mod keys;
mod obs;
pub mod protocol;
mod service;
mod session;
mod stats;

pub use cache::{CacheObs, CacheStats};
pub use error::{ServiceError, ERROR_CODES};
pub use keys::{AnswerKey, ProvKey};
pub use service::{
    ExplanationService, PreparedGraph, QueryEntry, RegisterOutcome, RegisteredDb, ServiceConfig,
};
pub use session::{AskOptions, AskResult, SessionHandle};
pub use stats::{IngestStats, ServiceStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServiceError>;
