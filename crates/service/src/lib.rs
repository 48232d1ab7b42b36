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
//!   (each with its registration epoch and the statistics of its base
//!   columns), a session registry, and the one cache, all under the one
//!   parameter set of [`ServiceConfig::params`];
//! * the provenance cache keyed by `(epoch, canonical SQL)` — one
//!   [`QueryEntry`] per query: provenance, enumeration, one
//!   [`PreparedGraph`] per join graph an ask has prepared, and one ranked
//!   answer per question asked, which a repeat returns without running
//!   any pipeline stage — with LRU eviction of whole queries under a byte
//!   budget;
//! * [`SessionHandle::ask`] — answers a [`cajade_core::UserQuestion`],
//!   materializing and preparing only cache-missed join graphs (in
//!   parallel) and always re-mining, because mining is question-specific;
//! * one epoch per `register` call: re-registering a name, whatever its
//!   content, takes a new epoch and sweeps every cache entry of the
//!   replaced registration, whose column statistics are dropped with it.
//!
//! The `cajade-serve` binary (this crate's `src/bin/serve.rs`) exposes
//! the service over a JSON-lines stdin/stdout protocol
//! (`register` / `query` / `ask` / `stats` / `metrics` / `close`).
//!
//! Telemetry: every service records into a `cajade-obs`
//! [`Registry`](cajade_obs::Registry) ([`ServiceConfig::registry`]) —
//! the whole-ask latency histogram, per-cache counters and the
//! deterministic work counters — exported via
//! [`ExplanationService::metrics_snapshot`] and the protocol's `metrics`
//! op. [`SessionHandle::ask_traced`] additionally captures a per-request
//! span tree. Names and taxonomy: `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods)]

pub mod cache;
mod error;
pub mod json;
mod keys;
mod obs;
pub mod protocol;
mod service;
mod session;
mod stats;

pub use cache::{CacheObs, CacheStats};
pub use cajade_core::pipeline::PreparedGraph;
pub use error::{ServiceError, ERROR_CODES};
pub use keys::ProvKey;
pub use service::{ExplanationService, QueryEntry, RegisterOutcome, RegisteredDb, ServiceConfig};
pub use session::{AskOptions, AskResult, SessionHandle};
pub use stats::{IngestStats, ServiceStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServiceError>;
