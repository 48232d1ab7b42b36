//! # cajade — facade crate
//!
//! A from-scratch Rust reproduction of **CaJaDE** (Context-Aware
//! Join-Augmented Deep Explanations) from *"Putting Things into Context:
//! Rich Explanations for Query Answers using Join Graphs"* (SIGMOD 2021).
//!
//! This crate re-exports the whole workspace behind one dependency:
//!
//! * [`storage`] — in-memory columnar relational store,
//! * [`query`] — SPJA executor, SQL parser, why-provenance,
//! * [`graph`] — schema graphs, join-graph enumeration, APTs,
//! * [`ml`] — random forests, attribute clustering, samplers,
//! * [`mining`] — summarization-pattern mining (Algorithm 1),
//! * [`metrics`] — NDCG / Kendall-tau ranking metrics,
//! * [`ingest`] — CSV-directory ingestion: type/key inference,
//!   manifests, auto-discovered schema graphs,
//! * [`datagen`] — synthetic NBA and MIMIC datasets,
//! * [`baselines`] — Explanation Tables, CAPE, provenance-only,
//! * [`core`] — the end-to-end [`core::ExplanationSession`],
//! * [`service`] — the interactive explanation service: session
//!   registry, one cache of query entries (provenance, prepared join
//!   graphs, answers), and the `cajade-serve`
//!   JSON-lines binary.
//!
//! ## Quickstart
//!
//! ```
//! use cajade::prelude::*;
//!
//! // Tiny NBA database with the paper's planted story.
//! let nba = cajade::datagen::nba::generate(NbaConfig::tiny());
//! let query = parse_sql(
//!     "SELECT count(*) AS win, s.season_name FROM team t, game g, season s \
//!      WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
//!        AND t.team = 'GSW' GROUP BY s.season_name",
//! ).unwrap();
//!
//! let session = ExplanationSession::new(&nba.db, &nba.schema_graph, Params::fast());
//! let result = session
//!     .explain_between(&query, &[("season_name", "2015-16")], &[("season_name", "2012-13")])
//!     .unwrap();
//! assert!(!result.explanations.is_empty());
//! ```

#![deny(clippy::disallowed_methods)]

pub use cajade_baselines as baselines;
pub use cajade_core as core;
pub use cajade_datagen as datagen;
pub use cajade_graph as graph;
pub use cajade_ingest as ingest;
pub use cajade_metrics as metrics;
pub use cajade_mining as mining;
pub use cajade_ml as ml;
pub use cajade_query as query;
pub use cajade_service as service;
pub use cajade_storage as storage;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use cajade_core::{ExplanationSession, Params, SelAttr, UserQuestion};
    pub use cajade_datagen::mimic::MimicConfig;
    pub use cajade_datagen::nba::NbaConfig;
    pub use cajade_graph::{JoinGraph, SchemaGraph};
    pub use cajade_ingest::{ingest_dir, IngestOptions};
    pub use cajade_mining::Pattern;
    pub use cajade_query::{parse_sql, Query};
    pub use cajade_service::{ExplanationService, ServiceConfig, SessionHandle};
    pub use cajade_storage::{AttrKind, DataType, Database, Value};
}
