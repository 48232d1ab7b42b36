//! # cajade-datagen
//!
//! Deterministic synthetic datasets with the schemas and planted
//! correlations of the paper's two evaluation corpora:
//!
//! * [`nba`] — the Figure-5 NBA schema (11 relations). The real corpus is
//!   an nba.com scrape we cannot redistribute; the generator plants the
//!   *story* the case studies depend on: GSW's win trajectory (Fig. 14d),
//!   Curry / Green / Thompson stat shifts around 2015-16, salary changes,
//!   player tenures (Iguodala joins GSW in 2013, LeBron's CLE→MIA move),
//!   and season-level team-stat trends (assists, three-point rates).
//! * [`mimic`] — the Figure-6 MIMIC-III schema (6 relations). MIMIC-III
//!   is access-restricted; the generator plants the Table-6 correlations:
//!   insurance ↔ death rate ↔ age ↔ emergency admissions, ICU
//!   length-of-stay ↔ hospital stay length, ethnicity ↔ religion, and
//!   diagnosis-chapter death-rate differences.
//! * [`synth`] — a fully parameterized star schema for the scale sweep:
//!   rows and tables/columns scale independently (table count, column
//!   count, key fan-out, value cardinality — all deterministic from a
//!   seed), with a planted `grp`-correlation so every point mines
//!   non-trivial patterns.
//! * [`scale`] — the §5 scaling procedure: duplicate-up with remapped keys
//!   (integer factors) while preserving foreign-key integrity and join
//!   result sizes; down-scaling regenerates at reduced size (the paper
//!   sampled; regeneration preserves the same distributions and is exactly
//!   reproducible).
//!
//! Both generators return a [`GeneratedDb`]: the database plus its schema
//! graph (foreign keys + the hand-registered extra conditions of Fig. 3,
//! e.g. the `home = winner` variant and the lineup self-join).

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods)]

pub mod mimic;
pub mod names;
pub mod nba;
pub mod scale;
pub mod synth;
pub mod util;

use cajade_graph::SchemaGraph;
use cajade_storage::Database;

/// A generated database together with its schema graph.
#[derive(Debug, Clone)]
pub struct GeneratedDb {
    /// The database instance.
    pub db: Database,
    /// Schema graph (FK-derived edges + registered extras).
    pub schema_graph: SchemaGraph,
}
