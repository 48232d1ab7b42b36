//! # cajade-baselines
//!
//! Re-implementations of the comparator systems of the paper's evaluation:
//!
//! * [`explanation_tables`] — Explanation Tables \[Gebaly et al., VLDB'15\]
//!   (the `ET` arm of §5.5 / Fig. 11 and the App. A.1 pattern listing):
//!   greedy information-gain summaries of a binary outcome over
//!   categorical attributes, with LCA candidates from a size-`s` sample
//!   and numeric pre-bucketization.
//! * [`cape`] — CAPE \[Miao et al., SIGMOD'19\] (§5.6 / Fig. 13):
//!   regression-based *counterbalance* explanations for one outlier point
//!   and a direction; returns similar outliers in the opposite direction.
//! * [`provenance_only`] — CaJaDE restricted to the PT-only join graph:
//!   the "provenance-based explanations" arm of the user study (Table 7).

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods)]

pub mod cape;
pub mod explanation_tables;
pub mod provenance_only;

pub use cape::{explain_outlier, CapeExplanation, CapeQuestion, Direction};
pub use explanation_tables::{EtConfig, EtPattern, ExplanationTables};
pub use provenance_only::provenance_only_explanations;
