//! # cajade-bench
//!
//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§5, §6). The `paper` binary drives the experiments; the
//! `kernels` bench times the hot kernels. README § "Paper experiment
//! harness" and `paper --help` map the experiments to the paper.

#![deny(clippy::disallowed_methods)]

pub mod ingest_workload;
pub mod tablefmt;
pub mod user_study;
pub mod workloads;

pub use tablefmt::Table;
pub use workloads::{
    mimic_case_questions, mimic_db, mimic_queries, nba_case_questions, nba_db, nba_queries,
    CaseQuestion, HarnessScale, Workload,
};
