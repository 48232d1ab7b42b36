//! # cajade-core
//!
//! The end-to-end CaJaDE pipeline (the paper's system, §2–§4):
//!
//! ```text
//! query ──► why-provenance PT ──► join-graph enumeration (Alg. 2)
//!                                        │ valid graphs
//!                                        ▼
//!                              APT materialization (Def. 4)
//!                                        │ per graph
//!                                        ▼
//!                              pattern mining (Alg. 1, MineAPT)
//!                                        │ top-k per graph
//!                                        ▼
//!                    global F-score ranking + near-duplicate collapse
//! ```
//!
//! Entry point: [`ExplanationSession`]. All λ parameters live in
//! [`Params`] with the paper's Table-1 defaults; per-phase wall-clock
//! timings ([`SessionTimings`]) mirror the paper's runtime-breakdown
//! tables.

#![warn(missing_docs)]

mod error;
mod explanation;
mod params;
pub mod pipeline;
mod session;
mod timing;

pub use cajade_mining::{PreparedApt, Question, SelAttr};
pub use error::CoreError;
pub use explanation::Explanation;
pub use params::Params;
pub use session::{ExplanationSession, SessionResult, UserQuestion};
pub use timing::SessionTimings;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
