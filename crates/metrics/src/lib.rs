//! # cajade-metrics
//!
//! Ranking-quality metrics used throughout the paper's evaluation:
//!
//! * [`mod@ndcg`] — normalized discounted cumulative gain \[Järvelin &
//!   Kekäläinen 2002\], the sample-quality metric of Fig. 10f and Table 9,
//! * [`kendall_tau_distance`] — pairwise ranking error \[Kendall 1938\]
//!   used in Table 9,
//! * [`top_k_overlap`] — the "match" metric of Fig. 10b–e (how many of the
//!   ground-truth top-10 patterns appear in the sampled top-10),
//! * small summary-statistics helpers for the harness tables.

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods)]

pub mod ndcg;
pub mod rank;
pub mod stats;

pub use ndcg::{dcg, ndcg, ndcg_at_k};
pub use rank::{kendall_tau_distance, kendall_tau_pairs, top_k_overlap};
pub use stats::{mean, population_stddev, sample_stddev};
