//! # cajade-ml
//!
//! Machine-learning substrate for CaJaDE's attribute preprocessing
//! (paper §3.1):
//!
//! * [`forest`] — from-scratch random forests (CART trees, Gini impurity,
//!   bootstrap bagging, mean-decrease-impurity importances). The paper uses
//!   a random-forest classifier to rank attributes by how well they
//!   distinguish rows belonging to the provenance of the two user-question
//!   outputs, keeping only the top λ#sel-attr attributes. Two trainers
//!   exist: the float-matrix reference and a histogram trainer
//!   ([`HistForest`]) over pre-binned [`BinnedColumn`]s whose per-node
//!   split search reads a class histogram of each feature the node
//!   sampled — all of them counted in one sweep of the node's rows —
//!   instead of re-scanning rows per candidate threshold.
//! * [`cluster`] — attribute clustering by mutual association. The paper
//!   uses VARCLUS; per its own remark ("any technique that can cluster
//!   correlated attributes would be applicable") we use agglomerative
//!   average-linkage clustering over a mixed-type association matrix.
//! * [`correlation`] — the association measures feeding the clustering:
//!   Pearson |r| (numeric–numeric), Cramér's V (categorical–categorical),
//!   and the correlation ratio η (categorical–numeric).
//! * [`sampling`] — seeded Bernoulli and reservoir samplers implementing
//!   the λ_pat-samp / λ_F1-samp knobs (§3.2, §3.3) including the
//!   cap-at-1000-rows rule of §5.4.

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods)]

pub mod cluster;
pub mod correlation;
pub mod dataset;
pub mod forest;
pub mod sampling;
pub mod tree;

pub use cluster::cluster_attributes;
pub use correlation::{assoc_matrix, correlation_ratio, cramers_v, pearson};
pub use dataset::{dense_codes, BinKind, BinSpec, BinnedColumn, FeatureColumn};
pub use forest::{HistForest, RandomForest, RandomForestConfig};
pub use sampling::{bernoulli_sample, reservoir_sample, sample_with_cap};
pub use tree::{DecisionTree, HistTree, TreeConfig};
