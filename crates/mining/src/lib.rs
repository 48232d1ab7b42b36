//! # cajade-mining
//!
//! Summarization-pattern mining over augmented provenance tables — the
//! core algorithmic contribution of the paper (§3, Algorithm 1 "MineAPT").
//!
//! Pipeline per APT:
//!
//! 1. **Feature selection** ([`featsel`]) — random-forest relevance
//!    ranking + correlation clustering keep the λ#sel-attr attributes most
//!    useful for telling the two user-question outputs apart (§3.1). The
//!    trainer is a histogram forest over pre-binned encoded columns
//!    sharing the scoring index's scan order.
//! 2. **Categorical candidates** ([`lca`]) — the LCA method of
//!    Gebaly et al. \[19\]: pairwise meets over a sample generate patterns
//!    reflecting frequent constant combinations (§3.2), ranked by recall,
//!    top-k_cat kept (§3.3).
//! 3. **Numeric refinement** ([`miner`]) — thresholds from λ#frag domain
//!    fragments extend patterns one predicate at a time; refinements of
//!    patterns whose recall already fell below λ_recall are pruned, which
//!    is sound because recall is anti-monotone under refinement
//!    (Proposition 3.1, re-proved here as a property test). An F-score
//!    upper bound additionally discards children before their bitmap is
//!    ever built
//!    ([`MiningParams::refine_ub_prune`]), bit-identically (also
//!    property-tested).
//! 4. **Scoring & top-k** ([`score`], [`diversity`]) — Definition 7
//!    precision/recall/F-score (optionally over a λ_F1-samp sample), then
//!    diversity-aware top-k selection with the paper's `wscore` (§3.5).

#![warn(missing_docs)]

pub mod diversity;
pub mod engine;
pub mod fd;
pub mod featsel;
pub mod fragments;
pub mod lca;
pub mod miner;
pub mod pattern;
pub mod prepared;
pub mod score;
pub mod share;
pub mod stats;

pub use diversity::{diversity_score, match_score, select_top_k_diverse};
pub use engine::{Mask, PredBank, ScoreIndex};
pub use fd::group_determining_fields;
pub use featsel::{FeatureSelection, SelAttr};
pub use lca::lca_candidates;
pub use miner::{mine_apt, MinedExplanation, MiningOutcome, MiningParams, MiningTimings};
pub use pattern::{PatValue, Pattern, Pred, PredOp};
pub use prepared::{mine_prepared, prepare_apt, prepare_apt_with, PreparedApt};
pub use score::{PatternMetrics, Question, Scorer};
pub use share::ReadShare;
pub use stats::{
    base_column_stats, compute_column_stats, source_column, BaseTableStats, ColumnStats,
    ColumnStatsConfig, ColumnStatsProvider, NoSharedStats,
};
