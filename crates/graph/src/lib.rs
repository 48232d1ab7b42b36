//! # cajade-graph
//!
//! Schema graphs, join graphs, join-graph enumeration (paper Algorithm 2)
//! and augmented-provenance-table (APT) materialization (Definition 4).
//!
//! * [`SchemaGraph`] — which joins are permissible (Definition 2): nodes
//!   are relations, edges carry *sets* of alternative join conditions
//!   (e.g. Fig. 3's `PlayerGameScoring–Game` edge has both the plain
//!   key join and the `home = winner` variant). Extracted from foreign
//!   keys and/or registered by hand.
//! * [`JoinGraph`] — one way of augmenting the provenance (Definition 3):
//!   an undirected multigraph with a distinguished `PT` node; repeated
//!   relations get fresh aliases (`lineup_player1`, `lineup_player2`).
//! * [`enumerate_join_graphs`] — Algorithm 2: iterative deepening over
//!   edge count with both extension types, the primary-key-coverage
//!   validity check and canonical-form dedup.
//! * [`Apt`] — the materialized augmented provenance table, carrying the
//!   originating PT row id per APT row, which is exactly what the
//!   Definition-7 coverage semantics needs. [`AptBuilder`] skips a graph
//!   whose join output would pass λ_qcost rows, counted in the join step.

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods)]

pub mod apt;
pub mod discovery;
pub mod enumerate;
mod error;
pub mod join_graph;
pub mod schema_graph;

pub use apt::{Apt, AptBuilder, AptColumn, AptField, CellData, Cells, RowIds};
pub use discovery::{
    discover_joins, discovered_schema_graph, extend_schema_graph, DiscoveredGraph, DiscoveryConfig,
    JoinCandidate,
};
pub use enumerate::{enumerate_join_graphs, EnumConfig, EnumeratedGraph, Enumeration};
pub use error::GraphError;
pub use join_graph::{JgEdge, JgNode, JoinGraph, JoinGraphKey, NodeLabel};
pub use schema_graph::{AttrPair, JoinCond, Pairs, SchemaEdge, SchemaGraph};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
