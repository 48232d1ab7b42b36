//! # cajade-query
//!
//! Query substrate for the CaJaDE reproduction: a single-block SPJA
//! (select–project–join–aggregate) executor with **why-provenance**, plus a
//! small SQL parser for the paper's query class
//! (`SELECT … FROM … WHERE … GROUP BY …`, equi-joins, one or more
//! aggregates).
//!
//! The paper ran on PostgreSQL + GProM; here both the evaluation and the
//! provenance capture are implemented directly:
//!
//! * [`Query`] — the AST (also buildable programmatically),
//! * [`parse_sql`] — text front end used by the examples and the
//!   benchmark harness (the paper lists all workload queries as SQL),
//! * [`execute`] — hash joins + hash aggregation producing a
//!   [`QueryResult`],
//! * [`ProvenanceTable`] — Definition 1: the subset of
//!   `R_{j1} × … × R_{jp}` contributing to the answer, with full-width rows
//!   renamed `prov_<rel>_<attr>` and a row → output-tuple mapping,
//! * [`execute_with_provenance`] — both of the above from one join.

#![warn(missing_docs)]

pub mod ast;
mod error;
mod exec;
pub mod parser;
pub mod provenance;

pub use ast::{AggFunc, Aggregate, CmpOp, ColRef, Literal, Predicate, Query, TableRef};
pub use error::QueryError;
pub use exec::{execute, QueryResult};
pub use parser::parse_sql;
pub use provenance::{execute_with_provenance, prov_attr_name, ProvenanceTable, PtField};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QueryError>;
