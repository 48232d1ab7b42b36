//! # cajade-storage
//!
//! In-memory columnar relational storage substrate for the CaJaDE
//! reproduction (SIGMOD'21, "Putting Things into Context").
//!
//! The original system ran on PostgreSQL; this crate provides the subset of
//! relational storage the CaJaDE algorithms actually touch:
//!
//! * typed columnar tables ([`Table`], [`Column`]) with null support,
//! * dictionary-interned strings ([`StringPool`]) so categorical values are
//!   compared as `u32` ids in the hot pattern-matching loops,
//! * a catalog ([`Database`]) with primary-key and foreign-key metadata —
//!   foreign keys seed the default schema graph (paper §2.2),
//! * per-row keys ([`rowkey`]): the one keyed hasher of every per-row
//!   hash table over user data, the equi-join index and the GROUP BY
//!   grouping.
//!
//! Attributes carry an [`AttrKind`] (categorical vs. numeric) because the
//! pattern language of Definition 5 treats them differently: categorical
//! attributes admit only equality predicates while numeric attributes also
//! admit `≤` / `≥` comparisons.
//!
//! ## Example
//!
//! ```
//! use cajade_storage::{Database, DataType, AttrKind, SchemaBuilder, Value};
//!
//! let mut db = Database::new("demo");
//! let schema = SchemaBuilder::new("team")
//!     .column_pk("team_id", DataType::Int, AttrKind::Categorical)
//!     .column("team", DataType::Str, AttrKind::Categorical)
//!     .build();
//! let mut b = db.create_table(schema).unwrap();
//! let gsw = db.intern("GSW");
//! db.table_mut("team").unwrap().push_row(vec![Value::Int(1), Value::Str(gsw)]).unwrap();
//! assert_eq!(db.table("team").unwrap().num_rows(), 1);
//! # let _ = b;
//! ```

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods)]

mod column;
pub mod csv;
mod database;
mod error;
mod pool;
pub mod rowkey;
mod schema;
mod table;
mod value;

pub use column::{Column, NullMask};
pub use csv::{parse_typed_cell, write_csv};
pub use database::{Database, ForeignKey};
pub use error::StorageError;
pub use pool::{StrId, StringPool};
pub use schema::{AttrKind, DataType, Field, Schema, SchemaBuilder};
pub use table::{Table, TableBuilder};
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
