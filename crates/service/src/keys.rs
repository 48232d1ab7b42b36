//! Cache keys.
//!
//! A key is what identifies its value and nothing else: the owning
//! database's registration *epoch* — one per `register` call, never
//! reused, so it stands for one registration: one name with one content
//! and one schema graph — and the query's canonical SQL rendering
//! (`Query::to_sql`). What a query entry holds below that has no key of
//! its own: a join graph is a slot of its [`crate::QueryEntry`], by
//! enumeration index, and an answered question is found in the entry by
//! its output tuples — the [`cajade_mining::Question`] it resolves to
//! against the entry's provenance table. Parameters are the service's
//! ([`crate::ServiceConfig::params`]), one set for every entry it holds.
//! Every re-registration takes a new epoch, and the entries of the
//! registration it replaced are swept
//! ([`crate::ExplanationService::register_database`]).

use std::sync::Arc;

/// Key of a cached query: everything its [`crate::QueryEntry`] holds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProvKey {
    /// Database registration epoch.
    pub epoch: u64,
    /// Canonical SQL (`Query::to_sql`), shared with the session that
    /// made the key.
    pub sql: Arc<str>,
}
