//! Service-level errors.

use std::fmt;

use cajade_core::CoreError;
use cajade_ingest::IngestError;
use cajade_query::QueryError;

/// Errors surfaced by the explanation service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// No database registered under this name.
    UnknownDatabase(String),
    /// No open session with this id.
    UnknownSession(u64),
    /// The session's SQL failed to parse.
    Parse(QueryError),
    /// The underlying pipeline failed.
    Core(CoreError),
    /// CSV-directory ingestion failed during `register`.
    Ingest(IngestError),
    /// The owning [`crate::ExplanationService`] was dropped while a
    /// session handle was still alive.
    ServiceDropped,
}

/// The complete stable error-code taxonomy, mirroring the table in
/// `docs/PROTOCOL.md` one-for-one. It is wider than [`ServiceError`]:
/// `bad_request` and `internal_panic` are minted at the protocol
/// boundary (see `protocol.rs`), and `timeout` is reserved — a deadline
/// alone never produces it, budgeted asks degrade with `ok: true`
/// instead. `crates/service/tests/doc_catalogs.rs` checks this list
/// against the doc table.
pub const ERROR_CODES: &[&str] = &[
    "bad_request",
    "unknown_database",
    "unknown_session",
    "parse",
    "pipeline",
    "ingest",
    "timeout",
    "internal_panic",
    "shutdown",
];

impl ServiceError {
    /// Stable machine-readable error code, from the fixed taxonomy in
    /// [`ERROR_CODES`] / `docs/PROTOCOL.md`. Clients should branch on
    /// this, never on the human-readable message (which may be reworded
    /// freely).
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownDatabase(_) => "unknown_database",
            ServiceError::UnknownSession(_) => "unknown_session",
            ServiceError::Parse(_) => "parse",
            ServiceError::Core(_) => "pipeline",
            ServiceError::Ingest(_) => "ingest",
            ServiceError::ServiceDropped => "shutdown",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownDatabase(name) => {
                write!(f, "no database registered as `{name}`")
            }
            ServiceError::UnknownSession(id) => write!(f, "no open session #{id}"),
            // QueryError's own rendering already says "SQL parse error".
            ServiceError::Parse(e) => write!(f, "{e}"),
            ServiceError::Core(e) => write!(f, "pipeline error: {e}"),
            ServiceError::Ingest(e) => write!(f, "ingest error: {e}"),
            ServiceError::ServiceDropped => {
                write!(f, "explanation service was shut down")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        ServiceError::Parse(e)
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

impl From<IngestError> for ServiceError {
    fn from(e: IngestError) -> Self {
        ServiceError::Ingest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_database_and_session() {
        assert!(ServiceError::UnknownDatabase("nba".into())
            .to_string()
            .contains("nba"));
        assert!(ServiceError::UnknownSession(7).to_string().contains('7'));
        let e: ServiceError = CoreError::NoSuchOutputTuple("x=1".into()).into();
        assert!(e.to_string().contains("x=1"));
    }

    #[test]
    fn codes_are_stable_snake_case() {
        let cases = [
            (
                ServiceError::UnknownDatabase("x".into()),
                "unknown_database",
            ),
            (ServiceError::UnknownSession(1), "unknown_session"),
            (
                ServiceError::Core(CoreError::NoSuchOutputTuple("x".into())),
                "pipeline",
            ),
            (ServiceError::ServiceDropped, "shutdown"),
        ];
        for (e, code) in cases {
            assert_eq!(e.code(), code);
        }
    }

    #[test]
    fn every_code_is_in_the_documented_taxonomy() {
        let all = [
            ServiceError::UnknownDatabase("x".into()),
            ServiceError::UnknownSession(1),
            ServiceError::Parse(QueryError::UnknownColumn("c".into())),
            ServiceError::Core(CoreError::NoSuchOutputTuple("x".into())),
            ServiceError::Ingest(IngestError::EmptyDirectory("d".into())),
            ServiceError::ServiceDropped,
        ];
        for e in all {
            assert!(
                ERROR_CODES.contains(&e.code()),
                "`{}` missing from ERROR_CODES",
                e.code()
            );
        }
        // The taxonomy is exactly the documented nine, in table order.
        assert_eq!(ERROR_CODES.len(), 9);
    }
}
