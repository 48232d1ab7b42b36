//! `cajade-lint`: a zero-dependency project-invariant lint pass.
//!
//! CI runs `cargo clippy --workspace --all-targets -- -D warnings` for
//! what clippy knows about Rust; this checker enforces what it cannot
//! know about this workspace: that the metric, failpoint, error-code and
//! alloc-scope tables in `docs/` list exactly the names the code
//! registers, that pattern and graph loops stay interruptible at a
//! budget checkpoint, that the allocator hooks touch thread-local state
//! only, and the other cross-PR invariants below. `syn` is not among the
//! offline stand-ins under `crates/compat`, so it is not a Rust parser:
//! it is a token-level scanner (a
//! small lexer that correctly skips comments, string/char/raw-string
//! literals, and tracks `#[cfg(test)]` / `mod tests` regions) feeding a
//! rule engine with per-line `// lint:allow(rule)` suppressions, human
//! and JSON output, and a non-zero exit on findings.
//!
//! The rules and the invariants they guard are cataloged in
//! `docs/LINTS.md`:
//!
//! | Rule | Invariant |
//! |---|---|
//! | `float-total-order` | rankings tie-break under `f64::total_cmp`, never `partial_cmp` |
//! | `safety-comment` | every `unsafe` site carries a `// SAFETY:` justification |
//! | `no-panic-request-path` | the serve request path degrades, never panics |
//! | `doc-catalog-drift` | metric/failpoint/error-code/alloc-scope doc tables match the code |
//! | `budget-checkpoint` | pattern/graph loops stay deadline-interruptible |
//! | `alloc-hook-local` | the allocator hooks touch thread-local state only |
//! | `single-clock` | stage timings come from the `Stage` guard, not a stopwatch beside it |
//! | `fanout-ctx` | work leaves the request thread only through the `Ctx`-carrying helper |
//!
//! Run it over the workspace:
//!
//! ```sh
//! cargo run -p cajade-lint --release              # human output
//! cargo run -p cajade-lint --release -- --format json
//! ```
//!
//! The library surface ([`lint_workspace`] + [`LintConfig`]) exists so
//! the rule set is testable against fixture trees; the binary and CI
//! run [`LintConfig::workspace`].

pub mod catalog;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use config::{DocPaths, LintConfig};
pub use engine::{lint_workspace, render_human, render_json, LintReport};
pub use rules::{CatalogKind, Finding, RULES};
