//! Lint configuration: which files are scanned, which invariants are
//! anchored where.
//!
//! [`LintConfig::workspace`] is the configuration the `cajade-lint`
//! binary (and CI) runs with; tests build custom configs pointing at
//! fixture trees. All paths are relative to `root` with `/` separators.

use std::path::PathBuf;

/// Paths of the doc files holding the catalogs that
/// `doc-catalog-drift` cross-checks. Any `None` disables that
/// sub-check (fixture configs use this to test one catalog at a time).
#[derive(Debug, Clone, Default)]
pub struct DocPaths {
    /// Metric names + alloc-scope taxonomy tables.
    pub observability: Option<PathBuf>,
    /// Failpoint catalog table.
    pub robustness: Option<PathBuf>,
    /// Error-code table.
    pub protocol: Option<PathBuf>,
}

/// Full lint configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directory the scan starts from; findings report paths relative
    /// to it.
    pub root: PathBuf,
    /// Relative path prefixes skipped entirely (vendored stand-ins,
    /// build output, lint fixtures).
    pub skip_prefixes: Vec<String>,
    /// Directory components whose files are test code end to end
    /// (integration tests, benches): production-code rules skip them.
    pub test_dir_components: Vec<String>,
    /// Modules that must contain a request-budget check
    /// (`budget-checkpoint`).
    pub budget_files: Vec<String>,
    /// Modules whose `on_alloc`/`on_dealloc` are global-allocator hooks
    /// (`alloc-hook-local`).
    pub alloc_hook_files: Vec<String>,
    /// Source directories of the pipeline crates: no `Instant::now()`
    /// (`single-clock`) and no thread fan-out (`fanout-ctx`) in them.
    pub pipeline_paths: Vec<String>,
    /// The one module under `pipeline_paths` allowed to fan out: it
    /// holds the helper that runs workers under the caller's `Ctx`.
    pub fanout_file: String,
    /// Path prefixes where literal metric names are extracted for the
    /// doc cross-check.
    pub metric_paths: Vec<String>,
    /// Files where error codes are extracted (the `code()` taxonomy,
    /// `ERROR_CODES`, and protocol-level `err("…")` minting).
    pub error_code_files: Vec<String>,
    pub docs: DocPaths,
}

impl LintConfig {
    /// The configuration for this workspace — the single source of
    /// truth for which modules carry which invariant (documented in
    /// `docs/LINTS.md`).
    pub fn workspace(root: PathBuf) -> LintConfig {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        LintConfig {
            docs: DocPaths {
                observability: Some(root.join("docs/OBSERVABILITY.md")),
                robustness: Some(root.join("docs/ROBUSTNESS.md")),
                protocol: Some(root.join("docs/PROTOCOL.md")),
            },
            root,
            skip_prefixes: s(&[
                "target",
                ".git",
                // Vendored offline stand-ins mirror upstream APIs; they
                // are not this project's code to re-idiomize.
                "crates/compat",
                // The lint's own seeded-violation fixtures.
                "crates/lint/tests/fixtures",
            ]),
            test_dir_components: s(&["tests", "benches"]),
            budget_files: s(&[
                // The refinement BFS and question-independent
                // preparation (PR 7's cooperative-cancellation sites).
                "crates/mining/src/miner.rs",
                "crates/mining/src/prepared.rs",
                // The per-graph materialize loop.
                "crates/core/src/pipeline.rs",
            ]),
            alloc_hook_files: s(&["crates/obs/src/alloc.rs"]),
            pipeline_paths: s(&[
                "crates/core/src/",
                "crates/mining/src/",
                "crates/ingest/src/",
                "crates/service/src/",
            ]),
            fanout_file: "crates/core/src/pipeline.rs".to_string(),
            metric_paths: s(&["crates/service/src", "crates/obs/src"]),
            error_code_files: s(&[
                "crates/service/src/error.rs",
                "crates/service/src/protocol.rs",
            ]),
        }
    }
}
