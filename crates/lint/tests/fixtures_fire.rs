//! Proves every rule is live: each fixture tree seeds violations the
//! rule must find, `lint:allow(…)` placements it must suppress, and
//! string/comment/`#[cfg(test)]` shapes the lexer must ignore. The
//! final test lints this workspace itself and requires a clean bill.

use std::path::{Path, PathBuf};

use cajade_lint::config::{DocPaths, LintConfig};
use cajade_lint::engine::{lint_workspace, render_human, render_json, LintReport};
use cajade_lint::rules::{
    ALLOC_HOOK_LOCAL, BUDGET_CHECKPOINT, DOC_CATALOG_DRIFT, FANOUT_CTX, FLOAT_TOTAL_ORDER,
    SINGLE_CLOCK,
};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A config that scans one fixture tree with every cross-file anchor
/// disabled; tests enable what they exercise.
fn fixture_cfg(name: &str) -> LintConfig {
    LintConfig {
        root: fixture_root(name),
        skip_prefixes: Vec::new(),
        test_dir_components: vec!["tests".into(), "benches".into()],
        budget_files: Vec::new(),
        alloc_hook_files: Vec::new(),
        pipeline_paths: Vec::new(),
        fanout_file: String::new(),
        metric_paths: Vec::new(),
        error_code_files: Vec::new(),
        docs: DocPaths::default(),
    }
}

fn lines_of(report: &LintReport, rule: &str, file: &str) -> Vec<u32> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && f.file == file)
        .map(|f| f.line)
        .collect()
}

#[test]
fn float_total_order_fires_suppresses_and_ignores() {
    let report = lint_workspace(&fixture_cfg("float")).unwrap();
    assert_eq!(
        lines_of(&report, FLOAT_TOTAL_ORDER, "src/lib.rs"),
        vec![5, 6, 7],
        "{}",
        render_human(&report)
    );
    // Both placements of lint:allow (line above, trailing) suppress.
    assert_eq!(report.suppressed, 2);
    // Nothing else fired: strings, raw strings, comments and
    // #[cfg(test)] copies of the violation are invisible.
    assert_eq!(report.findings.len(), 3);
}

#[test]
fn budget_checkpoint_requires_a_real_budget_ident() {
    let mut miss = fixture_cfg("budget_miss");
    miss.budget_files = vec!["src/hot.rs".into()];
    let report = lint_workspace(&miss).unwrap();
    // The test-only `budget` identifier does not satisfy the rule.
    assert_eq!(
        lines_of(&report, BUDGET_CHECKPOINT, "src/hot.rs"),
        vec![1],
        "{}",
        render_human(&report)
    );

    let mut hit = fixture_cfg("budget_hit");
    hit.budget_files = vec!["src/hot.rs".into()];
    let report = lint_workspace(&hit).unwrap();
    assert!(report.ok(), "{}", render_human(&report));

    // A configured module that does not exist is itself a finding.
    let mut missing = fixture_cfg("budget_hit");
    missing.budget_files = vec!["src/gone.rs".into()];
    let report = lint_workspace(&missing).unwrap();
    assert_eq!(lines_of(&report, BUDGET_CHECKPOINT, "src/gone.rs"), vec![1]);
}

#[test]
fn alloc_hook_local_follows_calls_up_to_cold_fns() {
    let mut cfg = fixture_cfg("alloc_hook");
    cfg.alloc_hook_files = vec!["src/alloc.rs".into(), "src/moved.rs".into()];
    let report = lint_workspace(&cfg).unwrap();
    // The hooks themselves, the helper and the method they reach; not
    // the #[cold] fold, not the reader nobody on the path calls, not
    // strings, comments or test code.
    assert_eq!(
        lines_of(&report, ALLOC_HOOK_LOCAL, "src/alloc.rs"),
        vec![13, 21, 28, 34],
        "{}",
        render_human(&report)
    );
    assert_eq!(report.suppressed, 1);
    // A configured module whose hooks are gone is itself a finding.
    assert_eq!(lines_of(&report, ALLOC_HOOK_LOCAL, "src/moved.rs"), vec![1]);
    // src/free.rs has the same shapes but is not a configured module.
    assert!(lines_of(&report, ALLOC_HOOK_LOCAL, "src/free.rs").is_empty());
    assert_eq!(report.findings.len(), 5);
}

#[test]
fn single_clock_fires_only_in_pipeline_dirs() {
    let mut cfg = fixture_cfg("clock");
    cfg.pipeline_paths = vec!["src/".into()];
    let report = lint_workspace(&cfg).unwrap();
    assert_eq!(
        lines_of(&report, SINGLE_CLOCK, "src/stage.rs"),
        vec![6, 7],
        "{}",
        render_human(&report)
    );
    assert_eq!(report.suppressed, 1);
    // free/clock.rs starts a stopwatch too, outside the pipeline dirs;
    // strings, comments, `.elapsed()` and test code are invisible.
    assert_eq!(report.findings.len(), 2);
}

#[test]
fn fanout_ctx_fires_outside_the_helper_file() {
    let mut cfg = fixture_cfg("fanout");
    cfg.pipeline_paths = vec!["src/".into()];
    cfg.fanout_file = "src/helper.rs".into();
    let report = lint_workspace(&cfg).unwrap();
    assert_eq!(
        lines_of(&report, FANOUT_CTX, "src/stage.rs"),
        vec![5, 6, 7, 8],
        "{}",
        render_human(&report)
    );
    assert_eq!(report.suppressed, 1);
    // Not the helper file, not free/pool.rs, not the string, the
    // binding named `par_iter`, or the test module.
    assert_eq!(report.findings.len(), 4);
}

#[test]
fn doc_catalog_drift_fires_both_directions() {
    let root = fixture_root("drift");
    let cfg = LintConfig {
        docs: DocPaths {
            observability: Some(root.join("docs/OBSERVABILITY.md")),
            robustness: Some(root.join("docs/ROBUSTNESS.md")),
            protocol: Some(root.join("docs/PROTOCOL.md")),
        },
        root,
        skip_prefixes: Vec::new(),
        test_dir_components: vec!["tests".into()],
        budget_files: Vec::new(),
        alloc_hook_files: Vec::new(),
        pipeline_paths: Vec::new(),
        fanout_file: String::new(),
        metric_paths: vec!["src".into()],
        error_code_files: vec!["src/error.rs".into()],
    };
    let report = lint_workspace(&cfg).unwrap();
    let drift: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == DOC_CATALOG_DRIFT)
        .map(|f| f.message.as_str())
        .collect();
    // Code → doc: one undocumented name per catalog kind.
    for name in [
        "undocumented_gauge",
        "site.undocumented",
        "scope.undocumented",
        "undocumented_code",
    ] {
        assert!(
            drift.iter().any(|m| m.contains(name)),
            "missing code→doc drift for {name}: {}",
            render_human(&report)
        );
    }
    // Doc → code: documented-but-undeclared names, one per catalog kind.
    for name in [
        "doc_only_total",
        "site.doc_only",
        "scope.doc_only",
        "doc_only_code",
    ] {
        assert!(
            drift.iter().any(|m| m.contains(name)),
            "missing doc→code drift for {name}: {}",
            render_human(&report)
        );
    }
    // The documented names and the backticked `code` header cell are
    // not drift.
    for name in [
        "`documented_total`",
        "`site.documented`",
        "`scope.documented`",
        // Scopes entered through the stage guard's three forms.
        "`scope.stage`",
        "`scope.stage_detail`",
        "`scope.stage_as`",
        "`documented_code`",
        "`code`",
    ] {
        assert!(
            !drift.iter().any(|m| m.contains(name)),
            "false positive on {name}: {}",
            render_human(&report)
        );
    }
    // The template row is not drift either.
    assert!(!drift.iter().any(|m| m.contains("cache_")));
    assert_eq!(drift.len(), 8, "{}", render_human(&report));

    // JSON rendering of a failing report keeps the CI contract.
    let json = render_json(&report);
    assert!(json.starts_with("{\"version\":1,\"ok\":false,"));
    assert!(json.contains("\"rule\":\"doc-catalog-drift\""));
}

/// The gate itself: linting this workspace with the shipped config
/// finds nothing. Violations are fixed at the source; the two
/// `single-clock` suppressions `docs/LINTS.md` accounts for are the
/// whole allowance, so a third fails here.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = LintConfig::workspace(root);
    let report = lint_workspace(&cfg).unwrap();
    assert!(report.ok(), "{}", render_human(&report));
    assert_eq!(report.suppressed, 2, "see docs/LINTS.md § Suppression");
    assert!(report.files_scanned > 100, "walk lost the tree");
}
