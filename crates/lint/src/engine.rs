//! The lint driver: file walking, suppression filtering, cross-file
//! rules, and report assembly.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::catalog;
use crate::config::LintConfig;
use crate::lexer;
use crate::rules::{self, CatalogKind, CatalogUse, Finding, BUDGET_CHECKPOINT, DOC_CATALOG_DRIFT};

/// The result of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Rust files scanned.
    pub files_scanned: usize,
    /// Findings silenced by `lint:allow(…)` comments.
    pub suppressed: usize,
}

impl LintReport {
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every rule over the configured tree.
pub fn lint_workspace(cfg: &LintConfig) -> Result<LintReport, String> {
    let mut files = Vec::new();
    collect_rs_files(&cfg.root, cfg, &mut files)?;
    files.sort();

    let mut report = LintReport::default();
    let mut catalog_uses: Vec<CatalogUse> = Vec::new();
    let mut budget_seen: Vec<(String, bool)> = Vec::new();

    for path in &files {
        let rel = rel_path(&cfg.root, path);
        let src = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let whole_file_test = is_test_file(&rel, cfg);
        let lexed = lexer::lex(&src, whole_file_test);
        let scan = rules::scan_file(&rel, &lexed, cfg);
        report.files_scanned += 1;

        for f in scan.findings {
            if allowed(&scan.allow, f.line, f.rule) {
                report.suppressed += 1;
            } else {
                report.findings.push(f);
            }
        }
        catalog_uses.extend(scan.catalog);
        if cfg.budget_files.contains(&rel) {
            budget_seen.push((rel.clone(), scan.has_budget_ident));
        }
    }

    budget_checkpoint(cfg, &budget_seen, &mut report);
    doc_catalog_drift(cfg, &catalog_uses, &mut report)?;

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn allowed(allow: &std::collections::HashMap<u32, Vec<String>>, line: u32, rule: &str) -> bool {
    allow
        .get(&line)
        .is_some_and(|rules| rules.iter().any(|r| r == rule))
}

fn collect_rs_files(dir: &Path, cfg: &LintConfig, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = rel_path(&cfg.root, &path);
        if cfg
            .skip_prefixes
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, cfg, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn is_test_file(rel: &str, cfg: &LintConfig) -> bool {
    rel.split('/')
        .any(|seg| cfg.test_dir_components.iter().any(|t| t == seg))
}

// ---------------------------------------------------------------------------
// budget-checkpoint (cross-file)
// ---------------------------------------------------------------------------

fn budget_checkpoint(cfg: &LintConfig, seen: &[(String, bool)], report: &mut LintReport) {
    for wanted in &cfg.budget_files {
        match seen.iter().find(|(rel, _)| rel == wanted) {
            None => report.findings.push(Finding {
                rule: BUDGET_CHECKPOINT,
                file: wanted.clone(),
                line: 1,
                message: "configured budget-checkpoint module was not found in the \
                          scan — update the lint config if the module moved"
                    .to_string(),
            }),
            Some((_, true)) => {}
            Some((_, false)) => report.findings.push(Finding {
                rule: BUDGET_CHECKPOINT,
                file: wanted.clone(),
                line: 1,
                message: "module loops over patterns/graphs but contains no request-\
                          budget check (`cajade_obs::budget`): hot loops must stay \
                          interruptible (see docs/ROBUSTNESS.md)"
                    .to_string(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// doc-catalog-drift (cross-file)
// ---------------------------------------------------------------------------

/// Cross-checks code-declared names against the doc tables, in both
/// directions: metrics against the "Metric names" tables, alloc scopes
/// against the scope taxonomy, failpoints and error codes against
/// their catalogs. Templated rows (`cache_<name>_hits_total`) document
/// names no literal registers and are skipped.
fn doc_catalog_drift(
    cfg: &LintConfig,
    uses: &[CatalogUse],
    report: &mut LintReport,
) -> Result<(), String> {
    let read = |p: &Path| -> Result<String, String> {
        fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };

    if let Some(obs_path) = &cfg.docs.observability {
        let doc = read(obs_path)?;
        let doc_rel = rel_path(&cfg.root, obs_path);
        bidirectional(
            "metric",
            "metric names",
            &doc,
            &doc_rel,
            uses,
            CatalogKind::Metric,
            report,
        );
        bidirectional(
            "alloc scope",
            "scope taxonomy",
            &doc,
            &doc_rel,
            uses,
            CatalogKind::AllocScope,
            report,
        );
    }
    if let Some(rob_path) = &cfg.docs.robustness {
        let doc = read(rob_path)?;
        let doc_rel = rel_path(&cfg.root, rob_path);
        bidirectional(
            "failpoint site",
            "failpoint catalog",
            &doc,
            &doc_rel,
            uses,
            CatalogKind::Failpoint,
            report,
        );
    }
    if let Some(proto_path) = &cfg.docs.protocol {
        let doc = read(proto_path)?;
        let doc_rel = rel_path(&cfg.root, proto_path);
        bidirectional(
            "error code",
            "errors",
            &doc,
            &doc_rel,
            uses,
            CatalogKind::ErrorCode,
            report,
        );
    }
    Ok(())
}

/// Diffs the code-declared set of `kind` names against the first
/// column of the doc tables under `section`, reporting drift in both
/// directions.
#[allow(clippy::too_many_arguments)]
fn bidirectional(
    what: &str,
    section: &str,
    doc: &str,
    doc_rel: &str,
    uses: &[CatalogUse],
    kind: CatalogKind,
    report: &mut LintReport,
) {
    let doc_decls = catalog::table_first_column(doc, section);
    if doc_decls.is_empty() {
        report.findings.push(Finding {
            rule: DOC_CATALOG_DRIFT,
            file: doc_rel.to_string(),
            line: 1,
            message: format!("no `{section}` table with {what} declarations found"),
        });
        return;
    }
    let doc_set: BTreeSet<&str> = doc_decls.iter().map(|d| d.name.as_str()).collect();
    let code_set: BTreeSet<&str> = uses
        .iter()
        .filter(|u| u.kind == kind)
        .map(|u| u.name.as_str())
        .collect();
    // Code → doc: report each *distinct* undocumented name once, at
    // its first use site.
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for u in uses.iter().filter(|u| u.kind == kind) {
        if !doc_set.contains(u.name.as_str()) && reported.insert(&u.name) {
            report.findings.push(Finding {
                rule: DOC_CATALOG_DRIFT,
                file: u.file.clone(),
                line: u.line,
                message: format!(
                    "{what} `{}` is not listed in {doc_rel} (`{section}` table)",
                    u.name
                ),
            });
        }
    }
    // Doc → code.
    for d in &doc_decls {
        if !code_set.contains(d.name.as_str()) {
            report.findings.push(Finding {
                rule: DOC_CATALOG_DRIFT,
                file: doc_rel.to_string(),
                line: d.line,
                message: format!(
                    "{what} `{}` is documented but nothing in the code declares it",
                    d.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Human-readable rendering, one finding per line.
pub fn render_human(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    out.push_str(&format!(
        "cajade-lint: {} file(s) scanned, {} finding(s), {} suppressed\n",
        report.files_scanned,
        report.findings.len(),
        report.suppressed
    ));
    out
}

/// Machine-readable rendering (the shape CI schema-checks).
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{");
    out.push_str("\"version\":1,");
    out.push_str(&format!("\"ok\":{},", report.ok()));
    out.push_str(&format!("\"files_scanned\":{},", report.files_scanned));
    out.push_str(&format!("\"suppressed\":{},", report.suppressed));
    out.push_str("\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
