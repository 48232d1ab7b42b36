//! The rule set, run over one lexed file at a time.
//!
//! Each rule is grounded in an invariant an earlier PR established by
//! hand; `docs/LINTS.md` is the user-facing catalog (id, rationale,
//! suppression, establishing PR). Per-file rules emit findings
//! directly; the cross-file rules (`doc-catalog-drift`,
//! `budget-checkpoint`) collect evidence here that the engine
//! aggregates after every file is scanned.

use std::collections::HashMap;

use crate::config::LintConfig;
use crate::lexer::{LexedFile, TokKind, Token};

/// Rule identifiers, as used in findings and `lint:allow(…)`.
pub const FLOAT_TOTAL_ORDER: &str = "float-total-order";
pub const DOC_CATALOG_DRIFT: &str = "doc-catalog-drift";
pub const BUDGET_CHECKPOINT: &str = "budget-checkpoint";
pub const ALLOC_HOOK_LOCAL: &str = "alloc-hook-local";
pub const SINGLE_CLOCK: &str = "single-clock";
pub const FANOUT_CTX: &str = "fanout-ctx";

/// Every rule with a one-line description (for `--list-rules`).
pub const RULES: &[(&str, &str)] = &[
    (
        FLOAT_TOTAL_ORDER,
        "no partial_cmp in comparator positions or followed by .unwrap(); rankings must use f64::total_cmp",
    ),
    (
        DOC_CATALOG_DRIFT,
        "metric names, failpoint sites, error codes, and alloc scopes must match their doc tables",
    ),
    (
        BUDGET_CHECKPOINT,
        "modules that loop over patterns/graphs must contain a request-budget check",
    ),
    (
        ALLOC_HOOK_LOCAL,
        "no .fetch_*/.lock(/Box::new/Vec:: in the allocator hooks or what they call short of a #[cold] fn",
    ),
    (
        SINGLE_CLOCK,
        "no Instant::now() in the pipeline crates: a stage's wall time comes from its cajade_obs::Stage guard",
    ),
    (
        FANOUT_CTX,
        "no par_iter/into_par_iter/thread::spawn/thread::scope in the pipeline crates outside the one Ctx-carrying fan-out helper",
    ),
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Path relative to the scanned root (a source file or a doc).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

/// A name the code declares that some doc catalog must list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogUse {
    pub kind: CatalogKind,
    pub name: String,
    pub file: String,
    pub line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogKind {
    Metric,
    Failpoint,
    AllocScope,
    ErrorCode,
}

/// Everything one file contributes: per-file findings (pre-
/// suppression), the suppression map, catalog declarations, and
/// budget-checkpoint evidence.
#[derive(Debug, Default)]
pub struct FileScan {
    pub findings: Vec<Finding>,
    /// line → rules allowed on that line by `lint:allow(…)` comments.
    pub allow: HashMap<u32, Vec<String>>,
    pub catalog: Vec<CatalogUse>,
    pub has_budget_ident: bool,
}

/// Runs every per-file rule and extraction over `file`.
pub fn scan_file(rel: &str, file: &LexedFile, cfg: &LintConfig) -> FileScan {
    let mut scan = FileScan {
        allow: suppressions(file),
        ..FileScan::default()
    };
    float_total_order(rel, file, &mut scan);
    if cfg.alloc_hook_files.iter().any(|f| f == rel) {
        alloc_hook_local(rel, file, &mut scan);
    }
    if cfg
        .pipeline_paths
        .iter()
        .any(|p| rel.starts_with(p.as_str()))
    {
        single_clock(rel, file, &mut scan);
        if cfg.fanout_file != rel {
            fanout_ctx(rel, file, cfg, &mut scan);
        }
    }
    scan.has_budget_ident = file.tokens.iter().any(|t| {
        !t.in_test && t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("budget")
    });
    extract_catalog_uses(rel, file, cfg, &mut scan);
    scan
}

/// Builds the per-line suppression map. A `lint:allow(a, b)` comment
/// suppresses matching findings on its own line and the line below it,
/// so both trailing and preceding-line placements work.
fn suppressions(file: &LexedFile) -> HashMap<u32, Vec<String>> {
    let mut allow: HashMap<u32, Vec<String>> = HashMap::new();
    for (idx, text) in file.comments.iter().enumerate() {
        let line = idx as u32 + 1;
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            rest = &rest[pos + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            for rule in rest[..close].split(',') {
                let rule = rule.trim().to_string();
                if !rule.is_empty() {
                    allow.entry(line).or_default().push(rule.clone());
                    allow.entry(line + 1).or_default().push(rule);
                }
            }
            rest = &rest[close..];
        }
    }
    allow
}

// ---------------------------------------------------------------------------
// float-total-order
// ---------------------------------------------------------------------------

/// Methods whose closure argument is a comparator over ranked values.
const COMPARATOR_METHODS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "select_nth_unstable_by",
    "max_by",
    "min_by",
];

/// Flags `partial_cmp` (a) anywhere inside the argument list of a
/// comparator-taking method, or (b) immediately chained into
/// `.unwrap()` — the NaN-panicking shape. Ranking semantics in this
/// workspace are only deterministic under `f64::total_cmp` (PR 5).
fn float_total_order(rel: &str, file: &LexedFile, scan: &mut FileScan) {
    let toks = &file.tokens;
    let mut paren_depth = 0i32;
    // Paren depths at which a comparator argument list opened.
    let mut regions: Vec<i32> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') {
            paren_depth += 1;
        } else if t.is_punct(')') {
            paren_depth -= 1;
            while regions.last().is_some_and(|&d| d > paren_depth) {
                regions.pop();
            }
        } else if t.kind == TokKind::Ident
            && COMPARATOR_METHODS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            // Region is active while paren_depth > current depth.
            regions.push(paren_depth + 1);
        } else if t.is_ident("partial_cmp") && !t.in_test {
            let in_comparator = !regions.is_empty();
            let chained_unwrap = chained_into_unwrap(toks, i);
            if in_comparator || chained_unwrap {
                let why = if in_comparator {
                    "in a comparator position"
                } else {
                    "chained into .unwrap()"
                };
                scan.findings.push(Finding {
                    rule: FLOAT_TOTAL_ORDER,
                    file: rel.to_string(),
                    line: t.line,
                    message: format!(
                        "`partial_cmp` {why}: ranking comparisons must be total \
                         orders — use `f64::total_cmp` (NaN-safe, deterministic)"
                    ),
                });
            }
        }
        i += 1;
    }
}

/// Is `toks[i]` (`partial_cmp`) followed by a balanced argument list
/// and then `.unwrap(`?
fn chained_into_unwrap(toks: &[Token], i: usize) -> bool {
    let mut j = i + 1;
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(j + 2).is_some_and(|t| t.is_ident("unwrap"))
        && toks.get(j + 3).is_some_and(|t| t.is_punct('('))
}

// ---------------------------------------------------------------------------
// alloc-hook-local
// ---------------------------------------------------------------------------

/// The tracking allocator's per-event entry points.
const ALLOC_HOOK_ROOTS: &[&str] = &["on_alloc", "on_dealloc"];

/// One `fn` item: its name, whether it is `#[cold]`, and the token
/// range of its body (empty for a bodiless declaration).
struct FnItem<'a> {
    name: &'a str,
    line: u32,
    cold: bool,
    body: std::ops::Range<usize>,
}

/// Every allocation and free runs the hooks, so they and whatever they
/// call must touch thread-local state only: no atomic read-modify-write,
/// no lock, no allocation. A `#[cold]` fn is where the hot path ends —
/// the amortised fold into the shared ledgers lives behind one — so the
/// walk does not enter it. Calls resolve by name within the file: every
/// fn (or method) of a called name is taken to be on the path.
fn alloc_hook_local(rel: &str, file: &LexedFile, scan: &mut FileScan) {
    let toks = &file.tokens;
    let fns = fn_items(file);
    let mut hot: Vec<usize> = (0..fns.len())
        .filter(|&i| ALLOC_HOOK_ROOTS.contains(&fns[i].name))
        .collect();
    if hot.is_empty() {
        scan.findings.push(Finding {
            rule: ALLOC_HOOK_LOCAL,
            file: rel.to_string(),
            line: 1,
            message: "configured allocator-hook module defines neither `on_alloc` nor \
                      `on_dealloc` — update the lint config if the hooks moved"
                .to_string(),
        });
    }
    let mut next = 0;
    while next < hot.len() {
        let f = &fns[hot[next]];
        next += 1;
        for i in f.body.clone() {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let after_dot = i > 0 && toks[i - 1].is_punct('.');
            let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            let path_follows = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'));
            let shape = if after_dot && t.text.starts_with("fetch_") {
                Some(format!(".{}(", t.text))
            } else if after_dot && called && t.text == "lock" {
                Some(".lock(".to_string())
            } else if t.text == "Box"
                && path_follows
                && toks.get(i + 3).is_some_and(|n| n.is_ident("new"))
            {
                Some("Box::new".to_string())
            } else if t.text == "Vec" && path_follows {
                Some("Vec::".to_string())
            } else {
                None
            };
            if let Some(shape) = shape {
                scan.findings.push(Finding {
                    rule: ALLOC_HOOK_LOCAL,
                    file: rel.to_string(),
                    line: t.line,
                    message: format!(
                        "`{shape}` in `{}` (line {}), which runs on every allocation: \
                         the hooks touch thread-local state only — fold into shared \
                         state behind a `#[cold]` fn (see docs/OBSERVABILITY.md)",
                        f.name, f.line
                    ),
                });
            }
            if called {
                for (callee, g) in fns.iter().enumerate() {
                    if g.name == t.text && !g.cold && !hot.contains(&callee) {
                        hot.push(callee);
                    }
                }
            }
        }
    }
}

/// The non-test `fn` items of `file`, nested ones included.
fn fn_items(file: &LexedFile) -> Vec<FnItem<'_>> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
            continue;
        };
        if !toks[i].is_ident("fn") || toks[i].in_test {
            continue;
        }
        out.push(FnItem {
            name: &name.text,
            line: toks[i].line,
            cold: has_cold_attr(file, toks[i].line),
            body: brace_group(toks, i + 2),
        });
    }
    out
}

/// Is there a `#[cold]` among the attribute and comment lines directly
/// above `line`?
fn has_cold_attr(file: &LexedFile, line: u32) -> bool {
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let text = file.line_text(l);
        if text == "#[cold]" {
            return true;
        }
        if !(text.starts_with("#[") || text.starts_with("//")) {
            return false;
        }
        l -= 1;
    }
    false
}

// ---------------------------------------------------------------------------
// single-clock, fanout-ctx
// ---------------------------------------------------------------------------

/// Is `toks[i]` the head of the path `head::tail`?
fn is_path(toks: &[Token], i: usize, head: &str, tail: &[&str]) -> bool {
    toks[i].is_ident(head)
        && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
        && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
        && toks
            .get(i + 3)
            .is_some_and(|n| tail.iter().any(|t| n.is_ident(t)))
}

/// A stage's wall time is what its `cajade_obs::Stage` guard returns —
/// the clock its span is recorded with. A stopwatch beside the guard is
/// the second copy of the timing this rule keeps from coming back.
fn single_clock(rel: &str, file: &LexedFile, scan: &mut FileScan) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !is_path(toks, i, "Instant", &["now"]) {
            continue;
        }
        scan.findings.push(Finding {
            rule: SINGLE_CLOCK,
            file: rel.to_string(),
            line: t.line,
            message: "`Instant::now()` in a pipeline crate: open a `cajade_obs::Stage` and \
                      take the wall time from `finish()`, so the timing structs and the \
                      span agree (see docs/OBSERVABILITY.md)"
                .to_string(),
        });
    }
}

/// Work that leaves the request thread must run under the request's
/// `Ctx`, or its spans, budget checks and heap bytes detach from the
/// request. One helper does that hop; a second fan-out site is a second
/// place to forget it.
fn fanout_ctx(rel: &str, file: &LexedFile, cfg: &LintConfig, scan: &mut FileScan) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let shape = if called && (t.text == "par_iter" || t.text == "into_par_iter") {
            format!("{}()", t.text)
        } else if is_path(toks, i, "thread", &["spawn", "scope"]) {
            format!("thread::{}", toks[i + 3].text)
        } else {
            continue;
        };
        scan.findings.push(Finding {
            rule: FANOUT_CTX,
            file: rel.to_string(),
            line: t.line,
            message: format!(
                "`{shape}` in a pipeline crate outside {}: fan out through its helper, \
                 which runs every worker under the caller's `cajade_obs::Ctx`",
                cfg.fanout_file
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// doc-catalog-drift: code-side extraction
// ---------------------------------------------------------------------------

/// Collects the names this file declares that doc catalogs must list:
/// failpoint sites, alloc scopes, metric names (within the configured
/// metric paths), and error codes (within the configured error files).
fn extract_catalog_uses(rel: &str, file: &LexedFile, cfg: &LintConfig, scan: &mut FileScan) {
    let toks = &file.tokens;
    let in_metric_paths = cfg.metric_paths.iter().any(|p| rel.starts_with(p.as_str()));
    let in_error_files = cfg.error_code_files.iter().any(|f| f == rel);

    let push = |kind: CatalogKind, name: &str, line: u32, scan: &mut FileScan| {
        scan.catalog.push(CatalogUse {
            kind,
            name: name.to_string(),
            file: rel.to_string(),
            line,
        });
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        // failpoint("site") / failpoint_infallible("site")
        if (t.text == "failpoint" || t.text == "failpoint_infallible")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(s) = toks.get(i + 2).filter(|n| n.kind == TokKind::Str) {
                push(CatalogKind::Failpoint, &s.text, s.line, scan);
            }
        }
        // AllocScope::enter("scope"), and the stage guard's forms:
        // Stage::open("scope") / Stage::detail("scope") /
        // Stage::open_as("span", "scope"). Stage::span_only opens none.
        let scope_arg = if is_path(toks, i, "AllocScope", &["enter"])
            || is_path(toks, i, "Stage", &["open", "detail"])
        {
            Some(5)
        } else if is_path(toks, i, "Stage", &["open_as"]) {
            Some(7)
        } else {
            None
        };
        if let Some(s) = scope_arg
            .and_then(|arg| toks.get(i + arg))
            .filter(|n| n.kind == TokKind::Str)
        {
            push(CatalogKind::AllocScope, &s.text, s.line, scan);
        }
        if in_metric_paths {
            // .counter("name") / .gauge("name") / .histogram("name")
            if matches!(t.text.as_str(), "counter" | "gauge" | "histogram")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                if let Some(s) = toks.get(i + 2).filter(|n| n.kind == TokKind::Str) {
                    push(CatalogKind::Metric, &s.text, s.line, scan);
                }
            }
            // const SOME_GAUGE: &str = "name";
            if t.text == "const"
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident && n.text.contains("GAUGE"))
            {
                if let Some(s) = toks[i..toks.len().min(i + 8)]
                    .iter()
                    .find(|n| n.kind == TokKind::Str)
                {
                    push(CatalogKind::Metric, &s.text, s.line, scan);
                }
            }
        }
        if in_error_files {
            // String literals in the body of `fn code(…) -> … { … }`.
            if t.text == "fn" && toks.get(i + 1).is_some_and(|n| n.is_ident("code")) {
                for s in body_strings(toks, i + 2) {
                    push(CatalogKind::ErrorCode, &s.text, s.line, scan);
                }
            }
            // The declared taxonomy: const ERROR_CODES … = [ "…", … ];
            if t.text == "ERROR_CODES" {
                for s in toks[i..].iter().take_while(|n| !n.is_punct(';')) {
                    if s.kind == TokKind::Str {
                        push(CatalogKind::ErrorCode, &s.text, s.line, scan);
                    }
                }
            }
            // err("code", …) protocol-level minting.
            if t.text == "err" && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                if let Some(s) = toks.get(i + 2).filter(|n| n.kind == TokKind::Str) {
                    push(CatalogKind::ErrorCode, &s.text, s.line, scan);
                }
            }
        }
    }
}

/// String literals inside the first `{ … }` block at or after `from`.
fn body_strings(toks: &[Token], from: usize) -> Vec<&Token> {
    toks[brace_group(toks, from)]
        .iter()
        .filter(|t| t.kind == TokKind::Str && !t.in_test)
        .collect()
}

/// Token range of the first `{ … }` group at or after `from`, both
/// braces included; empty when a `;` comes first (a declaration without
/// a body) or there is none.
fn brace_group(toks: &[Token], from: usize) -> std::ops::Range<usize> {
    let mut open = from;
    while open < toks.len() && !toks[open].is_punct('{') {
        if toks[open].is_punct(';') {
            return open..open;
        }
        open += 1;
    }
    let mut depth = 0i32;
    for (close, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return open..close + 1;
            }
        }
    }
    open..toks.len()
}
