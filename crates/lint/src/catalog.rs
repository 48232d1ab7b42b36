//! Markdown-side extraction for the `doc-catalog-drift` rule.
//!
//! The docs declare their catalogs as markdown tables (failpoint sites
//! in `docs/ROBUSTNESS.md`, error codes in `docs/PROTOCOL.md`, alloc
//! scopes and metric names in `docs/OBSERVABILITY.md`). This module
//! pulls backticked names out of those tables so the rule can diff
//! them against what the code declares.
//!
//! Two conventions keep the docs readable without defeating the check:
//!
//! * **Brace families** — a doc row may write
//!   `heap_{live,freed}_bytes` for a family of names; the
//!   extractor expands the braces into every member.
//! * **Templates** — names containing `<`, `*`, or whitespace (e.g.
//!   `cache_<name>_hits_total`) are patterns, not declarations, and are
//!   skipped.

/// A name found in a doc, with the 1-based line it came from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DocName {
    pub name: String,
    pub line: u32,
}

/// Names declared in the *first column* of the table that follows the
/// heading containing `section` (case-insensitive substring match on
/// heading lines). Rows may declare several names in one cell
/// (`` `a` / `b` ``); brace families expand; templates are skipped.
/// Returns an empty vec when the section or table is missing — the
/// rule reports that as drift.
pub fn table_first_column(markdown: &str, section: &str) -> Vec<DocName> {
    let needle = section.to_ascii_lowercase();
    let mut out = Vec::new();
    let mut in_section = false;
    // Names contributed by the previous table row: a separator row
    // (`|---|---|`) reveals that row was the table header, so its
    // names are retracted.
    let mut prev_row_start = 0usize;
    for (idx, line) in markdown.lines().enumerate() {
        let lineno = idx as u32 + 1;
        if line.starts_with('#') {
            in_section = line.to_ascii_lowercase().contains(&needle);
            continue;
        }
        if !in_section || !line.trim_start().starts_with('|') {
            continue;
        }
        let first_cell = match line.trim_start().trim_start_matches('|').split('|').next() {
            Some(c) => c,
            None => continue,
        };
        if first_cell.trim().chars().all(|c| c == '-' || c == ' ') {
            out.truncate(prev_row_start); // header row above the separator
            continue;
        }
        prev_row_start = out.len();
        for raw in backticked(first_cell) {
            for name in expand_braces(&raw) {
                if is_concrete(&name) {
                    out.push(DocName { name, line: lineno });
                }
            }
        }
    }
    out
}

/// Contents of every `` `…` `` span on one line.
fn backticked(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        match after.find('`') {
            Some(close) => {
                out.push(after[..close].to_string());
                rest = &after[close + 1..];
            }
            None => break,
        }
    }
    out
}

/// Expands `a_{x,y}_b` into `a_x_b`, `a_y_b` (recursively for several
/// groups). A name without braces passes through unchanged.
fn expand_braces(name: &str) -> Vec<String> {
    let (open, close) = match (name.find('{'), name.find('}')) {
        (Some(o), Some(c)) if o < c => (o, c),
        _ => return vec![name.to_string()],
    };
    let (head, tail) = (&name[..open], &name[close + 1..]);
    let mut out = Vec::new();
    for part in name[open + 1..close].split(',') {
        out.extend(expand_braces(&format!("{head}{}{tail}", part.trim())));
    }
    out
}

/// A declaration, not a template or prose fragment.
fn is_concrete(name: &str) -> bool {
    !name.is_empty()
        && !name.contains(['<', '*', '{', '}'])
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brace_families_expand() {
        assert_eq!(
            expand_braces("mine_{a,b}_us"),
            vec!["mine_a_us", "mine_b_us"]
        );
        assert_eq!(expand_braces("plain"), vec!["plain"]);
        assert_eq!(
            expand_braces("x_{a,b}_{c,d}"),
            vec!["x_a_c", "x_a_d", "x_b_c", "x_b_d"]
        );
    }

    #[test]
    fn templates_are_skipped() {
        let doc = "## Names\n| `cache_<name>_{hits,misses}_total` | family |\n\
                   | `fault_*` | family |\n| `asks_total` | real |";
        let names: Vec<String> = table_first_column(doc, "names")
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, vec!["asks_total"]);
    }

    #[test]
    fn table_extraction_is_section_scoped() {
        let doc = "\
## Other
| `not_me` | x |
### The catalog
| `code` | Where |
|---|---|
| `a.b` | somewhere |
| `c` / `d` | elsewhere, in `code.rs` |
## After
| `not_me_either` | x |
";
        let names: Vec<String> = table_first_column(doc, "the catalog")
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(names, vec!["a.b", "c", "d"]);
    }
}
