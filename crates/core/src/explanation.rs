//! Session-level explanations: a mined pattern rendered together with its
//! join graph and supports (the full Definition-6 tuple), plus the
//! near-duplicate collapsing of §6 ("the same pattern may be returned for
//! several join graphs … we removed duplicates and explanations that only
//! differ slightly in terms of constants").

use std::collections::HashSet;

use cajade_graph::Apt;
use cajade_mining::{MinedExplanation, PatternMetrics};
use cajade_storage::StringPool;

/// One explanation of the final, globally-ranked list.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Rendered pattern, e.g. `player_salary.salary≤15330435 [t1]`.
    pub pattern_desc: String,
    /// Structured predicates: `(attribute, operator, constant)`.
    pub preds: Vec<(String, String, String)>,
    /// Join-graph structure, e.g. `PT - player_salary - player`.
    pub graph_structure: String,
    /// Rendered join conditions per edge.
    pub graph_edges: Vec<String>,
    /// Rendered group key of the primary output tuple.
    pub primary: String,
    /// Exact Definition-7 metrics (support = `(tp/a1 vs fp/a2)`).
    pub metrics: PatternMetrics,
    /// True if mined from the PT-only graph (provenance-only pattern).
    pub from_pt_only: bool,
    /// Index of the join graph within the session's enumeration.
    pub graph_index: usize,
}

impl Explanation {
    /// Builds a rendered explanation from a mined pattern.
    pub fn from_mined(
        mined: &MinedExplanation,
        apt: &Apt,
        pool: &StringPool,
        primary: String,
        graph_index: usize,
    ) -> Explanation {
        let preds = mined
            .pattern
            .preds()
            .iter()
            .map(|(f, p)| {
                (
                    apt.fields[*f].name.clone(),
                    p.op.symbol().to_string(),
                    p.value.to_value().render(pool),
                )
            })
            .collect();
        Explanation {
            pattern_desc: mined.pattern.render(apt, pool),
            preds,
            graph_structure: apt.graph.structure_string(),
            graph_edges: apt.graph.describe_edges(),
            primary,
            metrics: mined.metrics,
            from_pt_only: apt.graph.num_edges() == 0,
            graph_index,
        }
    }

    /// Collapse key: primary tuple + attribute/operator multiset. Two
    /// explanations with the same key differ only in constants or join
    /// path — the §6 near-duplicate criterion.
    pub fn near_duplicate_key(&self) -> String {
        let preds = self.preds.iter().map(|(a, op, _)| (&a[..], &op[..]));
        near_duplicate_key(&self.primary, preds)
    }

    /// One-line rendering in the Table-4 style.
    pub fn render_line(&self) -> String {
        format!(
            "{} [{}] {} F={:.2} ({})",
            self.pattern_desc,
            self.primary,
            self.metrics.support_string(),
            self.metrics.f_score,
            self.graph_structure,
        )
    }

    /// Narrative rendering in the style of the paper's introduction boxes:
    ///
    /// > *GSW won more games in season 2015-16 because Player S. Curry
    /// > scored ≥ 23 points in 58 out of 73 games in 2015-16 compared to
    /// > 21 out of 47 games in 2012-13.*
    ///
    /// `subject` names the query result in the user's words (e.g. "GSW's
    /// wins" / "admissions with this insurance"); the rest is filled from
    /// the pattern and its supports.
    pub fn narrate(&self, subject: &str) -> String {
        let conditions = if self.preds.is_empty() {
            "the context held".to_string()
        } else {
            self.preds
                .iter()
                .map(|(attr, op, value)| format!("{attr} {op} {value}"))
                .collect::<Vec<_>>()
                .join(" and ")
        };
        let via = if self.from_pt_only {
            String::new()
        } else {
            format!(" (context joined via {})", self.graph_structure)
        };
        format!(
            "{subject} differ for {} because {conditions} in {} out of {} of its \
             provenance rows, compared to {} out of {} for the other side{via}.",
            self.primary, self.metrics.tp, self.metrics.a1, self.metrics.fp, self.metrics.a2,
        )
    }
}

/// The §6 collapse key, `primary|` and the sorted, comma-joined
/// attribute+operator strings: one definition for rendered and mined.
pub(crate) fn near_duplicate_key<'a>(
    primary: &str,
    preds: impl Iterator<Item = (&'a str, &'a str)>,
) -> String {
    let mut parts: Vec<String> = preds.map(|(a, op)| format!("{a}{op}")).collect();
    parts.sort();
    format!("{primary}|{}", parts.join(","))
}

/// Sorts by exact F-score (descending) and drops near-duplicates, keeping
/// the best-scoring representative of each key. Returns at most `k`.
pub fn rank_and_collapse(all: Vec<Explanation>, k: usize, collapse: bool) -> Vec<Explanation> {
    let score = |e: &Explanation| (e.metrics.f_score, e.preds.len());
    let text = |e: &Explanation| e.pattern_desc.clone();
    let key = Explanation::near_duplicate_key;
    rank_walk(all, k, collapse, score, text, key)
}

/// The global ranking of anything with a `(F, predicate count)` score, a
/// pattern text and a collapse key: one stable sort on all three, then
/// collapse and truncate — but `text` runs only in the runs of equal
/// score the walk reaches, and `key` only for the items it walks.
pub(crate) fn rank_walk<T>(
    mut items: Vec<T>,
    k: usize,
    collapse: bool,
    score: impl Fn(&T) -> (f64, usize),
    text: impl Fn(&T) -> String,
    key: impl Fn(&T) -> String,
) -> Vec<T> {
    // `total_cmp`: a NaN F-score (degenerate metrics) compared Equal to
    // everything under `partial_cmp(..).unwrap_or(Equal)`, letting the
    // global ranking depend on per-graph arrival order.
    let by_score = |a: &T, b: &T| {
        let ((fa, na), (fb, nb)) = (score(a), score(b));
        fb.total_cmp(&fa).then(na.cmp(&nb))
    };
    items.sort_by(by_score);
    let mut items = items.into_iter().peekable();
    let (mut seen, mut kept) = (HashSet::new(), Vec::new());
    while let Some(first) = items.next().filter(|_| kept.len() < k) {
        let mut run = vec![first];
        while let Some(tied) = items.next_if(|x| by_score(x, &run[0]).is_eq()) {
            run.push(tied);
        }
        run.sort_by_cached_key(&text);
        for item in run {
            if kept.len() < k && (!collapse || seen.insert(key(&item))) {
                kept.push(item);
            }
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(pattern: &str, preds: &[(&str, &str, &str)], f: f64, primary: &str) -> Explanation {
        Explanation {
            pattern_desc: pattern.into(),
            preds: preds
                .iter()
                .map(|(a, o, c)| (a.to_string(), o.to_string(), c.to_string()))
                .collect(),
            graph_structure: "PT".into(),
            graph_edges: vec![],
            primary: primary.into(),
            metrics: PatternMetrics {
                tp: 1,
                a1: 1,
                fp: 0,
                a2: 1,
                precision: 1.0,
                recall: 1.0,
                f_score: f,
            },
            from_pt_only: true,
            graph_index: 0,
        }
    }

    #[test]
    fn ranking_is_by_fscore() {
        let out = rank_and_collapse(
            vec![
                mk("a", &[("x", "=", "1")], 0.5, "t1"),
                mk("b", &[("y", "=", "1")], 0.9, "t1"),
            ],
            10,
            true,
        );
        assert_eq!(out[0].pattern_desc, "b");
    }

    #[test]
    fn near_duplicates_collapse_keeping_best() {
        let out = rank_and_collapse(
            vec![
                mk("salary≤100", &[("salary", "≤", "100")], 0.8, "t1"),
                mk("salary≤120", &[("salary", "≤", "120")], 0.9, "t1"),
                mk("salary≤100 for t2", &[("salary", "≤", "100")], 0.7, "t2"),
            ],
            10,
            true,
        );
        // The two t1 variants collapse (same attr+op), t2 survives.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].pattern_desc, "salary≤120");
        assert!(out.iter().any(|e| e.primary == "t2"));
    }

    #[test]
    fn collapse_can_be_disabled() {
        let out = rank_and_collapse(
            vec![
                mk("a", &[("salary", "≤", "100")], 0.8, "t1"),
                mk("b", &[("salary", "≤", "120")], 0.9, "t1"),
            ],
            10,
            false,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn truncates_to_k() {
        let many: Vec<Explanation> = (0..30)
            .map(|i| mk(&format!("p{i}"), &[("x", "=", &i.to_string())], 0.5, "t1"))
            .collect();
        // Distinct constants on the same attr+op: they all share one key →
        // collapse keeps 1. Without collapse, k bounds the list.
        assert_eq!(rank_and_collapse(many.clone(), 5, false).len(), 5);
        assert_eq!(rank_and_collapse(many, 5, true).len(), 1);
    }

    /// The walk's oracle: sort everything on all three keys, then
    /// collapse, then truncate.
    fn sort_collapse_truncate(
        mut all: Vec<Explanation>,
        k: usize,
        collapse: bool,
    ) -> Vec<Explanation> {
        all.sort_by(|a, b| {
            b.metrics
                .f_score
                .total_cmp(&a.metrics.f_score)
                .then(a.preds.len().cmp(&b.preds.len()))
                .then(a.pattern_desc.cmp(&b.pattern_desc))
        });
        if collapse {
            let mut seen = HashSet::new();
            all.retain(|e| seen.insert(e.near_duplicate_key()));
        }
        all.truncate(k);
        all
    }

    /// The walk keeps the oracle's items in the oracle's order, over many
    /// ties: F from a few levels (both NaNs and both zeros among them), 0–3
    /// predicates on three attributes and two operators, four pattern
    /// texts, two primaries, collapse on and off, and every `k` from 0 to
    /// n + 1. Items are told apart by `graph_index`, their arrival order.
    #[test]
    fn the_walk_equals_sorting_collapsing_and_truncating() {
        use proptest::collection::vec;
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;

        const F: [f64; 7] = [1.0, 0.75, 0.5, 0.0, -0.0, f64::NAN, -f64::NAN];
        const ATTRS: [&str; 3] = ["a0", "a1", "a2"];
        let item = (
            0..F.len(),
            vec((0..ATTRS.len(), any::<bool>()), 0..4),
            0..4usize,
            any::<bool>(),
        );
        let case = (vec(item, 0..24), 0..26usize, any::<bool>());
        let mut straddles = 0;
        TestRunner::new(ProptestConfig::with_cases(2000))
            .run(&case, |(items, k, collapse)| {
                let all: Vec<Explanation> = (items.iter().enumerate())
                    .map(|(i, (f, preds, text, t2))| {
                        let preds: Vec<_> = (preds.iter())
                            .map(|&(a, le)| (ATTRS[a], if le { "≤" } else { "=" }, "1"))
                            .collect();
                        let primary = if *t2 { "t2" } else { "t1" };
                        let mut e = mk(&format!("p{text}"), &preds, F[*f], primary);
                        e.graph_index = i;
                        e
                    })
                    .collect();
                let k = k % (all.len() + 2);
                let ids = |r: &[Explanation]| r.iter().map(|e| e.graph_index).collect::<Vec<_>>();
                let full = sort_collapse_truncate(all.clone(), usize::MAX, collapse);
                let at_cut = |e: &Explanation| (e.metrics.f_score.to_bits(), e.preds.len());
                if 0 < k && k < full.len() && at_cut(&full[k - 1]) == at_cut(&full[k]) {
                    straddles += 1;
                }
                let want = sort_collapse_truncate(all.clone(), k, collapse);
                prop_assert_eq!(ids(&rank_and_collapse(all, k, collapse)), ids(&want));
                Ok(())
            })
            .unwrap();
        // A tied run straddling the k-th kept item is the case the walk
        // stops inside of; it must have come up.
        assert!(straddles > 100, "{straddles} cases straddle the cut");
    }

    #[test]
    fn render_line_contains_support_and_graph() {
        let e = mk("salary≤100", &[("salary", "≤", "100")], 0.75, "t1");
        let line = e.render_line();
        assert!(line.contains("(1/1 vs 0/1)"));
        assert!(line.contains("F=0.75"));
        assert!(line.contains("PT"));
    }

    #[test]
    fn narrate_reads_like_the_paper_boxes() {
        let mut e = mk(
            "player=S. Curry ∧ pts≥23",
            &[("player", "=", "S. Curry"), ("pts", "≥", "23")],
            0.9,
            "season=2015-16",
        );
        e.metrics.tp = 58;
        e.metrics.a1 = 73;
        e.metrics.fp = 21;
        e.metrics.a2 = 47;
        e.from_pt_only = false;
        e.graph_structure = "PT - player_game_scoring".into();
        let text = e.narrate("GSW's wins");
        assert!(text.contains("player = S. Curry and pts ≥ 23"));
        assert!(text.contains("58 out of 73"));
        assert!(text.contains("21 out of 47"));
        assert!(text.contains("context joined via PT - player_game_scoring"));
    }
}
