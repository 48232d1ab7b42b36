//! Pattern quality metrics — paper Definition 7.
//!
//! Coverage is defined at the level of **provenance tuples**, not APT
//! rows: `t' ∈ PT(Q,D,t)` is covered by `(Ω, Φ)` iff *some* APT row
//! extending `t'` matches `Φ`. The APT carries its `pt_row` back-pointers,
//! so evaluating a pattern is one scan that marks covered PT rows.
//!
//! The λ_F1-samp knob (§3.3) is implemented by scanning a fixed row
//! sample of the APT instead of the whole table; denominators (`|PT(t)|`)
//! are then the number of PT rows *represented in the sample*, keeping
//! precision/recall estimates consistent.

use std::collections::HashMap;

use cajade_graph::Apt;
use cajade_query::ProvenanceTable;

use crate::pattern::Pattern;

/// A user question (paper §2.4): compare two outputs, or one output
/// against all the rest. Everything Algorithm 1 computes for a question
/// depends on these output tuples alone, so they are what an answer is
/// filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Question {
    /// Two-point: summarize what differentiates output `t1` from `t2`.
    TwoPoint {
        /// Primary output tuple (group index in the provenance table).
        t1: usize,
        /// Secondary output tuple.
        t2: usize,
    },
    /// Single-point: differentiate `t` from every other output.
    SinglePoint {
        /// The output tuple of interest.
        t: usize,
    },
}

impl Question {
    /// The two mining directions of Algorithm 1's `for t_cur ∈ {t1, t2}`
    /// loop: `(primary, secondary)` pairs, where `None` means "all other
    /// outputs" (single-point false-positive definition).
    pub fn directions(&self) -> Vec<(usize, Option<usize>)> {
        match self {
            Question::TwoPoint { t1, t2 } => vec![(*t1, Some(*t2)), (*t2, Some(*t1))],
            Question::SinglePoint { t } => vec![(*t, None)],
        }
    }

    /// Whether output group `g`'s provenance is what the question is
    /// about: `t1` and `t2` for a two-point question, every group for a
    /// single-point one (`t` against all the rest).
    pub fn in_scope(&self, g: usize) -> bool {
        match self {
            Question::TwoPoint { t1, t2 } => g == *t1 || g == *t2,
            Question::SinglePoint { .. } => true,
        }
    }
}

/// Definition-7 metrics of one explanation `(Ω, Φ)` for a primary output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternMetrics {
    /// Covered provenance tuples of the primary output (TP).
    pub tp: usize,
    /// Total provenance tuples of the primary output (TP + FN = `a1`).
    pub a1: usize,
    /// Covered provenance tuples of the secondary output (FP).
    pub fp: usize,
    /// Total provenance tuples of the secondary output (`a2`).
    pub a2: usize,
    /// `TP / (TP + FP)`.
    pub precision: f64,
    /// `TP / (TP + FN)`.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f_score: f64,
}

impl PatternMetrics {
    /// Builds the derived precision/recall/F-score from raw counts. The
    /// bitmap kernel and the row-at-a-time [`Scorer`] both funnel through
    /// this one function, so equal counts guarantee bit-identical metrics.
    pub(crate) fn from_counts(tp: usize, a1: usize, fp: usize, a2: usize) -> Self {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = Self::recall_of(tp, a1);
        let f_score = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        PatternMetrics {
            tp,
            a1,
            fp,
            a2,
            precision,
            recall,
            f_score,
        }
    }

    /// The recall of `tp` covered rows out of a group of `a1`: what
    /// [`from_counts`](Self::from_counts) computes, for callers that need
    /// no other metric.
    pub(crate) fn recall_of(tp: usize, a1: usize) -> f64 {
        if a1 == 0 {
            0.0
        } else {
            tp as f64 / a1 as f64
        }
    }

    /// Paper-style relative support string: `(tp/a1 vs fp/a2)`.
    pub fn support_string(&self) -> String {
        format!("({}/{} vs {}/{})", self.tp, self.a1, self.fp, self.a2)
    }
}

/// A prepared scorer for one APT: owns the (optional) F-score sample and
/// the per-group PT-row bookkeeping so that scoring a pattern is a single
/// scan, one [`Pattern::matches`] per row.
///
/// Definition 7 read literally, kept as the reference the bitmap kernel
/// ([`ScoreIndex`](crate::engine::ScoreIndex)) is property-tested against;
/// no mining run goes through it.
pub struct Scorer<'a> {
    apt: &'a Apt,
    /// APT rows to scan (`None` ⇒ all rows).
    rows: Option<Vec<u32>>,
    /// PT row → group.
    group_of: &'a [u32],
    /// Per group: number of distinct PT rows in scope (the `a` denominators).
    group_pt_counts: HashMap<u32, usize>,
    /// Total distinct PT rows in scope (for single-point "rest").
    total_pt: usize,
    /// Scratch: covered marker per PT row, versioned to avoid clearing.
    stamp: std::cell::RefCell<(Vec<u32>, u32)>,
}

impl<'a> Scorer<'a> {
    /// Scorer over the full APT (exact metrics).
    pub fn exact(apt: &'a Apt, pt: &'a ProvenanceTable) -> Self {
        Self::build(apt, pt, None)
    }

    /// Scorer over a fixed sample of APT row indices (λ_F1-samp).
    pub fn sampled(apt: &'a Apt, pt: &'a ProvenanceTable, sample: Vec<u32>) -> Self {
        Self::build(apt, pt, Some(sample))
    }

    fn build(apt: &'a Apt, pt: &'a ProvenanceTable, rows: Option<Vec<u32>>) -> Self {
        // Definition 7's denominators are |PT(Q, D, t)| — the FULL
        // provenance of each output tuple, independent of how many PT rows
        // the join graph (or the F1 sample) happens to extend. A join that
        // drops provenance rows lowers recall; it must not shrink `a`.
        let mut group_pt_counts: HashMap<u32, usize> = HashMap::new();
        for (g, rows_of_g) in pt.rows_of_group.iter().enumerate() {
            group_pt_counts.insert(g as u32, rows_of_g.len());
        }
        Scorer {
            apt,
            rows,
            group_of: &pt.group_of,
            group_pt_counts,
            total_pt: pt.num_rows,
            stamp: std::cell::RefCell::new((vec![0; pt.num_rows], 0)),
        }
    }

    /// Number of APT rows the scorer scans per pattern.
    pub fn scan_size(&self) -> usize {
        self.rows.as_ref().map_or(self.apt.num_rows, |r| r.len())
    }

    /// `|PT(t)|` within scope.
    pub fn group_size(&self, group: usize) -> usize {
        self.group_pt_counts
            .get(&(group as u32))
            .copied()
            .unwrap_or(0)
    }

    /// Scores `pattern` for `primary` against `secondary`
    /// (`None` ⇒ all other outputs, the single-point variant).
    pub fn score(
        &self,
        pattern: &Pattern,
        primary: usize,
        secondary: Option<usize>,
    ) -> PatternMetrics {
        let mut stamp = self.stamp.borrow_mut();
        let (marks, version) = &mut *stamp;
        *version += 1;
        let v = *version;

        let mut tp = 0usize;
        let mut fp = 0usize;
        let primary = primary as u32;

        let mut visit = |apt_row: usize| {
            if !pattern.matches(self.apt, apt_row) {
                return;
            }
            let pt_row = self.apt.pt_row[apt_row] as usize;
            if marks[pt_row] == v {
                return; // PT row already counted for this pattern
            }
            marks[pt_row] = v;
            let g = self.group_of[pt_row];
            if g == primary {
                tp += 1;
            } else {
                match secondary {
                    Some(s) if g == s as u32 => fp += 1,
                    Some(_) => {}
                    None => fp += 1, // single-point: everything else is FP
                }
            }
        };

        match &self.rows {
            Some(sample) => {
                for &r in sample {
                    visit(r as usize);
                }
            }
            None => {
                for r in 0..self.apt.num_rows {
                    visit(r);
                }
            }
        }

        let a1 = self.group_size(primary as usize);
        let a2 = match secondary {
            Some(s) => self.group_size(s),
            None => self.total_pt - a1,
        };
        PatternMetrics::from_counts(tp, a1, fp, a2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatValue, Pattern, Pred, PredOp};
    use cajade_graph::{Apt, JoinGraph};
    use cajade_query::{parse_sql, ProvenanceTable};
    use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

    /// 3 groups: g1 (4 rows), g2 (4 rows), g3 (2 rows); attribute `x`
    /// separates g1 (x small) from g2 (x large).
    fn fixture() -> (Database, cajade_query::Query) {
        let mut db = Database::new("s");
        db.create_table(
            SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("grp", DataType::Str, AttrKind::Categorical)
                .column("x", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let g1 = db.intern("g1");
        let g2 = db.intern("g2");
        let g3 = db.intern("g3");
        let rows = [
            (1, g1, 1),
            (2, g1, 2),
            (3, g1, 3),
            (4, g1, 10), // one g1 outlier
            (5, g2, 11),
            (6, g2, 12),
            (7, g2, 13),
            (8, g2, 2), // one g2 outlier
            (9, g3, 100),
            (10, g3, 100),
        ];
        for (id, g, x) in rows {
            db.table_mut("t")
                .unwrap()
                .push_row(vec![Value::Int(id), Value::Str(g), Value::Int(x)])
                .unwrap();
        }
        let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
        (db, q)
    }

    fn groups(db: &Database, q: &cajade_query::Query, pt: &ProvenanceTable) -> (usize, usize) {
        (
            pt.find_group(db, q, &[("grp", "g1")]).unwrap(),
            pt.find_group(db, q, &[("grp", "g2")]).unwrap(),
        )
    }

    #[test]
    fn definition7_counts() {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let (g1, g2) = groups(&db, &q, &pt);
        let x = apt.field_index("prov_t_x").unwrap();
        let scorer = Scorer::exact(&apt, &pt);

        // x ≤ 3 covers 3 of g1's 4 rows and 1 of g2's 4 rows.
        let p = Pattern::from_preds(vec![(
            x,
            Pred {
                op: PredOp::Le,
                value: PatValue::Int(3),
            },
        )]);
        let m = scorer.score(&p, g1, Some(g2));
        assert_eq!((m.tp, m.a1, m.fp, m.a2), (3, 4, 1, 4));
        assert!((m.precision - 0.75).abs() < 1e-12);
        assert!((m.recall - 0.75).abs() < 1e-12);
        assert!((m.f_score - 0.75).abs() < 1e-12);
        assert_eq!(m.support_string(), "(3/4 vs 1/4)");
    }

    #[test]
    fn asymmetry_of_directions() {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let (g1, g2) = groups(&db, &q, &pt);
        let x = apt.field_index("prov_t_x").unwrap();
        let scorer = Scorer::exact(&apt, &pt);
        let p = Pattern::from_preds(vec![(
            x,
            Pred {
                op: PredOp::Ge,
                value: PatValue::Int(11),
            },
        )]);
        let m12 = scorer.score(&p, g1, Some(g2));
        let m21 = scorer.score(&p, g2, Some(g1));
        assert_eq!(m12.tp, 0);
        assert_eq!(m21.tp, 3);
        assert!(m21.f_score > m12.f_score);
    }

    #[test]
    fn single_point_uses_rest_as_negatives() {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let g1 = pt.find_group(&db, &q, &[("grp", "g1")]).unwrap();
        let x = apt.field_index("prov_t_x").unwrap();
        let scorer = Scorer::exact(&apt, &pt);
        // x ≤ 3 covers 3 g1-rows, 1 g2-row, 0 g3-rows; a2 = 6 (rest).
        let p = Pattern::from_preds(vec![(
            x,
            Pred {
                op: PredOp::Le,
                value: PatValue::Int(3),
            },
        )]);
        let m = scorer.score(&p, g1, None);
        assert_eq!((m.tp, m.a1, m.fp, m.a2), (3, 4, 1, 6));
    }

    #[test]
    fn multiple_apt_extensions_count_once() {
        // Join that fans out: each PT row extends to 3 APT rows; covering
        // any of them covers the PT row exactly once (Definition 7(a)).
        let (mut db, q) = fixture();
        db.create_table(
            SchemaBuilder::new("ctx")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column_pk("copy", DataType::Int, AttrKind::Categorical)
                .column("y", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        for id in 1..=10 {
            for copy in 0..3 {
                db.table_mut("ctx")
                    .unwrap()
                    .push_row(vec![Value::Int(id), Value::Int(copy), Value::Int(copy)])
                    .unwrap();
            }
        }
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let mut g = JoinGraph::pt_only();
        g.nodes.push(cajade_graph::JgNode {
            label: cajade_graph::NodeLabel::Rel("ctx".into()),
        });
        g.edges.push(cajade_graph::JgEdge {
            from: 0,
            to: 1,
            cond: cajade_graph::JoinCond::on(&[("id", "id")]),
            schema_edge: 0,
            cond_idx: 0,
            pt_from_idx: Some(0),
        });
        let apt = Apt::materialize(&db, &pt, &g).unwrap();
        assert_eq!(apt.num_rows, 30);
        let (g1, g2) = groups(&db, &q, &pt);
        let scorer = Scorer::exact(&apt, &pt);
        // y ≥ 0 matches all three extensions of every PT row → still full
        // coverage, not triple.
        let y = apt.field_index("ctx.y").unwrap();
        let p = Pattern::from_preds(vec![(
            y,
            Pred {
                op: PredOp::Ge,
                value: PatValue::Int(0),
            },
        )]);
        let m = scorer.score(&p, g1, Some(g2));
        assert_eq!((m.tp, m.a1, m.fp, m.a2), (4, 4, 4, 4));
        // y ≥ 2 matches exactly one extension per PT row → same coverage.
        let p2 = Pattern::from_preds(vec![(
            y,
            Pred {
                op: PredOp::Ge,
                value: PatValue::Int(2),
            },
        )]);
        let m2 = scorer.score(&p2, g1, Some(g2));
        assert_eq!(m2.tp, 4);
    }

    #[test]
    fn sampled_scorer_keeps_full_denominators() {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let (g1, g2) = groups(&db, &q, &pt);
        // Sample only the first 5 APT rows (g1's 4 + g2's first); the
        // `a` denominators stay |PT(t)| per Definition 7.
        let scorer = Scorer::sampled(&apt, &pt, vec![0, 1, 2, 3, 4]);
        assert_eq!(scorer.scan_size(), 5);
        assert_eq!(scorer.group_size(g1), 4);
        assert_eq!(scorer.group_size(g2), 4);
        let m = scorer.score(&Pattern::empty(), g1, Some(g2));
        assert_eq!((m.tp, m.a1, m.fp, m.a2), (4, 4, 1, 4));
    }

    #[test]
    fn lossy_join_lowers_recall_not_denominator() {
        // A context table matching only half the PT rows: uncovered PT
        // rows count as FN (Definition 7(d)), so recall < 1 even for the
        // empty pattern over the APT.
        let (mut db, q) = fixture();
        db.create_table(
            SchemaBuilder::new("half")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("z", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        for id in [1i64, 2, 5, 6] {
            db.table_mut("half")
                .unwrap()
                .push_row(vec![Value::Int(id), Value::Int(0)])
                .unwrap();
        }
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let mut g = JoinGraph::pt_only();
        g.nodes.push(cajade_graph::JgNode {
            label: cajade_graph::NodeLabel::Rel("half".into()),
        });
        g.edges.push(cajade_graph::JgEdge {
            from: 0,
            to: 1,
            cond: cajade_graph::JoinCond::on(&[("id", "id")]),
            schema_edge: 0,
            cond_idx: 0,
            pt_from_idx: Some(0),
        });
        let apt = Apt::materialize(&db, &pt, &g).unwrap();
        let (g1, g2) = groups(&db, &q, &pt);
        let scorer = Scorer::exact(&apt, &pt);
        let m = scorer.score(&Pattern::empty(), g1, Some(g2));
        // g1 rows with ids 1,2,3,4 — only 1,2 joined; a1 stays 4.
        assert_eq!((m.tp, m.a1), (2, 4));
        assert!((m.recall - 0.5).abs() < 1e-12);
        // g2 rows ids 5..8 — 5,6 joined.
        assert_eq!((m.fp, m.a2), (2, 4));
    }

    #[test]
    fn empty_groups_yield_zero_scores() {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let scorer = Scorer::exact(&apt, &pt);
        // Group index 99 does not exist.
        let m = scorer.score(&Pattern::empty(), 99, Some(0));
        assert_eq!(m.tp, 0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f_score, 0.0);
    }
}
