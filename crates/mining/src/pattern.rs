//! Summarization patterns (paper Definition 5).
//!
//! A pattern assigns each APT attribute either `*` (unconstrained) or a
//! predicate: `= c` for categorical attributes, `= c` / `≤ x` / `≥ x` for
//! numeric attributes. We store patterns sparsely — only the non-`*`
//! slots — keyed by APT field index.

use std::fmt::Write as _;

use cajade_graph::Apt;
use cajade_storage::{StringPool, Value};

/// Comparison operator of a pattern predicate.
// Ordered as part of `Pred` (see there).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PredOp {
    /// Equality (the only operator allowed on categorical attributes).
    Eq,
    /// `attribute ≤ threshold` (numeric only).
    Le,
    /// `attribute ≥ threshold` (numeric only).
    Ge,
}

impl PredOp {
    /// Paper-style symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            PredOp::Eq => "=",
            PredOp::Le => "≤",
            PredOp::Ge => "≥",
        }
    }
}

/// A hashable pattern constant (float stored as ordered bits so patterns
/// can live in hash sets — the `done` set of Algorithm 1).
// Ordered as part of `Pred` (see there).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatValue {
    /// Integer constant.
    Int(i64),
    /// Float constant (bit pattern; construct via [`PatValue::from_value`]).
    Float(u64),
    /// Interned string constant.
    Str(u32),
}

impl PatValue {
    /// Converts a runtime value (non-null) into a pattern constant.
    pub fn from_value(v: &Value) -> Option<PatValue> {
        match v {
            Value::Int(i) => Some(PatValue::Int(*i)),
            Value::Float(f) => Some(PatValue::Float(f.to_bits())),
            Value::Str(id) => Some(PatValue::Str(id.0)),
            Value::Null => None,
        }
    }

    /// Converts back into a runtime value.
    pub fn to_value(self) -> Value {
        match self {
            PatValue::Int(i) => Value::Int(i),
            PatValue::Float(bits) => Value::Float(f64::from_bits(bits)),
            PatValue::Str(id) => Value::Str(cajade_storage::StrId(id)),
        }
    }

    /// Numeric view (for threshold predicates).
    pub fn as_f64(self) -> Option<f64> {
        match self {
            PatValue::Int(i) => Some(i as f64),
            PatValue::Float(bits) => Some(f64::from_bits(bits)),
            PatValue::Str(_) => None,
        }
    }
}

/// One predicate: operator + constant.
// Ordered only to key `ExactMasks`' sorted equality predicates; the
// derived `PartialOrd` compares integers (a float constant is its
// bits), never a float.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred {
    /// Comparison operator.
    pub op: PredOp,
    /// Constant / threshold.
    pub value: PatValue,
}

/// A sparse summarization pattern over an APT's attributes.
///
/// Invariant: `preds` is sorted by field index and field indices are
/// distinct, so structural equality and hashing give pattern identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Pattern {
    preds: Vec<(usize, Pred)>,
}

impl Pattern {
    /// The empty pattern (all `*`). Used as the refinement seed so that
    /// numeric-only patterns like `salary < 15330435` (Table 4's top
    /// explanation) can be mined; it is never reported itself.
    pub fn empty() -> Self {
        Pattern::default()
    }

    /// Builds a pattern from `(field, pred)` pairs (sorted + deduped;
    /// later entries on the same field win).
    pub fn from_preds(mut preds: Vec<(usize, Pred)>) -> Self {
        preds.sort_by_key(|(f, _)| *f);
        preds.dedup_by(|a, b| {
            if a.0 == b.0 {
                // keep the later entry (`a` is the later one in dedup_by)
                b.1 = a.1;
                true
            } else {
                false
            }
        });
        Pattern { preds }
    }

    /// The predicates, sorted by field index.
    pub fn preds(&self) -> &[(usize, Pred)] {
        &self.preds
    }

    /// Number of non-`*` attributes (`|Φ|` in the diversity score).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True for the empty pattern.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The predicate on `field`, if any.
    pub fn pred_on(&self, field: usize) -> Option<&Pred> {
        self.preds
            .binary_search_by_key(&field, |(f, _)| *f)
            .ok()
            .map(|i| &self.preds[i].1)
    }

    /// True iff `field` is unconstrained (`*`).
    pub fn is_free(&self, field: usize) -> bool {
        self.pred_on(field).is_none()
    }

    /// Returns a refinement: this pattern plus one predicate on a
    /// currently-free field (Definition: Φ′ is a refinement of Φ if it
    /// replaces one or more `*` slots with comparisons).
    pub fn refine(&self, field: usize, pred: Pred) -> Pattern {
        debug_assert!(self.is_free(field), "refining a constrained field");
        // Built at its final length: one allocation per child, in the
        // refinement BFS's innermost loop.
        let pos = self.preds.partition_point(|(f, _)| *f < field);
        let mut preds = Vec::with_capacity(self.preds.len() + 1);
        preds.extend_from_slice(&self.preds[..pos]);
        preds.push((field, pred));
        preds.extend_from_slice(&self.preds[pos..]);
        Pattern { preds }
    }

    /// Number of predicates on numeric-kind fields (λ_attrNum budget).
    pub fn num_numeric_preds(&self, apt: &Apt) -> usize {
        self.preds
            .iter()
            .filter(|(f, _)| apt.fields[*f].kind == cajade_storage::AttrKind::Numeric)
            .count()
    }

    /// True iff APT row `row` matches every predicate (Definition 5's
    /// `t ⊨ Φ`; NULL matches nothing).
    #[inline]
    pub fn matches(&self, apt: &Apt, row: usize) -> bool {
        for (field, pred) in &self.preds {
            let cell = apt.value(row, *field);
            if cell.is_null() {
                return false;
            }
            let ok = match pred.op {
                PredOp::Eq => cell.sql_eq(&pred.value.to_value()),
                PredOp::Le => match (cell.as_f64(), pred.value.as_f64()) {
                    (Some(x), Some(t)) => x <= t,
                    _ => false,
                },
                PredOp::Ge => match (cell.as_f64(), pred.value.as_f64()) {
                    (Some(x), Some(t)) => x >= t,
                    _ => false,
                },
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Renders the pattern in the paper's description style,
    /// e.g. `scoring.player=S. Curry ∧ scoring.pts≥23`.
    pub fn render(&self, apt: &Apt, pool: &StringPool) -> String {
        if self.preds.is_empty() {
            return "⟨empty⟩".to_string();
        }
        let mut out = String::new();
        for (i, (field, pred)) in self.preds.iter().enumerate() {
            if i > 0 {
                out.push_str(" ∧ ");
            }
            let _ = write!(
                out,
                "{}{}{}",
                apt.fields[*field].name,
                pred.op.symbol(),
                pred.value.to_value().render(pool)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cajade_graph::{Apt, JoinGraph};
    use cajade_query::{parse_sql, ProvenanceTable};
    use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder};

    /// Small APT fixture: a single-table PT with one categorical and one
    /// numeric attribute.
    fn fixture() -> (Database, Apt) {
        let mut db = Database::new("f");
        db.create_table(
            SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("grp", DataType::Str, AttrKind::Categorical)
                .column("cat", DataType::Str, AttrKind::Categorical)
                .column("num", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let a = db.intern("a");
        let b = db.intern("b");
        let g1 = db.intern("g1");
        let g2 = db.intern("g2");
        let rows = [
            (1, g1, a, 10),
            (2, g1, a, 20),
            (3, g1, b, 30),
            (4, g2, b, 40),
            (5, g2, a, 50),
        ];
        for (id, g, c, n) in rows {
            db.table_mut("t")
                .unwrap()
                .push_row(vec![
                    Value::Int(id),
                    Value::Str(g),
                    Value::Str(c),
                    Value::Int(n),
                ])
                .unwrap();
        }
        let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        (db, apt)
    }

    #[test]
    fn match_semantics() {
        let (db, apt) = fixture();
        let cat = apt.field_index("prov_t_cat").unwrap();
        let num = apt.field_index("prov_t_num").unwrap();
        let a = db.lookup_str("a").unwrap();
        let p = Pattern::from_preds(vec![
            (
                cat,
                Pred {
                    op: PredOp::Eq,
                    value: PatValue::Str(a.0),
                },
            ),
            (
                num,
                Pred {
                    op: PredOp::Le,
                    value: PatValue::Int(20),
                },
            ),
        ]);
        let matches: Vec<usize> = (0..apt.num_rows).filter(|&r| p.matches(&apt, r)).collect();
        assert_eq!(matches, vec![0, 1]); // rows with cat=a and num≤20
    }

    #[test]
    fn ge_predicate() {
        let (_db, apt) = fixture();
        let num = apt.field_index("prov_t_num").unwrap();
        let p = Pattern::from_preds(vec![(
            num,
            Pred {
                op: PredOp::Ge,
                value: PatValue::Int(40),
            },
        )]);
        let count = (0..apt.num_rows).filter(|&r| p.matches(&apt, r)).count();
        assert_eq!(count, 2);
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let (_db, apt) = fixture();
        let p = Pattern::empty();
        assert!(p.is_empty());
        assert!((0..apt.num_rows).all(|r| p.matches(&apt, r)));
    }

    #[test]
    fn refine_preserves_sorted_invariant() {
        let (_db, apt) = fixture();
        let cat = apt.field_index("prov_t_cat").unwrap();
        let num = apt.field_index("prov_t_num").unwrap();
        let p = Pattern::empty()
            .refine(
                num,
                Pred {
                    op: PredOp::Le,
                    value: PatValue::Int(30),
                },
            )
            .refine(
                cat,
                Pred {
                    op: PredOp::Eq,
                    value: PatValue::Str(0),
                },
            );
        assert_eq!(p.len(), 2);
        assert!(p.preds().windows(2).all(|w| w[0].0 < w[1].0));
        assert!(!p.is_free(cat));
        assert!(p.is_free(0));
    }

    #[test]
    fn pattern_identity_in_hash_set() {
        use std::collections::HashSet;
        let p1 = Pattern::from_preds(vec![
            (
                3,
                Pred {
                    op: PredOp::Le,
                    value: PatValue::Float(2.5f64.to_bits()),
                },
            ),
            (
                1,
                Pred {
                    op: PredOp::Eq,
                    value: PatValue::Str(7),
                },
            ),
        ]);
        let p2 = Pattern::from_preds(vec![
            (
                1,
                Pred {
                    op: PredOp::Eq,
                    value: PatValue::Str(7),
                },
            ),
            (
                3,
                Pred {
                    op: PredOp::Le,
                    value: PatValue::Float(2.5f64.to_bits()),
                },
            ),
        ]);
        let mut set = HashSet::new();
        set.insert(p1);
        assert!(set.contains(&p2), "order-insensitive identity");
    }

    #[test]
    fn from_preds_dedups_same_field() {
        let p = Pattern::from_preds(vec![
            (
                1,
                Pred {
                    op: PredOp::Eq,
                    value: PatValue::Int(1),
                },
            ),
            (
                1,
                Pred {
                    op: PredOp::Eq,
                    value: PatValue::Int(2),
                },
            ),
        ]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn render_uses_field_names_and_pool() {
        let (db, apt) = fixture();
        let cat = apt.field_index("prov_t_cat").unwrap();
        let a = db.lookup_str("a").unwrap();
        let p = Pattern::from_preds(vec![(
            cat,
            Pred {
                op: PredOp::Eq,
                value: PatValue::Str(a.0),
            },
        )]);
        assert_eq!(p.render(&apt, db.pool()), "prov_t_cat=a");
        assert_eq!(Pattern::empty().render(&apt, db.pool()), "⟨empty⟩");
    }

    #[test]
    fn null_never_matches() {
        let mut db = Database::new("n");
        db.create_table(
            SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("grp", DataType::Str, AttrKind::Categorical)
                .column("x", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let g = db.intern("g");
        db.table_mut("t")
            .unwrap()
            .push_row(vec![Value::Int(1), Value::Str(g), Value::Null])
            .unwrap();
        let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let x = apt.field_index("prov_t_x").unwrap();
        for op in [PredOp::Eq, PredOp::Le, PredOp::Ge] {
            let p = Pattern::from_preds(vec![(
                x,
                Pred {
                    op,
                    value: PatValue::Int(0),
                },
            )]);
            assert!(!p.matches(&apt, 0), "{op:?} must not match NULL");
        }
    }

    use cajade_storage::Value;
}
