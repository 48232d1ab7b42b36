//! Functional-dependency-aware attribute exclusion — the extension the
//! paper names as future work (§6.2: explanations that merely restate the
//! grouped value through a functional dependency "cannot be avoided"
//! without FD reasoning; §8 lists integrating FDs as an open direction).
//!
//! We detect, on the materialized APT, attributes `A` such that `A →
//! group` holds *exactly* (every non-null value of `A` maps to a single
//! output tuple) and the dependency is *informative-free*: knowing `A`
//! pins down the group, so any pattern `A = c` is a tautological
//! restatement of the user question. Such attributes (e.g. `season_id`
//! when grouping by `season_name`, or a date column unique per season)
//! can be excluded from mining automatically instead of via a manual ban
//! list.
//!
//! The check runs on the actual APT instance (the only scope where
//! patterns are evaluated), over the groups of the preparation it serves
//! (see [`group_determining_fields`]), in one scan per attribute.

use std::collections::HashMap;

use cajade_graph::Apt;
use cajade_query::ProvenanceTable;

use crate::pattern::PatValue;
use crate::score::Question;

/// Returns the APT field indices whose values functionally determine the
/// output group within the scope of `question` — both groups of a
/// two-point question; every group for a single-point one and for `None`
/// (a question-independent preparation), where a reported field is a true
/// `A → group-by` dependency on this APT. Constant attributes are *not*
/// reported (they determine nothing; feature selection already down-ranks
/// them).
///
/// `min_distinct` guards against trivially-keyed columns being kept: an
/// attribute must have at least 2 distinct values to be a meaningful FD
/// source (a constant column vacuously "determines" the group).
pub fn group_determining_fields(
    apt: &Apt,
    pt: &ProvenanceTable,
    question: Option<&Question>,
) -> Vec<usize> {
    let in_scope = |g: u32| question.is_none_or(|q| q.in_scope(g as usize));

    let mut out = Vec::new();
    for field in apt.pattern_fields() {
        let mut value_group: HashMap<PatValue, u32> = HashMap::new();
        let mut determines = true;
        let mut groups_seen: Vec<u32> = Vec::new();
        for row in 0..apt.num_rows {
            let g = pt.group_of[apt.pt_row[row] as usize];
            if !in_scope(g) {
                continue;
            }
            let v = apt.value(row, field);
            let Some(pv) = PatValue::from_value(&v) else {
                continue; // NULLs do not participate in the FD
            };
            match value_group.get(&pv) {
                Some(&prev) if prev != g => {
                    determines = false;
                    break;
                }
                Some(_) => {}
                None => {
                    value_group.insert(pv, g);
                    if !groups_seen.contains(&g) {
                        groups_seen.push(g);
                    }
                }
            }
        }
        // Determining + non-constant + actually distinguishing the groups.
        if determines && value_group.len() >= 2 && groups_seen.len() >= 2 {
            out.push(field);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cajade_graph::JoinGraph;
    use cajade_query::{parse_sql, ProvenanceTable};
    use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

    /// Fixture: `season_id` determines `season_name` (the FD), `pts`
    /// varies freely, `constant` never changes.
    fn fixture() -> (Database, cajade_query::Query) {
        let mut db = Database::new("fd");
        db.create_table(
            SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("season_name", DataType::Str, AttrKind::Categorical)
                .column("season_id", DataType::Int, AttrKind::Categorical)
                .column("pts", DataType::Int, AttrKind::Numeric)
                .column("constant", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        let s1 = db.intern("2012-13");
        let s2 = db.intern("2015-16");
        for i in 0..20i64 {
            let (name, sid) = if i % 2 == 0 { (s1, 4) } else { (s2, 7) };
            db.table_mut("t")
                .unwrap()
                .push_row(vec![
                    Value::Int(i),
                    Value::Str(name),
                    Value::Int(sid),
                    Value::Int(i % 7),
                    Value::Int(1),
                ])
                .unwrap();
        }
        let q = parse_sql("SELECT count(*) AS c, season_name FROM t GROUP BY season_name").unwrap();
        (db, q)
    }

    #[test]
    fn detects_fd_restating_attribute() {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let question = Question::TwoPoint { t1: 0, t2: 1 };
        let fd = group_determining_fields(&apt, &pt, Some(&question));
        let season_id = apt.field_index("prov_t_season__id").unwrap();
        assert!(fd.contains(&season_id), "season_id → group detected");
    }

    #[test]
    fn free_and_constant_attributes_not_flagged() {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let question = Question::TwoPoint { t1: 0, t2: 1 };
        let fd = group_determining_fields(&apt, &pt, Some(&question));
        let pts = apt.field_index("prov_t_pts").unwrap();
        let constant = apt.field_index("prov_t_constant").unwrap();
        assert!(!fd.contains(&pts), "pts has mixed groups per value");
        assert!(!fd.contains(&constant), "constants are not FD sources");
    }

    #[test]
    fn unique_key_is_flagged() {
        // The `id` column is unique per row → trivially determines the
        // group; it must be flagged (patterns on row ids are tautologies).
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let question = Question::TwoPoint { t1: 0, t2: 1 };
        let fd = group_determining_fields(&apt, &pt, Some(&question));
        let id = apt.field_index("prov_t_id").unwrap();
        assert!(fd.contains(&id));
    }

    /// A question-independent preparation sees what a single-point
    /// question sees: every group.
    #[test]
    fn no_question_is_the_single_point_scope() {
        let (db, q) = fixture();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let all_groups = group_determining_fields(&apt, &pt, None);
        assert!(all_groups.contains(&apt.field_index("prov_t_season__id").unwrap()));
        for t in 0..pt.rows_of_group.len() {
            let single = Question::SinglePoint { t };
            assert_eq!(
                all_groups,
                group_determining_fields(&apt, &pt, Some(&single))
            );
        }
    }

    #[test]
    fn scope_restricted_to_question_groups() {
        // An attribute that determines the group only within {t1, t2} but
        // not globally must still be flagged for a two-point question.
        let mut db = Database::new("fd2");
        db.create_table(
            SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("grp", DataType::Str, AttrKind::Categorical)
                .column("x", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        let a = db.intern("a");
        let b = db.intern("b");
        let c = db.intern("c");
        // x=1 ↔ grp a; x=2 ↔ grp b; but grp c reuses x=1 and x=2.
        let rows = [
            (1, a, 1),
            (2, a, 1),
            (3, b, 2),
            (4, b, 2),
            (5, c, 1),
            (6, c, 2),
        ];
        for (id, g, x) in rows {
            db.table_mut("t")
                .unwrap()
                .push_row(vec![Value::Int(id), Value::Str(g), Value::Int(x)])
                .unwrap();
        }
        let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        let ta = pt.find_group(&db, &q, &[("grp", "a")]).unwrap();
        let tb = pt.find_group(&db, &q, &[("grp", "b")]).unwrap();
        let x = apt.field_index("prov_t_x").unwrap();

        let two_point =
            group_determining_fields(&apt, &pt, Some(&Question::TwoPoint { t1: ta, t2: tb }));
        assert!(two_point.contains(&x), "within {{a,b}} x determines grp");

        let single = group_determining_fields(&apt, &pt, Some(&Question::SinglePoint { t: ta }));
        assert!(!single.contains(&x), "globally x does not determine grp");
        assert_eq!(group_determining_fields(&apt, &pt, None), single);
    }
}
