//! Data-driven join discovery — the paper's §8 future-work item
//! ("integrate context-based explanations with join discovery techniques
//! (e.g., [18, 53]) to automatically find datasets to be used as
//! context"), in the spirit of Aurum \[18\] and JOSIE \[53\].
//!
//! For every pair of join-compatible columns across relations we estimate
//! the **containment** `|vals(A) ∩ vals(B)| / |vals(A)|` over (sampled)
//! distinct values. A high-containment pair whose right side is
//! near-unique looks like a foreign-key → key relationship and becomes a
//! proposed join condition; name similarity breaks ties. The result can
//! seed or extend a [`SchemaGraph`] when no foreign keys are declared.

use std::collections::HashSet;

use cajade_storage::rowkey::{KeyedSet, KeyedState};
use cajade_storage::{AttrKind, Column, DataType, Database};

use crate::schema_graph::{JoinCond, SchemaGraph};
use crate::Result;

/// Discovery thresholds.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Minimum containment of the from-side values in the to-side values.
    pub min_containment: f64,
    /// Minimum uniqueness (ndv / rows) of the to-side column — FK targets
    /// are keys or near-keys.
    pub min_to_uniqueness: f64,
    /// Minimum fraction of the to-side's distinct values referenced by
    /// the from side ([`JoinCandidate::to_coverage`]). Real foreign keys
    /// exercise most of their target; a dense surrogate-key range that
    /// merely contains another id column's values is referenced only
    /// partially and gets rejected here.
    pub min_to_coverage: f64,
}

/// Cap on distinct values collected per column (memory guard).
const MAX_DISTINCT: usize = 100_000;

/// Columns with fewer distinct values than this are skipped: booleans and
/// flags join everything.
const MIN_DISTINCT: usize = 3;

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self {
            min_containment: 0.95,
            min_to_uniqueness: 0.9,
            min_to_coverage: 0.5,
        }
    }
}

/// One proposed join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCandidate {
    /// Referencing relation (the fact side).
    pub from_table: String,
    /// Referencing attribute.
    pub from_col: String,
    /// Referenced relation (the key side).
    pub to_table: String,
    /// Referenced attribute.
    pub to_col: String,
    /// Fraction of from-side values contained in the to side.
    pub containment: f64,
    /// ndv/rows of the to-side column.
    pub to_uniqueness: f64,
    /// Fraction of the to-side's distinct values the from side actually
    /// references. True foreign keys tend to exercise most of their
    /// target key; a dense surrogate-key range that merely *happens* to
    /// contain another id column's values (the classic inclusion-
    /// dependency false positive) is referenced only partially. Gated by
    /// [`DiscoveryConfig::min_to_coverage`] and used to pick the best
    /// target among same-score candidates. On *sampled or filtered*
    /// data, where real FKs legitimately reference few target keys,
    /// lower (or zero) the gate.
    pub to_coverage: f64,
    /// Combined ranking score (containment × uniqueness, +name bonus).
    pub score: f64,
}

impl JoinCandidate {
    /// One-line rendering with the evidence that ranked it, e.g.
    /// `orders.customer_id → customers.id (containment 1.00, uniqueness 1.00, coverage 0.95)`.
    pub fn render(&self) -> String {
        format!(
            "{}.{} → {}.{} (containment {:.2}, uniqueness {:.2}, coverage {:.2})",
            self.from_table,
            self.from_col,
            self.to_table,
            self.to_col,
            self.containment,
            self.to_uniqueness,
            self.to_coverage
        )
    }
}

/// A schema graph assembled (or extended) by discovery, with the
/// provenance of every proposed join that made it in — callers surface
/// these so users can audit *why* the system joins their tables.
#[derive(Debug, Clone)]
pub struct DiscoveredGraph {
    /// The (extended) schema graph, already validated against the database.
    pub graph: SchemaGraph,
    /// The discovered candidates that were accepted, strongest first.
    pub accepted: Vec<JoinCandidate>,
    /// Candidates that passed the thresholds but were dropped — because a
    /// pinned edge already connects their table pair, their referencing
    /// column already took a better target, or the `max_new` budget ran
    /// out. Kept for reporting ("the system also noticed …").
    pub skipped: Vec<JoinCandidate>,
    /// How many of `skipped` were dropped *only* because the `max_new`
    /// budget was exhausted — the count that justifies telling the user
    /// to raise it.
    pub budget_skipped: usize,
}

/// Distinct-value fingerprint of one column.
struct ColumnSet {
    table: String,
    col: String,
    dtype: DataType,
    values: KeyedSet<u64>,
    rows: usize,
    truncated: bool,
}

fn fingerprint(col: &Column, rows: usize, cap: usize) -> (KeyedSet<u64>, bool) {
    let mut set =
        KeyedSet::with_capacity_and_hasher(rows.min(cap).min(4096), KeyedState::default());
    let mut truncated = false;
    for r in 0..rows {
        let h = match col.value(r) {
            cajade_storage::Value::Null => continue,
            cajade_storage::Value::Int(i) => i as u64 ^ 0x9E37_79B9_7F4A_7C15,
            cajade_storage::Value::Float(f) => f.to_bits(),
            cajade_storage::Value::Str(s) => (s.0 as u64) << 3 | 0b101,
        };
        if set.len() >= cap {
            truncated = true;
            break;
        }
        set.insert(h);
    }
    (set, truncated)
}

/// Scans the database and proposes join conditions, strongest first.
pub fn discover_joins(db: &Database, cfg: &DiscoveryConfig) -> Vec<JoinCandidate> {
    // Collect categorical-column fingerprints (joins in this model are
    // equi-joins on categorical attributes; Definition 2 allows only
    // equality conditions).
    let mut cols: Vec<ColumnSet> = Vec::new();
    for t in db.tables() {
        for (ci, f) in t.schema().fields.iter().enumerate() {
            if f.kind != AttrKind::Categorical {
                continue;
            }
            let (values, truncated) = fingerprint(t.column(ci), t.num_rows(), MAX_DISTINCT);
            if values.len() < MIN_DISTINCT {
                continue;
            }
            cols.push(ColumnSet {
                table: t.name().to_string(),
                col: f.name.clone(),
                dtype: f.dtype,
                values,
                rows: t.num_rows(),
                truncated,
            });
        }
    }

    let mut out = Vec::new();
    for (i, a) in cols.iter().enumerate() {
        for b in &cols[i + 1..] {
            if a.table == b.table || a.dtype != b.dtype {
                continue;
            }
            // One intersection serves both directions.
            let inter = a.values.intersection(&b.values).count();
            out.extend(candidate(a, b, inter, cfg));
            out.extend(candidate(b, a, inter, cfg));
        }
    }
    // Strongest first: score, then target coverage (breaks the dense-
    // surrogate-key ties in favour of the fully-referenced key), then a
    // lexicographic tail for determinism. The order is total, so the
    // order candidates were found in does not matter.
    out.sort_by(|x, y| {
        y.score
            .total_cmp(&x.score)
            .then_with(|| y.to_coverage.total_cmp(&x.to_coverage))
            .then_with(|| {
                (
                    x.from_table.as_str(),
                    x.from_col.as_str(),
                    x.to_table.as_str(),
                    x.to_col.as_str(),
                )
                    .cmp(&(
                        y.from_table.as_str(),
                        y.from_col.as_str(),
                        y.to_table.as_str(),
                        y.to_col.as_str(),
                    ))
            })
    });
    out
}

/// The directional candidate `a ⊆ b` with `b` near-unique, given the two
/// value sets' intersection size, if it passes the thresholds.
fn candidate(
    a: &ColumnSet,
    b: &ColumnSet,
    inter: usize,
    cfg: &DiscoveryConfig,
) -> Option<JoinCandidate> {
    let containment = inter as f64 / a.values.len() as f64;
    if containment < cfg.min_containment {
        return None;
    }
    let to_uniqueness = if b.rows == 0 || b.truncated {
        0.0
    } else {
        b.values.len() as f64 / b.rows as f64
    };
    if to_uniqueness < cfg.min_to_uniqueness {
        return None;
    }
    let to_coverage = inter as f64 / b.values.len().max(1) as f64;
    if to_coverage < cfg.min_to_coverage {
        return None;
    }
    let name_bonus = if a.col == b.col {
        0.1
    } else if a.col.contains(&b.col) || b.col.contains(&a.col) {
        0.05
    } else {
        0.0
    };
    Some(JoinCandidate {
        from_table: a.table.clone(),
        from_col: a.col.clone(),
        to_table: b.table.clone(),
        to_col: b.col.clone(),
        containment,
        to_uniqueness,
        to_coverage,
        score: containment * to_uniqueness + name_bonus,
    })
}

/// Builds a schema graph from discovered joins (top `max_edges` candidates
/// after validation), usable when a database declares no foreign keys.
pub fn discovered_schema_graph(
    db: &Database,
    cfg: &DiscoveryConfig,
    max_edges: usize,
) -> Result<SchemaGraph> {
    Ok(extend_schema_graph(db, cfg, SchemaGraph::new(), max_edges)?.graph)
}

/// Extends a *pinned* base graph (manifest-declared or FK-derived joins)
/// with up to `max_new` discovered joins, keeping per-candidate
/// provenance. Three selection rules separate this from blindly taking
/// the strongest candidates:
///
/// * **pinned pairs are authoritative** — a candidate between a pair of
///   relations the base graph already connects is skipped rather than
///   second-guessed (the declared condition may be composite or
///   otherwise out of reach of single-column containment discovery, and
///   layering a weaker discovered variant next to it would distort
///   enumeration);
/// * **one target per referencing column** — a foreign key references
///   one relation, so each `(from_table, from_col)` keeps only its
///   best-ranked target (score, then [`JoinCandidate::to_coverage`]);
/// * **composite-consumed columns stay consumed** — a referencing column
///   already used on the referencing (a-)side of a pinned *composite*
///   condition proposes no single-column joins of its own: its
///   containments are transitive artifacts of the composite key (e.g.
///   `stats.home_id ⊆ team.team_id` follows from
///   `stats(game_date, home_id) → game → team`);
/// * **no duplicate conditions** — a candidate whose condition already
///   exists on the pair's edge (in either orientation, e.g. the reverse
///   direction of an already-accepted join) is skipped.
pub fn extend_schema_graph(
    db: &Database,
    cfg: &DiscoveryConfig,
    base: SchemaGraph,
    max_new: usize,
) -> Result<DiscoveredGraph> {
    let pinned_pairs: HashSet<(String, String)> = base
        .edges()
        .iter()
        .flat_map(|e| [(e.a.clone(), e.b.clone()), (e.b.clone(), e.a.clone())])
        .collect();
    let composite_consumed: HashSet<(String, String)> = base
        .edges()
        .iter()
        .flat_map(|e| {
            e.conds
                .iter()
                .filter(|c| c.pairs.len() > 1)
                .flat_map(|c| c.pairs.iter().map(|p| (e.a.clone(), p.left.clone())))
        })
        .collect();
    let mut graph = base;
    let mut accepted: Vec<JoinCandidate> = Vec::new();
    let mut skipped = Vec::new();
    let mut budget_skipped = 0usize;
    let mut from_cols_used: HashSet<(String, String)> = HashSet::new();
    for cand in discover_joins(db, cfg) {
        let from_coord = (cand.from_table.clone(), cand.from_col.clone());
        let covered = pinned_pairs.contains(&(cand.from_table.clone(), cand.to_table.clone()))
            || composite_consumed.contains(&from_coord);
        let from_col_taken = from_cols_used.contains(&from_coord);
        let cond = JoinCond::on(&[(cand.from_col.as_str(), cand.to_col.as_str())]);
        let duplicate = has_condition(&graph, &cand.from_table, &cand.to_table, &cond);
        if covered || from_col_taken || duplicate || accepted.len() >= max_new {
            if !(covered || from_col_taken || duplicate) {
                budget_skipped += 1;
            }
            skipped.push(cand);
            continue;
        }
        from_cols_used.insert((cand.from_table.clone(), cand.from_col.clone()));
        graph.add_condition(&cand.from_table, &cand.to_table, cond);
        accepted.push(cand);
    }
    graph.validate(db)?;
    Ok(DiscoveredGraph {
        graph,
        accepted,
        skipped,
        budget_skipped,
    })
}

/// True when `graph` already carries `cond` between `a` and `b` (in
/// either orientation).
fn has_condition(graph: &SchemaGraph, a: &str, b: &str, cond: &JoinCond) -> bool {
    graph.edges().iter().any(|e| {
        (e.a == a && e.b == b && e.conds.contains(cond))
            || (e.a == b && e.b == a && e.conds.contains(&cond.flipped()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cajade_storage::{SchemaBuilder, Value};

    /// orders.customer_id ⊆ customers.id (a perfect FK, undeclared).
    fn undeclared_fk_db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            SchemaBuilder::new("customers")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("name", DataType::Str, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        db.create_table(
            SchemaBuilder::new("orders")
                .column_pk("order_id", DataType::Int, AttrKind::Categorical)
                .column("customer_id", DataType::Int, AttrKind::Categorical)
                .column("amount", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        // Realistic surrogate keys: customer ids are sparse (not a dense
        // 0..n range), so they are NOT accidentally contained in the
        // order-id sequence — the classic inclusion-dependency false
        // positive this test would otherwise trip over.
        for i in 0..50i64 {
            let n = db.intern(&format!("c{i}"));
            db.table_mut("customers")
                .unwrap()
                .push_row(vec![Value::Int(i * 97 + 13), Value::Str(n)])
                .unwrap();
        }
        for o in 0..200i64 {
            db.table_mut("orders")
                .unwrap()
                .push_row(vec![
                    Value::Int(o),
                    Value::Int((o % 50) * 97 + 13),
                    Value::Int(o * 3),
                ])
                .unwrap();
        }
        db
    }

    #[test]
    fn discovers_undeclared_fk() {
        let db = undeclared_fk_db();
        let cands = discover_joins(&db, &DiscoveryConfig::default());
        let fk = cands.iter().find(|c| {
            c.from_table == "orders"
                && c.from_col == "customer_id"
                && c.to_table == "customers"
                && c.to_col == "id"
        });
        let fk = fk.expect("customer FK discovered");
        assert!((fk.containment - 1.0).abs() < 1e-9);
        assert!(fk.to_uniqueness > 0.99);
    }

    #[test]
    fn direction_matters() {
        // customers.id ⊄ orders.order_id — and even when contained by
        // accident, the uniqueness gate rejects non-key targets.
        let db = undeclared_fk_db();
        let cands = discover_joins(&db, &DiscoveryConfig::default());
        assert!(!cands.iter().any(|c| {
            c.from_table == "customers" && c.to_table == "orders" && c.to_col == "customer_id"
        }));
    }

    #[test]
    fn numeric_columns_are_not_join_candidates() {
        let db = undeclared_fk_db();
        let cands = discover_joins(&db, &DiscoveryConfig::default());
        assert!(cands
            .iter()
            .all(|c| c.from_col != "amount" && c.to_col != "amount"));
    }

    #[test]
    fn discovered_graph_validates_and_enumerates() {
        let db = undeclared_fk_db();
        let g = discovered_schema_graph(&db, &DiscoveryConfig::default(), 5).unwrap();
        assert!(!g.edges().is_empty());
        // The discovered edge carries the right condition.
        let e = &g.edges()[0];
        let pair = &e.conds[0].pairs[0];
        let names = [
            (e.a.as_str(), pair.left.as_str()),
            (e.b.as_str(), pair.right.as_str()),
        ];
        assert!(names.contains(&("orders", "customer_id")));
        assert!(names.contains(&("customers", "id")));
    }

    #[test]
    fn pinned_pairs_are_not_second_guessed() {
        let db = undeclared_fk_db();
        // Pin a (deliberately different) condition between orders and
        // customers: discovery must not layer its own variant on the pair.
        let mut base = SchemaGraph::new();
        base.add_condition("orders", "customers", JoinCond::on(&[("order_id", "id")]));
        let out = extend_schema_graph(&db, &DiscoveryConfig::default(), base, 8).unwrap();
        assert!(out.accepted.is_empty());
        assert!(out
            .skipped
            .iter()
            .any(|c| c.from_table == "orders" && c.to_table == "customers"));
        assert_eq!(out.graph.edges().len(), 1);
        assert_eq!(out.graph.edges()[0].conds.len(), 1);
    }

    #[test]
    fn extend_reports_provenance() {
        let db = undeclared_fk_db();
        let out =
            extend_schema_graph(&db, &DiscoveryConfig::default(), SchemaGraph::new(), 8).unwrap();
        assert!(!out.accepted.is_empty());
        let best = &out.accepted[0];
        assert_eq!(
            (best.from_table.as_str(), best.to_table.as_str()),
            ("orders", "customers")
        );
        assert!(best.render().contains("orders.customer_id → customers.id"));
        // Every accepted candidate has a matching graph condition.
        for c in &out.accepted {
            assert!(out.graph.edges().iter().any(|e| {
                (e.a == c.from_table && e.b == c.to_table)
                    || (e.a == c.to_table && e.b == c.from_table)
            }));
        }
    }

    #[test]
    fn low_containment_rejected() {
        let mut db = undeclared_fk_db();
        // A column with ids far outside the customer range.
        db.create_table(
            SchemaBuilder::new("misc")
                .column_pk("code", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        for i in 1000..1050i64 {
            db.table_mut("misc")
                .unwrap()
                .push_row(vec![Value::Int(i)])
                .unwrap();
        }
        let cands = discover_joins(&db, &DiscoveryConfig::default());
        assert!(!cands
            .iter()
            .any(|c| c.from_table == "misc" || c.to_table == "misc"));
    }
}
