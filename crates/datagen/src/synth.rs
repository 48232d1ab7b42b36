//! Parameterized synthetic corpus for the scale sweep: rows and schema
//! width scale **independently**.
//!
//! The NBA duplicate-up of [`crate::scale`] grows the *rows* axis but
//! keeps the Figure-5 schema fixed at eleven relations; nothing in the
//! corpus family exercises the per-table/per-column costs (join-graph
//! enumeration, feature selection, column statistics) at varying width.
//! This module closes that gap with a star schema whose shape is fully
//! parameterized and deterministic from a seed:
//!
//! * a `fact` table (`rows` rows) with a low-cardinality `grp` column —
//!   the workload query groups on it — and one foreign key per
//!   dimension;
//! * `tables` dimension tables, each with `columns` numeric context
//!   columns, a categorical label of `cardinality` distinct values, and
//!   `rows / fanout` keys (so `fanout` fact rows share one dimension
//!   row, like games sharing a season).
//!
//! Dimension keys live in disjoint ranges (`dim_i` keys start at
//! `(i+1)·10⁷`) so containment-based join discovery on a CSV round-trip
//! recovers exactly the declared joins and no accidental ones.
//!
//! A correlation is planted for mining: `grp = "g0"` fact rows draw
//! their dimension keys from the lower half of each key range and get a
//! higher `val`, so low-key context columns separate `g0` from the rest
//! and every scale point mines non-trivial patterns.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use cajade_graph::SchemaGraph;
use cajade_storage::{AttrKind, DataType, Database, ForeignKey, SchemaBuilder, StrId, Value};

use crate::GeneratedDb;

/// The workload query every synthetic corpus supports (two-point
/// questions compare `grp` values, e.g. `g0` vs `g1`).
pub const SYNTH_SQL: &str = "SELECT COUNT(*) AS n, grp FROM fact GROUP BY grp";

/// Number of distinct `fact.grp` groups (the query's GROUP BY output).
pub const GROUPS: usize = 4;

/// Key-range offset separating the dimension tables' id spaces.
const DIM_KEY_STRIDE: i64 = 10_000_000;

/// Shape of a synthetic corpus. Every field is independent; the
/// scale-sweep harness moves `rows` with the shape fixed (rows axis) and
/// `tables`/`columns` with the rows fixed (width axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthConfig {
    /// Fact-table rows (the rows axis).
    pub rows: usize,
    /// Dimension tables joined to the fact table (the width axis).
    pub tables: usize,
    /// Numeric context columns per dimension table (the width axis).
    pub columns: usize,
    /// Fact rows per dimension key: each dimension has
    /// `max(1, rows / fanout)` rows.
    pub fanout: usize,
    /// Distinct values of each dimension's categorical label column.
    pub cardinality: usize,
    /// RNG seed; equal configs generate byte-identical corpora.
    pub seed: u64,
}

impl SynthConfig {
    /// Base shape for tests and the sweep's origin point: 2 000 fact
    /// rows, 3 dimensions × 4 numeric columns, fan-out 8, 16 labels.
    pub fn small() -> Self {
        SynthConfig {
            rows: 2_000,
            tables: 3,
            columns: 4,
            fanout: 8,
            cardinality: 16,
            seed: 42,
        }
    }

    /// Same shape, different row count (the rows axis).
    pub fn with_rows(self, rows: usize) -> Self {
        SynthConfig { rows, ..self }
    }

    /// Same row count, different schema width (the tables/columns axis).
    pub fn with_width(self, tables: usize, columns: usize) -> Self {
        SynthConfig {
            tables,
            columns,
            ..self
        }
    }
}

/// Generates the synthetic star corpus for `cfg`. Deterministic: the
/// same config (including seed) yields an identical database.
pub fn generate(cfg: &SynthConfig) -> GeneratedDb {
    assert!(cfg.tables >= 1, "need at least one dimension table");
    assert!(cfg.fanout >= 1, "fanout must be ≥ 1");
    assert!(cfg.cardinality >= 1, "cardinality must be ≥ 1");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Database::new("synth");
    let dim_rows = (cfg.rows / cfg.fanout).max(1);

    // ---- Schemas -------------------------------------------------------
    let mut fact = SchemaBuilder::new("fact")
        .column_pk("fact_id", DataType::Int, AttrKind::Categorical)
        .column("grp", DataType::Str, AttrKind::Categorical)
        .column("val", DataType::Float, AttrKind::Numeric);
    for d in 0..cfg.tables {
        fact = fact.column(format!("dim{d}_id"), DataType::Int, AttrKind::Categorical);
    }
    db.create_table(fact.build()).expect("fresh database");
    for d in 0..cfg.tables {
        let mut dim = SchemaBuilder::new(format!("dim{d}"))
            .column_pk(format!("dim{d}_id"), DataType::Int, AttrKind::Categorical)
            .column(format!("label{d}"), DataType::Str, AttrKind::Categorical);
        for c in 0..cfg.columns {
            dim = dim.column(format!("num{d}_{c}"), DataType::Float, AttrKind::Numeric);
        }
        db.create_table(dim.build()).expect("unique table names");
    }

    // ---- Dimension rows ------------------------------------------------
    let labels: Vec<Vec<StrId>> = (0..cfg.tables)
        .map(|d| {
            (0..cfg.cardinality)
                .map(|v| db.intern(&format!("L{d}_{v}")))
                .collect()
        })
        .collect();
    for (d, dim_labels) in labels.iter().enumerate() {
        let base = (d as i64 + 1) * DIM_KEY_STRIDE;
        for k in 0..dim_rows {
            let mut row = Vec::with_capacity(2 + cfg.columns);
            row.push(Value::Int(base + k as i64));
            row.push(Value::Str(dim_labels[k % cfg.cardinality]));
            for c in 0..cfg.columns {
                // Low keys get low values: the planted correlation's
                // context side. `cardinality` bounds the distinct count.
                let bucket = (k * cfg.cardinality / dim_rows) as f64;
                let jitter: f64 = rng.gen_range(0.0..0.5);
                row.push(Value::Float(bucket * 10.0 + c as f64 + jitter.round()));
            }
            db.table_mut(&format!("dim{d}"))
                .unwrap()
                .push_row(row)
                .expect("schema matches");
        }
    }

    // ---- Fact rows -----------------------------------------------------
    let grp_ids: Vec<StrId> = (0..GROUPS).map(|g| db.intern(&format!("g{g}"))).collect();
    let low_half = (dim_rows / 2).max(1);
    for r in 0..cfg.rows {
        let g = r % GROUPS;
        let mut row = Vec::with_capacity(3 + cfg.tables);
        row.push(Value::Int(r as i64));
        row.push(Value::Str(grp_ids[g]));
        let val = if g == 0 {
            rng.gen_range(60.0..100.0)
        } else {
            rng.gen_range(0.0..70.0)
        };
        row.push(Value::Float(val.round()));
        for d in 0..cfg.tables {
            let base = (d as i64 + 1) * DIM_KEY_STRIDE;
            // g0 concentrates on the low-key (low-valued) dimension rows.
            let k = if g == 0 {
                rng.gen_range(0..low_half)
            } else {
                rng.gen_range(0..dim_rows)
            };
            row.push(Value::Int(base + k as i64));
        }
        db.table_mut("fact")
            .unwrap()
            .push_row(row)
            .expect("schema matches");
    }

    // ---- Joins ---------------------------------------------------------
    for d in 0..cfg.tables {
        db.add_foreign_key(ForeignKey {
            from_table: "fact".into(),
            from_cols: vec![format!("dim{d}_id")],
            to_table: format!("dim{d}"),
            to_cols: vec![format!("dim{d}_id")],
        })
        .expect("fk endpoints exist");
    }
    let schema_graph = SchemaGraph::from_foreign_keys(&db);
    GeneratedDb { db, schema_graph }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let a = generate(&SynthConfig::small());
        let b = generate(&SynthConfig::small());
        for (ta, tb) in a.db.tables().iter().zip(b.db.tables()) {
            assert_eq!(ta.num_rows(), tb.num_rows());
            for r in (0..ta.num_rows()).step_by(97) {
                assert_eq!(ta.row(r), tb.row(r), "{} row {r}", ta.name());
            }
        }
        let c = generate(&SynthConfig {
            seed: 43,
            ..SynthConfig::small()
        });
        // A different seed changes payload values (not the shape).
        assert_eq!(c.db.table("fact").unwrap().num_rows(), 2_000);
    }

    #[test]
    fn rows_and_width_scale_independently() {
        let base = SynthConfig::small();
        let tall = generate(&base.with_rows(4_000));
        assert_eq!(tall.db.table("fact").unwrap().num_rows(), 4_000);
        assert_eq!(tall.db.tables().len(), 1 + base.tables);

        let wide = generate(&base.with_width(6, 8));
        assert_eq!(wide.db.table("fact").unwrap().num_rows(), base.rows);
        assert_eq!(wide.db.tables().len(), 1 + 6);
        let dim0 = wide.db.table("dim0").unwrap();
        assert_eq!(dim0.schema().fields.len(), 2 + 8);
        assert_eq!(wide.schema_graph.edges().len(), 6);
    }

    #[test]
    fn dimension_keys_are_unique_and_disjoint_across_tables() {
        let g = generate(&SynthConfig::small());
        let mut seen = std::collections::HashSet::new();
        for d in 0..3 {
            let t = g.db.table(&format!("dim{d}")).unwrap();
            for r in 0..t.num_rows() {
                let id = t.value(r, 0).as_i64().unwrap();
                assert!(seen.insert(id), "duplicate key {id} in dim{d}");
                assert_eq!(
                    id / DIM_KEY_STRIDE,
                    d as i64 + 1,
                    "key {id} outside dim{d} range"
                );
            }
        }
    }

    #[test]
    fn every_fact_fk_resolves() {
        let cfg = SynthConfig::small();
        let g = generate(&cfg);
        let fact = g.db.table("fact").unwrap();
        let dim_rows = (cfg.rows / cfg.fanout).max(1) as i64;
        for r in 0..fact.num_rows() {
            for d in 0..cfg.tables {
                let id = fact.value(r, 3 + d).as_i64().unwrap();
                let base = (d as i64 + 1) * DIM_KEY_STRIDE;
                assert!(id >= base && id < base + dim_rows);
            }
        }
    }

    #[test]
    fn planted_correlation_separates_g0() {
        let g = generate(&SynthConfig::small());
        let fact = g.db.table("fact").unwrap();
        let g0 = g.db.pool().get("g0").unwrap();
        let (mut sum0, mut n0, mut sum_rest, mut n_rest) = (0.0, 0u32, 0.0, 0u32);
        for r in 0..fact.num_rows() {
            let v = fact.value(r, 2).as_f64().unwrap();
            if fact.value(r, 1) == Value::Str(g0) {
                sum0 += v;
                n0 += 1;
            } else {
                sum_rest += v;
                n_rest += 1;
            }
        }
        assert!(sum0 / n0 as f64 > sum_rest / n_rest as f64 + 20.0);
    }
}
