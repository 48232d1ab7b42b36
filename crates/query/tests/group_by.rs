//! GROUP BY against a naive first-appearance grouping over `Value` keys.
//!
//! Two rows share a group iff their key components pairwise are both
//! NULL, are NaNs with the same bits, or are `sql_eq`-equal (`-0.0`
//! groups with `0.0`, and a NaN with no non-NaN value and not with NULL).
//! Group ids go by first appearance, and a group's key is its first
//! row's. Within one key position every value has its column's type, so
//! `Int(2)` meeting `Float(2.0)` is the key encoding's case; its own
//! property test in `cajade_storage::rowkey` covers it.

use cajade_query::{execute_with_provenance, parse_sql, prov_attr_name, ProvenanceTable};
use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, StrId, Value};
use proptest::prelude::*;

/// Whether two key components fall in one group.
fn same_group(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Float(x), Value::Float(y)) if x.is_nan() || y.is_nan() => {
            x.to_bits() == y.to_bits()
        }
        _ => a.sql_eq(b),
    }
}

/// `group_of` and the group keys of `keys`, by a linear search of the
/// groups seen so far.
fn naive_grouping(keys: &[Vec<Value>]) -> (Vec<u32>, Vec<Vec<Value>>) {
    let mut groups: Vec<Vec<Value>> = Vec::new();
    let group_of = keys
        .iter()
        .map(|key| {
            let same = |g: &Vec<Value>| g.iter().zip(key).all(|(a, b)| same_group(a, b));
            let g = groups.iter().position(same).unwrap_or_else(|| {
                groups.push(key.clone());
                groups.len() - 1
            });
            g as u32
        })
        .collect();
    (group_of, groups)
}

/// The cells of an `(Int, Float, Str)` row that `picks` (each 0..7)
/// name: small domains, so keys repeat, with NULLs in every column and
/// NaNs of two payloads, ±0.0 and ±inf among the floats.
fn row(picks: &[u8]) -> [Value; 3] {
    let floats = [
        f64::NAN,
        f64::from_bits(f64::NAN.to_bits() ^ 1),
        -0.0,
        0.0,
        f64::INFINITY,
        2.0,
    ];
    let cell = |c: usize, p: u8| match (c, p) {
        (_, 0) => Value::Null,
        (0, p) => Value::Int(i64::from(p) % 3),
        (1, p) => Value::Float(floats[usize::from(p) - 1]),
        (_, p) => Value::Str(StrId(u32::from(p) % 3)),
    };
    [cell(0, picks[0]), cell(1, picks[1]), cell(2, picks[2])]
}

fn database(rows: &[Vec<u8>]) -> Database {
    let mut db = Database::new("g");
    db.create_table(
        SchemaBuilder::new("t")
            .column("a", DataType::Int, AttrKind::Categorical)
            .column("b", DataType::Float, AttrKind::Numeric)
            .column("c", DataType::Str, AttrKind::Categorical)
            .build(),
    )
    .unwrap();
    for s in ["x", "y", "z"] {
        db.intern(s);
    }
    let t = db.table_mut("t").unwrap();
    for picks in rows {
        t.push_row(row(picks).to_vec()).unwrap();
    }
    db
}

/// The key of every provenance row, read from the PT's own columns.
fn pt_keys(pt: &ProvenanceTable, cols: &[&str]) -> Vec<Vec<Value>> {
    let fields: Vec<usize> = cols
        .iter()
        .map(|c| pt.field_index(&prov_attr_name("t", c)).unwrap())
        .collect();
    (0..pt.num_rows)
        .map(|r| fields.iter().map(|&f| pt.value(r, f)).collect())
        .collect()
}

/// Values equal bit for bit (`Value`'s `==` has NaN unequal to itself).
fn identical(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let bits = |v: &Value| match *v {
        Value::Float(f) => (1, f.to_bits()),
        Value::Int(i) => (2, i as u64),
        Value::Str(s) => (3, u64::from(s.0)),
        Value::Null => (0, 0),
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(u, v)| bits(u) == bits(v)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn prop_group_by_is_first_appearance_grouping(
        rows in proptest::collection::vec(proptest::collection::vec(0u8..7, 3..4), 0..60),
        which in 0usize..4,
    ) {
        let cols: &[&str] = [&["a", "b", "c"][..], &["b"], &["c", "a"], &["b", "c"]][which];
        let db = database(&rows);
        let sql = format!("SELECT count(*) AS n, {0} FROM t GROUP BY {0}", cols.join(", "));
        let (result, pt) = execute_with_provenance(&db, &parse_sql(&sql).unwrap()).unwrap();
        let (group_of, groups) = naive_grouping(&pt_keys(&pt, cols));
        prop_assert_eq!(&pt.group_of, &group_of);
        prop_assert!(identical(&pt.group_keys, &groups));
        prop_assert_eq!(result.num_rows(), groups.len());
    }
}
