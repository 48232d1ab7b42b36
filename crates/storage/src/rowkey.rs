//! Composite-key encoding for hash joins and group-by, and [`KeyIndex`],
//! the one equi-join index.
//!
//! Join and grouping keys are multi-column; hashing a `Vec<Value>` per row
//! would allocate and branch heavily. Instead we serialize the key columns
//! of a row into a compact byte buffer (via [`bytes::BufMut`]) that is then
//! used directly as the hash-map key. Every value is prefixed by a type
//! tag, and a float that equals an integer encodes as that integer, so two
//! keys encode to the same bytes iff their values are pairwise
//! [`Value::sql_eq`]-equal: `Int(2)` joins `Float(2.0)`, `-0.0` joins
//! `0.0`, and `Int(2^53 + 1)` does not join `Float(2^53)`.
//!
//! A NULL or NaN component equals nothing, not even itself, so it has no
//! encoding: [`encode_key`] returns `None` and [`KeyIndex`] keeps the row
//! out of the join. The SQL executor's single-table comparisons go through
//! [`Value::total_cmp`] instead, under which NaN equals NaN.

use std::cell::RefCell;
use std::collections::HashMap;

use bytes::{BufMut, BytesMut};

use crate::column::Column;
use crate::value::Value;

/// Tag bytes for the injective encoding.
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Encodes one value into `buf`. Returns `false` for NULL and NaN, which
/// equal nothing.
#[inline]
fn encode_value(buf: &mut BytesMut, v: &Value) -> bool {
    // A float equal to an integer encodes as that integer, so that
    // `Int(2)` joins `Float(2.0)`.
    if let Some(i) = v.as_exact_int() {
        buf.put_u8(TAG_INT);
        buf.put_i64(i);
        return true;
    }
    match *v {
        Value::Float(f) if !f.is_nan() => {
            buf.put_u8(TAG_FLOAT);
            buf.put_u64(f.to_bits());
            true
        }
        Value::Str(id) => {
            buf.put_u8(TAG_STR);
            buf.put_u32(id.0);
            true
        }
        _ => false,
    }
}

/// Encodes `values` into `buf`, cleared first; `false` if a component is
/// NULL or NaN.
fn encode_into(buf: &mut BytesMut, values: impl IntoIterator<Item = Value>) -> bool {
    buf.clear();
    values.into_iter().all(|v| encode_value(buf, &v))
}

/// Encodes a composite key. Returns `None` if any component is NULL or NaN.
pub fn encode_key(values: &[Value]) -> Option<Vec<u8>> {
    let mut buf = BytesMut::with_capacity(values.len() * 9);
    encode_into(&mut buf, values.iter().copied()).then(|| buf.to_vec())
}

/// Encodes a composite *grouping* key: NULLs are allowed and all encode to
/// the same sentinel, matching SQL `GROUP BY` semantics where all NULLs form
/// one group (unlike equi-join keys, which drop NULL and NaN rows).
pub fn encode_group_key(values: &[Value]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(values.len() * 9);
    for v in values {
        if !encode_value(&mut buf, v) {
            match v {
                // NaN joins nothing, but NaNs group by their bits.
                Value::Float(f) => {
                    buf.put_u8(TAG_FLOAT);
                    buf.put_u64(f.to_bits());
                }
                _ => buf.put_u8(0), // NULL tag
            }
        }
    }
    buf.to_vec()
}

thread_local! {
    /// The scratch a probe encodes its key into: one per thread, so a
    /// shared index probes without allocating.
    static PROBE_KEY: RefCell<BytesMut> = RefCell::new(BytesMut::new());
}

/// A relation's row ids by equi-join key: the build side of a hash join.
///
/// Built over some of the rows of some columns, probed with the other
/// side's values; a probe returns the matching row ids in the order they
/// were built over. A row whose key has a NULL or NaN component is not
/// indexed, and such a probe matches nothing.
#[derive(Debug, Default)]
pub struct KeyIndex {
    rows: HashMap<Vec<u8>, Vec<u32>>,
}

impl KeyIndex {
    /// Indexes `rows` of the relation by their values in `cols`.
    pub fn build(cols: &[&Column], rows: impl IntoIterator<Item = u32>) -> Self {
        let mut index = KeyIndex::default();
        let mut buf = BytesMut::with_capacity(cols.len() * 9);
        for r in rows {
            if encode_into(&mut buf, cols.iter().map(|c| c.value(r as usize))) {
                index.rows.entry(buf.to_vec()).or_default().push(r);
            }
        }
        index
    }

    /// The indexed rows whose key equals `key` under
    /// [`Value::sql_eq`], in build order.
    pub fn probe(&self, key: impl IntoIterator<Item = Value>) -> &[u32] {
        PROBE_KEY.with_borrow_mut(|buf| {
            let matches = encode_into(buf, key)
                .then(|| self.rows.get(&buf[..]))
                .flatten();
            matches.map_or(&[][..], Vec::as_slice)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::StrId;
    use proptest::prelude::*;

    #[test]
    fn null_and_nan_keys_are_rejected() {
        assert!(encode_key(&[Value::Int(1), Value::Null]).is_none());
        assert!(encode_key(&[Value::Float(f64::NAN), Value::Int(1)]).is_none());
    }

    #[test]
    fn group_keys_put_nulls_together_and_nans_together_apart() {
        let null = encode_group_key(&[Value::Null]);
        let nan = encode_group_key(&[Value::Float(f64::NAN)]);
        assert_eq!(null, encode_group_key(&[Value::Null]));
        assert_eq!(nan, encode_group_key(&[Value::Float(f64::NAN)]));
        assert_ne!(null, nan);
    }

    #[test]
    fn int_and_whole_float_encode_identically() {
        let a = encode_key(&[Value::Int(2)]).unwrap();
        let b = encode_key(&[Value::Float(2.0)]).unwrap();
        assert_eq!(a, b);
        let c = encode_key(&[Value::Float(2.5)]).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn encoding_is_injective_across_types() {
        // Str(2) must not collide with Int(2).
        let s = encode_key(&[Value::Str(StrId(2))]).unwrap();
        let i = encode_key(&[Value::Int(2)]).unwrap();
        assert_ne!(s, i);
    }

    #[test]
    fn composite_keys_do_not_blur_boundaries() {
        // (1, 2) vs (12,) — tags and fixed widths prevent concatenation tricks.
        let a = encode_key(&[Value::Int(1), Value::Int(2)]).unwrap();
        let b = encode_key(&[Value::Int(12)]).unwrap();
        assert_ne!(a, b);
    }

    fn column(dtype: crate::DataType, values: &[Value]) -> Column {
        let mut col = Column::new(dtype);
        for &v in values {
            col.push(v, "k").unwrap();
        }
        col
    }

    #[test]
    fn probes_match_in_build_order_and_skip_null_and_nan() {
        let nan = Value::Float(f64::NAN);
        let floats = [1.0, f64::NAN, 1.0, 2.5].map(Value::Float);
        let col = column(
            crate::DataType::Float,
            &[&floats[..], &[Value::Null]].concat(),
        );
        let index = KeyIndex::build(&[&col], [4, 3, 2, 1, 0]);
        assert_eq!(index.probe([Value::Int(1)]), &[2, 0]);
        assert_eq!(index.probe([Value::Float(2.5)]), &[3]);
        assert!(index.probe([nan]).is_empty());
        assert!(index.probe([Value::Null]).is_empty());
        assert!(index.probe([Value::Int(7)]).is_empty());
    }

    /// The integers nearest the edges of exact `f64` integers (±2^53) and
    /// of `i64`, as `Int`s and as the floats around them.
    fn arb_edge() -> impl Strategy<Value = Value> {
        let anchors = [1i64 << 53, -(1i64 << 53), i64::MIN, i64::MAX];
        (0..anchors.len(), -4i64..=4, 0u8..4).prop_map(move |(a, d, form)| {
            let n = anchors[a].saturating_add(d);
            let f = n as f64;
            match form {
                0 => Value::Int(n),
                1 => Value::Float(f),
                2 => Value::Float(f.next_up()),
                _ => Value::Float(f.next_down()),
            }
        })
    }

    fn arb_key_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(-0.0),
                Just(0.0),
            ]
            .prop_map(Value::Float),
            arb_edge(),
            arb_edge(),
            (0u32..500).prop_map(|i| Value::Str(StrId(i))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        /// Two keys encode, to the same bytes, iff all components are
        /// `sql_eq`-equal; a key encodes iff no component is NULL or NaN.
        #[test]
        fn prop_key_equality_matches_sql_eq(
            a in proptest::collection::vec(arb_key_value(), 1..4),
            b in proptest::collection::vec(arb_key_value(), 1..4),
        ) {
            let (ka, kb) = (encode_key(&a), encode_key(&b));
            let nan = |k: &[Value]| k.iter().any(|v| matches!(v, Value::Float(f) if f.is_nan()));
            prop_assert_eq!(ka.is_none(), nan(&a));
            prop_assert_eq!(kb.is_none(), nan(&b));
            let all_eq = a.len() == b.len()
                && a.iter().zip(&b).all(|(x, y)| x.sql_eq(y));
            prop_assert_eq!(ka.is_some() && ka == kb, all_eq);
        }
    }

    /// The key cell of `dtype` that `pick` (0..7) names. The domains are
    /// small, so keys repeat and match across types; NULL is one of them,
    /// and NaN one of the floats'.
    fn cell(dtype: u8, pick: u8) -> Value {
        match (dtype, pick) {
            (_, 0) => Value::Null,
            (0, p) => Value::Int(i64::from(p) - 3),
            (1, 1) => Value::Float(f64::NAN),
            (1, 2) => Value::Float(0.5),
            (1, 3) => Value::Float(-0.0),
            (1, p) => Value::Float(f64::from(p) - 4.0),
            (_, p) => Value::Str(StrId(u32::from(p) % 3)),
        }
    }

    const DTYPES: [crate::DataType; 3] = [
        crate::DataType::Int,
        crate::DataType::Float,
        crate::DataType::Str,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Probing a `KeyIndex` built over all rows, or over a subset of
        /// them, gives exactly the nested-loop join under `sql_eq`, in
        /// build order.
        #[test]
        fn prop_key_index_is_the_nested_loop_join(
            dtypes in proptest::collection::vec(0u8..3, 1..4),
            probe_dtypes in proptest::collection::vec(0u8..3, 3..4),
            rows in proptest::collection::vec(proptest::collection::vec(0u8..7, 3..4), 0..25),
            keep in proptest::collection::vec(proptest::bool::ANY, 24..25),
            subset in proptest::bool::ANY,
            probes in proptest::collection::vec(proptest::collection::vec(0u8..7, 3..4), 0..25),
        ) {
            let cols: Vec<Column> = dtypes
                .iter()
                .enumerate()
                .map(|(c, &t)| {
                    let cells: Vec<Value> = rows.iter().map(|r| cell(t, r[c])).collect();
                    column(DTYPES[usize::from(t)], &cells)
                })
                .collect();
            let built: Vec<u32> = (0..rows.len() as u32)
                .filter(|&r| !subset || keep[r as usize])
                .collect();
            let col_refs: Vec<&Column> = cols.iter().collect();
            let index = KeyIndex::build(&col_refs, built.iter().copied());
            for p in &probes {
                let key: Vec<Value> = (0..cols.len()).map(|c| cell(probe_dtypes[c], p[c])).collect();
                let nested_loop: Vec<u32> = built
                    .iter()
                    .copied()
                    .filter(|&r| key.iter().zip(&cols).all(|(k, col)| k.sql_eq(&col.value(r as usize))))
                    .collect();
                prop_assert_eq!(index.probe(key.iter().copied()), &nested_loop[..]);
            }
        }
    }
}
