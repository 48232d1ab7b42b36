//! Per-row keys over user data: [`KeyedState`], the one hasher of every
//! per-row hash table, [`KeyIndex`], the one equi-join index, and
//! [`GroupIds`], the one GROUP BY grouping.
//!
//! Join and grouping keys are multi-column; hashing a `Vec<Value>` per row
//! would allocate and branch heavily. Instead we serialize the key columns
//! of a row into a compact byte buffer (via [`bytes::BufMut`]), reused
//! from row to row, that is then used directly as the hash-map key and
//! copied out once per distinct key. Every value is prefixed by a type
//! tag, and a float that equals an integer encodes as that integer, so two
//! keys encode to the same bytes iff their values are pairwise
//! [`Value::sql_eq`]-equal: `Int(2)` joins `Float(2.0)`, `-0.0` joins
//! `0.0`, and `Int(2^53 + 1)` does not join `Float(2^53)`.
//!
//! A NULL or NaN component equals nothing, not even itself, so it has no
//! join encoding and [`KeyIndex`] keeps the row out of the join. The SQL
//! executor's single-table comparisons go through [`Value::total_cmp`]
//! instead, under which NaN equals NaN.
//!
//! A file or a query chooses the keys these tables hash, so each table
//! hashes under a key of its own, drawn at random when it is made: keys
//! that collide under one table's hasher do not collide under another's.
//! No output depends on hash order: group ids go by first appearance,
//! probes return rows in build order, and the other tables only count.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher, RandomState};

use bytes::{BufMut, BytesMut};

use crate::column::Column;
use crate::value::Value;

/// Builds [`KeyedHasher`]s under one random key per table.
///
/// SipHash buys a per-table key at tens of nanoseconds per row; a folded
/// 64×64→128-bit multiply per 8-byte word keeps the key at a fraction of
/// that cost, which is what a table hashing one key per row needs.
#[derive(Debug, Clone)]
pub struct KeyedState(u64);

impl Default for KeyedState {
    fn default() -> Self {
        KeyedState(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher {
            key: self.0,
            hash: 0,
        }
    }
}

/// A hash set under [`KeyedState`].
pub type KeyedSet<K> = HashSet<K, KeyedState>;

/// Folds each 8-byte word into the hash with one multiply under
/// [`KeyedState`]'s random key; a `u64` key is one multiply.
#[derive(Debug)]
pub struct KeyedHasher {
    key: u64,
    hash: u64,
}

impl Hasher for KeyedHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // The tail's length goes into the word's top byte, which a
            // tail of at most 7 bytes leaves free.
            let mut w = [0; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(w) | (tail.len() as u64) << 56);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.hash ^ n ^ self.key) * 0x9E37_79B9_7F4A_7C15;
        self.hash = m as u64 ^ (m >> 64) as u64;
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Tag bytes for the injective encoding.
const TAG_NULL: u8 = 0;
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

/// Encodes a composite *grouping* key into `buf`, cleared first: NULLs are
/// allowed and all encode to the same sentinel, matching SQL `GROUP BY`
/// semantics where all NULLs form one group (unlike equi-join keys, which
/// drop NULL and NaN rows).
fn encode_group_key_into(buf: &mut BytesMut, values: impl IntoIterator<Item = Value>) {
    buf.clear();
    for v in values {
        if !encode_value(buf, &v) {
            match v {
                // NaN joins nothing, but NaNs group by their bits.
                Value::Float(f) => {
                    buf.put_u8(TAG_FLOAT);
                    buf.put_u64(f.to_bits());
                }
                _ => buf.put_u8(TAG_NULL),
            }
        }
    }
}

/// Encoded keys' numbers, `0, 1, 2, …` in order of first appearance.
type KeyIds = HashMap<Box<[u8]>, u32, KeyedState>;

/// The id of `buf`'s key in `ids`, and whether the key is new: a new key
/// is copied out of `buf` and gets the next id.
fn id_of(ids: &mut KeyIds, buf: &[u8]) -> (u32, bool) {
    match ids.get(buf) {
        Some(&id) => (id, false),
        None => {
            let id = ids.len() as u32;
            ids.insert(buf.into(), id);
            (id, true)
        }
    }
}

/// Group ids by GROUP BY key: `0, 1, 2, …` in order of first appearance.
///
/// Two keys fall in one group iff their components pairwise are both
/// NULL, are NaNs with the same bits, or are [`Value::sql_eq`]-equal.
#[derive(Debug, Default)]
pub struct GroupIds {
    ids: KeyIds,
    buf: BytesMut,
}

impl GroupIds {
    /// The id of the group `key` falls in, and whether `key` opened it.
    pub fn id(&mut self, key: impl IntoIterator<Item = Value>) -> (u32, bool) {
        encode_group_key_into(&mut self.buf, key);
        id_of(&mut self.ids, &self.buf)
    }
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
    keys: KeyIds,
    /// Key `k`'s rows are `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    /// The indexed row ids, by key, in build order within a key.
    rows: Vec<u32>,
}

impl KeyIndex {
    /// Indexes `rows` of the relation by their values in `cols`.
    pub fn build(cols: &[&Column], rows: impl IntoIterator<Item = u32>) -> Self {
        let rows = rows.into_iter();
        let mut keys = KeyIds::default();
        let mut buf = BytesMut::with_capacity(cols.len() * 9);
        // Each indexed row with its key's number.
        let mut keyed: Vec<(u32, u32)> = Vec::with_capacity(rows.size_hint().0);
        for r in rows {
            if encode_into(&mut buf, cols.iter().map(|c| c.value(r as usize))) {
                keyed.push((id_of(&mut keys, &buf).0, r));
            }
        }
        // A counting sort by key number: `starts[k]` first counts key
        // `k`'s rows, then is where its run ends; filling each run from
        // its end, over the rows in reverse, leaves it where the run
        // starts and the run in build order.
        let mut starts = vec![0u32; keys.len() + 1];
        for &(k, _) in &keyed {
            starts[k as usize] += 1;
        }
        let mut end = 0;
        for s in &mut starts {
            end += *s;
            *s = end;
        }
        let mut ids = vec![0; keyed.len()];
        for &(k, r) in keyed.iter().rev() {
            let s = &mut starts[k as usize];
            *s -= 1;
            ids[*s as usize] = r;
        }
        KeyIndex {
            keys,
            starts,
            rows: ids,
        }
    }

    /// The indexed rows whose key equals `key` under
    /// [`Value::sql_eq`], in build order.
    pub fn probe(&self, key: impl IntoIterator<Item = Value>) -> &[u32] {
        PROBE_KEY.with_borrow_mut(|buf| {
            let k = encode_into(buf, key)
                .then(|| self.keys.get(&buf[..]))
                .flatten();
            k.map_or(&[][..], |&k| {
                let k = k as usize;
                &self.rows[self.starts[k] as usize..self.starts[k + 1] as usize]
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::StrId;
    use proptest::prelude::*;

    /// A composite join key's encoding; `None` if a component is NULL or
    /// NaN.
    fn encode_key(values: &[Value]) -> Option<Vec<u8>> {
        let mut buf = BytesMut::new();
        encode_into(&mut buf, values.iter().copied()).then(|| buf.to_vec())
    }

    /// A composite grouping key's encoding.
    fn group_key(values: &[Value]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_group_key_into(&mut buf, values.iter().copied());
        buf.to_vec()
    }

    #[test]
    fn null_and_nan_keys_are_rejected() {
        assert!(encode_key(&[Value::Int(1), Value::Null]).is_none());
        assert!(encode_key(&[Value::Float(f64::NAN), Value::Int(1)]).is_none());
    }

    #[test]
    fn group_keys_put_nulls_together_and_nans_together_apart() {
        let null = group_key(&[Value::Null]);
        let nan = group_key(&[Value::Float(f64::NAN)]);
        assert_eq!(null, group_key(&[Value::Null]));
        assert_eq!(nan, group_key(&[Value::Float(f64::NAN)]));
        assert_ne!(null, nan);
    }

    #[test]
    fn group_ids_go_by_first_appearance() {
        let mut ids = GroupIds::default();
        let keys = [
            [Value::Int(2), Value::Null],
            [Value::Float(2.0), Value::Null],
            [Value::Int(2), Value::Float(f64::NAN)],
            [Value::Null, Value::Null],
            [Value::Float(2.0), Value::Float(f64::NAN)],
        ];
        let got: Vec<(u32, bool)> = keys.iter().map(|k| ids.id(*k)).collect();
        assert_eq!(
            got,
            [(0, true), (0, false), (1, true), (2, true), (1, false)]
        );
    }

    #[test]
    fn keyed_hasher_hashes_words_and_tails() {
        let state = KeyedState::default();
        let hash = |bytes: &[u8]| {
            let mut h = state.build_hasher();
            h.write(bytes);
            h.finish()
        };
        // One multiply per word: a `u64` hashes as its little-endian
        // bytes do.
        assert_eq!(state.hash_one(7u64), {
            let mut h = state.build_hasher();
            h.write_u64(7);
            h.finish()
        });
        assert_eq!(hash(&7u64.to_le_bytes()), {
            let mut h = state.build_hasher();
            h.write_u64(7);
            h.finish()
        });
        // A zero tail is told from no tail, and tails from each other.
        let hashes = [hash(&[1]), hash(&[1, 0]), hash(&[1, 0, 0, 0, 0, 0, 0, 0])];
        assert_ne!(hashes[0], hashes[1]);
        assert_ne!(hashes[1], hashes[2]);
        assert_ne!(hashes[0], hashes[2]);
        // Another table hashes under another key.
        assert_ne!(KeyedState::default().hash_one(7u64), state.hash_one(7u64));
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

    /// Whether two grouping-key components fall in one group: both NULL,
    /// NaNs with the same bits, or `sql_eq`-equal.
    fn same_group(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Float(x), Value::Float(y)) if x.is_nan() || y.is_nan() => {
                x.to_bits() == y.to_bits()
            }
            _ => a.sql_eq(b),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        /// Two grouping keys encode to the same bytes iff their
        /// components pairwise fall in one group.
        #[test]
        fn prop_group_key_equality_is_the_grouping_relation(
            a in proptest::collection::vec(prop_oneof![arb_key_value(), Just(Value::Null)], 1..4),
            b in proptest::collection::vec(prop_oneof![arb_key_value(), Just(Value::Null)], 1..4),
        ) {
            let same = a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| same_group(x, y));
            prop_assert_eq!(group_key(&a) == group_key(&b), same);
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
