use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of an interned string inside a [`StringPool`].
///
/// Categorical column data is stored as `StrId`s, so the pattern-matching
/// hot loops (Definition 5 / Definition 7 of the paper) compare 4-byte ids
/// instead of string contents.
// Ordered by pool index (sorted categorical columns, `Value`'s order);
// the derived `PartialOrd` calls `partial_cmp` on a `u32`, not a float.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrId(pub u32);

impl StrId {
    /// The raw index into the pool.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dictionary of interned strings shared by all tables of a [`crate::Database`].
///
/// Interning is append-only: ids are stable for the lifetime of the pool.
#[derive(Debug, Default, Clone)]
pub struct StringPool {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, StrId>,
}

impl StringPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its stable id. Idempotent.
    pub fn intern(&mut self, s: &str) -> StrId {
        match self.index.get(s) {
            Some(&id) => id,
            None => self.push(Arc::from(s)),
        }
    }

    /// [`intern`](Self::intern) for a string already shared: a new one
    /// joins the pool without a copy. Ingestion moves each file's strings
    /// into the database's pool this way.
    pub fn intern_shared(&mut self, s: Arc<str>) -> StrId {
        match self.index.get(&*s) {
            Some(&id) => id,
            None => self.push(s),
        }
    }

    fn push(&mut self, s: Arc<str>) -> StrId {
        let id = StrId(self.strings.len() as u32);
        self.strings.push(Arc::clone(&s));
        self.index.insert(s, id);
        id
    }

    /// The interned strings in id order; the lookup index is dropped.
    pub fn into_strings(self) -> Vec<Arc<str>> {
        self.strings
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<StrId> {
        self.index.get(s).copied()
    }

    /// Resolves an id back to its string. Panics on a foreign id.
    #[inline]
    pub fn resolve(&self, id: StrId) -> &str {
        &self.strings[id.index()]
    }

    /// Resolves an id if it belongs to this pool.
    pub fn try_resolve(&self, id: StrId) -> Option<&str> {
        self.strings.get(id.index()).map(|s| &**s)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut p = StringPool::new();
        let a = p.intern("GSW");
        let b = p.intern("GSW");
        assert_eq!(a, b);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut p = StringPool::new();
        let a = p.intern("a");
        let b = p.intern("b");
        let c = p.intern("c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(p.resolve(b), "b");
        // Re-interning earlier strings does not shift ids.
        assert_eq!(p.intern("a"), a);
        assert_eq!(p.resolve(c), "c");
    }

    #[test]
    fn get_does_not_insert() {
        let mut p = StringPool::new();
        assert!(p.get("x").is_none());
        p.intern("x");
        assert!(p.get("x").is_some());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn shared_strings_join_in_order_without_a_copy() {
        let mut file = StringPool::new();
        for s in ["b", "a", "b", "c"] {
            file.intern(s);
        }
        let strings = file.into_strings();
        assert_eq!(
            strings.iter().map(|s| &**s).collect::<Vec<_>>(),
            ["b", "a", "c"]
        );
        let mut db = StringPool::new();
        db.intern("a");
        let c = Arc::clone(&strings[2]);
        let ids: Vec<StrId> = strings.into_iter().map(|s| db.intern_shared(s)).collect();
        assert_eq!(ids, [StrId(1), StrId(0), StrId(2)]);
        assert!(
            Arc::ptr_eq(&db.strings[2], &c),
            "a new string is moved, not copied"
        );
        assert_eq!(db.intern("c"), StrId(2));
    }

    #[test]
    fn try_resolve_rejects_foreign_ids() {
        let p = StringPool::new();
        assert!(p.try_resolve(StrId(42)).is_none());
    }

    proptest! {
        /// Round trip: resolve(intern(s)) == s, for arbitrary strings.
        #[test]
        fn prop_intern_round_trip(strings in proptest::collection::vec(".*", 0..32)) {
            let mut p = StringPool::new();
            let ids: Vec<_> = strings.iter().map(|s| p.intern(s)).collect();
            for (s, id) in strings.iter().zip(ids) {
                prop_assert_eq!(p.resolve(id), s.as_str());
            }
        }

        /// Distinct strings get distinct ids; equal strings get equal ids.
        #[test]
        fn prop_intern_injective(a in ".*", b in ".*") {
            let mut p = StringPool::new();
            let ia = p.intern(&a);
            let ib = p.intern(&b);
            prop_assert_eq!(a == b, ia == ib);
        }
    }
}
