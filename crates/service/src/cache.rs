//! Keyed LRU cache with byte-budget accounting.
//!
//! The service keeps two of these, each under its own byte budget:
//!
//! * provenance — one [`QueryEntry`](crate::QueryEntry) per query: its
//!   result, provenance table, enumerated join graphs and, as asks fill
//!   them, each graph's APT view and mining preparation — keyed by
//!   `(epoch, sql)`;
//! * answer — a question's ranked explanations, keyed by `(epoch, sql,
//!   question)`.
//!
//! Values travel behind `Arc`, so a hit is a pointer clone and eviction
//! never frees memory still in use by an in-flight question.
//!
//! Eviction is least-recently-used by a logical tick, scanned linearly —
//! entry counts are small (tens to hundreds of heavyweight tables), so a
//! linked-list LRU would be complexity without measurable benefit.

use std::collections::HashMap;
use std::hash::Hash;

use cajade_obs::{Counter, Registry};
use parking_lot::Mutex;

/// One cache's lifetime counters — the only copy: [`LruCache::stats`]
/// and the `metrics` op both read these. [`Default`] makes free-standing
/// counters; [`CacheObs::new`] mints them in a registry as
/// `cache_<prefix>_<counter>_total` (e.g. `cache_provenance_hits_total`),
/// so caches given the same registry and prefix count together. Resident
/// entries/bytes are gauges the service refreshes at snapshot time —
/// they are instantaneous values, not counters.
#[derive(Default)]
pub struct CacheObs {
    pub(crate) hits: std::sync::Arc<Counter>,
    pub(crate) misses: std::sync::Arc<Counter>,
    pub(crate) evictions: std::sync::Arc<Counter>,
    pub(crate) inserts: std::sync::Arc<Counter>,
    rejected: std::sync::Arc<Counter>,
    pub(crate) coalesced: std::sync::Arc<Counter>,
}

impl CacheObs {
    /// Resolves the six counters for the cache named `prefix`.
    pub fn new(registry: &Registry, prefix: &str) -> CacheObs {
        let c = |name: &str| registry.counter(&format!("cache_{prefix}_{name}_total"));
        CacheObs {
            hits: c("hits"),
            misses: c("misses"),
            evictions: c("evictions"),
            inserts: c("inserts"),
            rejected: c("rejected"),
            coalesced: c("coalesced"),
        }
    }

    /// The counters read now, beside what their owner holds.
    pub(crate) fn stats(&self, entries: usize, bytes: usize, budget_bytes: usize) -> CacheStats {
        CacheStats {
            entries,
            bytes,
            budget_bytes,
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            inserts: self.inserts.get(),
            rejected: self.rejected.get(),
            coalesced: self.coalesced.get(),
        }
    }
}

/// Counter snapshot for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident (approximate, see `approx_bytes`).
    pub bytes: usize,
    /// Byte budget.
    pub budget_bytes: usize,
    /// Lookup hits since construction.
    pub hits: u64,
    /// Lookup misses since construction.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Inserts rejected because a single value exceeded the whole budget.
    pub rejected: u64,
    /// Misses that waited on another thread's in-flight computation of the
    /// same key instead of recomputing
    /// ([`LruCache::get_or_try_compute`]).
    pub coalesced: u64,
}

struct Entry<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    bytes: usize,
    tick: u64,
}

/// What [`LruCache::on_evict`] registers.
type EvictHook<V> = Box<dyn Fn(&V) + Send + Sync>;

/// A thread-safe LRU cache with a byte budget.
pub struct LruCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    /// Per-key in-flight latches backing the single-flight
    /// [`get_or_try_compute`](LruCache::get_or_try_compute): concurrent
    /// misses on the same key serialize here, and all but the first get
    /// the winner's value instead of recomputing.
    inflight: Mutex<HashMap<K, std::sync::Arc<Mutex<()>>>>,
    budget_bytes: usize,
    counters: CacheObs,
    /// Told each value the budget pushes out (never one a
    /// [`retain`](LruCache::retain) sweep drops).
    on_evict: Option<EvictHook<V>>,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// A cache that will hold at most `budget_bytes` of accounted value
    /// bytes.
    pub fn new(budget_bytes: usize) -> Self {
        LruCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            inflight: Mutex::new(HashMap::new()),
            budget_bytes,
            counters: CacheObs::default(),
            on_evict: None,
        }
    }

    /// Like [`new`](LruCache::new), with the counters minted in
    /// `registry` under `cache_<prefix>_…_total` names.
    pub fn with_obs(budget_bytes: usize, registry: &Registry, prefix: &str) -> Self {
        LruCache {
            counters: CacheObs::new(registry, prefix),
            ..Self::new(budget_bytes)
        }
    }

    /// Calls `f` on every value the byte budget evicts, while it is still
    /// whole — for a value that holds countable things of its own.
    pub fn on_evict(mut self, f: impl Fn(&V) + Send + Sync + 'static) -> Self {
        self.on_evict = Some(Box::new(f));
        self
    }

    /// Uncounted lookup (refreshes recency, touches no hit/miss counter).
    /// Used by the single-flight double-check so a waiter's satisfied
    /// lookup is reported as `coalesced` rather than a second miss+hit.
    fn peek(&self, key: &K) -> Option<V> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.value.clone()
        })
    }

    /// Single-flight get-or-compute: a counted [`get`](LruCache::get),
    /// and on a miss exactly one caller runs `compute` while concurrent
    /// callers for the same key block on a per-key latch and then receive
    /// the winner's cached value (`coalesced` counts them; neither a hit
    /// nor a second miss is). Returns `(value, hit)` where `hit` is true
    /// when no computation ran for this caller.
    ///
    /// `compute` returns the value plus `Some(bytes)` to cache it, or
    /// `None` to hand the value back without retaining it (e.g. when the
    /// owning database was re-registered mid-computation). If `compute`
    /// fails, waiters find no cached value and compute in turn —
    /// serialized by the stale latch, so an erroring key never stampedes.
    pub fn get_or_try_compute<E>(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<(V, Option<usize>), E>,
    ) -> Result<(V, bool), E> {
        if let Some(v) = self.get(key) {
            return Ok((v, true));
        }
        let latch = std::sync::Arc::clone(
            self.inflight
                .lock()
                .entry(key.clone())
                .or_insert_with(|| std::sync::Arc::new(Mutex::new(()))),
        );
        let guard = latch.lock();
        if let Some(v) = self.peek(key) {
            self.counters.coalesced.inc();
            return Ok((v, true));
        }
        // Compute and insert while still holding the latch, so a waiter
        // can only wake after the value is resident. `compute` is run
        // under `catch_unwind` so a panicking computation still cleans up
        // its in-flight latch below — otherwise the registry entry would
        // leak and the key's future misses would serialize on a dead latch
        // forever.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute)).map(|r| {
            r.map(|(value, bytes)| {
                if let Some(bytes) = bytes {
                    self.insert(key.clone(), value.clone(), bytes);
                }
                (value, false)
            })
        });
        // Drop the latch from the registry before releasing it; late
        // waiters holding the stale Arc still serialize on it and then
        // re-check the cache.
        self.inflight.lock().remove(key);
        drop(guard);
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let value = self.peek(key);
        match value {
            Some(_) => self.counters.hits.inc(),
            None => self.counters.misses.inc(),
        }
        value
    }

    /// Inserts `value` accounted as `bytes`, evicting least-recently-used
    /// entries until the budget holds. A value larger than the entire
    /// budget is not cached (callers still use it; it is just not
    /// retained). Returns whether the value was retained.
    pub fn insert(&self, key: K, value: V, bytes: usize) -> bool {
        if bytes > self.budget_bytes {
            self.counters.rejected.inc();
            return false;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let entry = Entry {
            value,
            bytes,
            last_used: inner.tick,
        };
        if let Some(old) = inner.map.insert(key.clone(), entry) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        self.trim(&mut inner, &key);
        self.counters.inserts.inc();
        true
    }

    /// Weighs the resident value of `key` again — it grew since it was
    /// inserted — and makes the budget hold as [`insert`](LruCache::insert)
    /// does: by evicting least-recently-used others, or, when the value
    /// alone now exceeds the whole budget, the value itself. Counts no
    /// insert and refreshes no recency; a key not resident is left alone.
    pub fn reweigh(&self, key: &K, weigh: impl FnOnce(&V) -> usize) {
        let mut inner = self.inner.lock();
        let Some(entry) = inner.map.get_mut(key) else {
            return;
        };
        let now = weigh(&entry.value);
        let was = std::mem::replace(&mut entry.bytes, now);
        inner.bytes = inner.bytes - was + now;
        self.trim(&mut inner, key);
    }

    /// Evicts until the budget holds: the least-recently-used entry other
    /// than `spare`'s, and `spare`'s own only once it is the last.
    fn trim(&self, inner: &mut Inner<K, V>, spare: &K) {
        while inner.bytes > self.budget_bytes {
            let others = inner.map.iter().filter(|(k, _)| *k != spare);
            let lru = others.min_by_key(|(_, e)| e.last_used);
            let lru = lru.map_or_else(|| spare.clone(), |(k, _)| k.clone());
            let Some(e) = inner.map.remove(&lru) else {
                break;
            };
            inner.bytes -= e.bytes;
            self.counters.evictions.inc();
            if let Some(f) = &self.on_evict {
                f(&e.value);
            }
        }
    }

    /// Removes every entry that fails `keep`, returning how many were
    /// dropped. Used to sweep a database's stale epochs on re-registration.
    pub fn retain(&self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        let mut freed = 0usize;
        inner.map.retain(|k, e| {
            if keep(k, &e.value) {
                true
            } else {
                freed += e.bytes;
                false
            }
        });
        inner.bytes -= freed;
        before - inner.map.len()
    }

    /// Calls `f` on every resident value, in no particular order.
    pub fn for_each(&self, mut f: impl FnMut(&V)) {
        let inner = self.inner.lock();
        inner.map.values().for_each(|e| f(&e.value));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        self.counters
            .stats(inner.map.len(), inner.bytes, self.budget_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_counters() {
        let c: LruCache<u32, &'static str> = LruCache::new(1024);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one", 10);
        assert_eq!(c.get(&1), Some("one"));
        assert_eq!(c.get(&2), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        assert_eq!(s.bytes, 10);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        let c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, 10, 40);
        c.insert(2, 20, 40);
        // Touch 1 so 2 becomes the LRU.
        assert_eq!(c.get(&1), Some(10));
        c.insert(3, 30, 40); // exceeds 100 → evict 2
        assert_eq!(c.get(&2), None, "LRU entry evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 80);
    }

    #[test]
    fn oversized_values_are_rejected_not_cached() {
        let c: LruCache<u32, u32> = LruCache::new(100);
        assert!(!c.insert(1, 1, 101));
        assert_eq!(c.get(&1), None);
        let s = c.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let c: LruCache<u32, u32> = LruCache::new(100);
        c.insert(1, 10, 60);
        c.insert(1, 11, 30);
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 30);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn retain_sweeps_matching_keys() {
        let c: LruCache<(u32, u32), u32> = LruCache::new(1000);
        c.insert((1, 0), 1, 10);
        c.insert((1, 1), 2, 10);
        c.insert((2, 0), 3, 10);
        let dropped = c.retain(|k, _| k.0 != 1);
        assert_eq!(dropped, 2);
        assert_eq!(c.get(&(2, 0)), Some(3));
        assert_eq!(c.stats().bytes, 10);
    }

    #[test]
    fn single_flight_computes_once_for_concurrent_misses() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let c: Arc<LruCache<u32, u32>> = Arc::new(LruCache::new(1024));
        let computes = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let n = Arc::clone(&computes);
                s.spawn(move || {
                    let (v, _) = c
                        .get_or_try_compute::<()>(&7, || {
                            n.fetch_add(1, Ordering::SeqCst);
                            // Long enough that the other threads reach the
                            // latch while the winner is still computing.
                            std::thread::sleep(std::time::Duration::from_millis(100));
                            Ok((42, Some(8)))
                        })
                        .unwrap();
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "only one thread computes; the rest coalesce or hit"
        );
        let s = c.stats();
        assert_eq!(s.inserts, 1);
        assert!(s.coalesced + s.hits >= 3, "{s:?}");
    }

    #[test]
    fn reweigh_evicts_others_then_the_grown_entry_itself() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let pushed_out = Arc::new(AtomicU32::new(0));
        let sum = Arc::clone(&pushed_out);
        let c: LruCache<u32, u32> = LruCache::new(100).on_evict(move |v| {
            sum.fetch_add(*v, Ordering::Relaxed);
        });
        c.insert(1, 10, 40);
        c.insert(2, 20, 40);
        // 2 grows to 70: 1 has to go, though 2 is the more recent.
        c.reweigh(&2, |_| 70);
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.evictions, s.inserts), (1, 70, 1, 2));
        assert_eq!(c.get(&2), Some(20));
        // Alone over the whole budget: dropped, like a value too large to
        // insert; a key not resident is left alone.
        c.reweigh(&2, |_| 101);
        c.reweigh(&3, |_| unreachable!("not resident"));
        let s = c.stats();
        assert_eq!((s.entries, s.bytes, s.evictions, s.inserts), (0, 0, 2, 2));
        assert_eq!(pushed_out.load(Ordering::Relaxed), 10 + 20);
    }

    #[test]
    fn single_flight_error_does_not_poison_the_key() {
        let c: LruCache<u32, u32> = LruCache::new(1024);
        let err = c.get_or_try_compute(&1, || Err::<(u32, Option<usize>), _>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        // The key computes fine afterwards.
        let (v, hit) = c.get_or_try_compute::<()>(&1, || Ok((5, Some(4)))).unwrap();
        assert_eq!((v, hit), (5, false));
        let (v, hit) = c
            .get_or_try_compute::<()>(&1, || unreachable!("cached"))
            .unwrap();
        assert_eq!((v, hit), (5, true));
    }

    #[test]
    fn single_flight_panic_does_not_poison_the_key() {
        let c: LruCache<u32, u32> = LruCache::new(1024);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = c.get_or_try_compute::<()>(&1, || panic!("compute exploded"));
        }));
        assert!(panicked.is_err(), "the panic propagates to the caller");
        assert!(
            c.inflight.lock().is_empty(),
            "the in-flight latch is cleaned up on unwind"
        );
        // The key computes fine afterwards.
        let (v, hit) = c.get_or_try_compute::<()>(&1, || Ok((5, Some(4)))).unwrap();
        assert_eq!((v, hit), (5, false));
        let (v, hit) = c
            .get_or_try_compute::<()>(&1, || unreachable!("cached"))
            .unwrap();
        assert_eq!((v, hit), (5, true));
    }

    #[test]
    fn single_flight_panic_lets_waiters_compute_instead_of_hang() {
        use std::sync::Arc;
        let c: Arc<LruCache<u32, u32>> = Arc::new(LruCache::new(1024));
        std::thread::scope(|s| {
            let winner = {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = c.get_or_try_compute::<()>(&1, || {
                            // Hold the latch long enough for the waiter to
                            // block on it before the panic.
                            std::thread::sleep(std::time::Duration::from_millis(100));
                            panic!("compute exploded")
                        });
                    }))
                })
            };
            let waiter = {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    c.get_or_try_compute::<()>(&1, || Ok((5, Some(4)))).unwrap()
                })
            };
            assert!(winner.join().unwrap().is_err());
            // The waiter wakes, finds nothing cached, and computes in turn.
            assert_eq!(waiter.join().unwrap(), (5, false));
        });
        assert!(c.inflight.lock().is_empty());
    }

    #[test]
    fn single_flight_uncached_compute_is_not_retained() {
        let c: LruCache<u32, u32> = LruCache::new(1024);
        let (v, hit) = c.get_or_try_compute::<()>(&9, || Ok((3, None))).unwrap();
        assert_eq!((v, hit), (3, false));
        assert_eq!(c.get(&9), None, "None bytes means do not retain");
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let c: Arc<LruCache<u64, u64>> = Arc::new(LruCache::new(8 * 1024));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 500 + i) % 64;
                        if c.get(&k).is_none() {
                            c.insert(k, k * 2, 64);
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert!(s.entries <= 64);
        assert!(s.bytes <= 8 * 1024);
        assert_eq!(s.hits + s.misses, 2000);
    }
}
