//! Offline stand-in for `rayon`: the parallel-iterator subset the CaJaDE
//! pipeline uses (`par_iter().map(..).collect()`, `into_par_iter`,
//! `for_each`), executed on `std::thread::scope` workers with an atomic
//! work queue. Results preserve input order, matching rayon's indexed
//! `collect` semantics, so parallel and sequential runs are
//! bit-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One-stop imports mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

/// Maximum worker threads (mirrors `rayon`'s default pool sizing).
fn default_workers(items: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items)
        .max(1)
}

/// Runs `f(i)` for every index in `0..n` on worker threads, returning the
/// outputs in index order.
fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = default_workers(n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                out.lock().unwrap_or_else(|e| e.into_inner()).push((i, v));
            });
        }
    });
    let mut pairs = out.into_inner().unwrap_or_else(|e| e.into_inner());
    pairs.sort_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// A parallel iterator: a deferred `map` pipeline over an owned item list.
pub trait ParallelIterator: Sized + Send {
    /// Item type.
    type Item: Send;

    /// Drains the pipeline, returning items in order.
    fn drain_ordered(self) -> Vec<Self::Item>;

    /// Maps each item through `f` on worker threads.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Runs `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        let _ = self.map(f).drain_ordered();
    }

    /// Collects into `C` (Vec, or `Result<Vec<_>, E>` short-circuiting on
    /// the first error in item order, as rayon does).
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_ordered_vec(self.drain_ordered())
    }

    /// Sums the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.drain_ordered().into_iter().sum()
    }

    /// Item count.
    fn count(self) -> usize {
        self.drain_ordered().len()
    }
}

/// Collection targets for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T> {
    /// Builds the collection from items in input order.
    fn from_ordered_vec(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered_vec(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Root pipeline stage: owned items, evaluated lazily on drain.
pub struct IterRoot<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for IterRoot<T> {
    type Item = T;

    fn drain_ordered(self) -> Vec<T> {
        self.items
    }
}

/// A `map` stage. The closure runs on worker threads at drain time.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync + Send,
{
    type Item = R;

    fn drain_ordered(self) -> Vec<R> {
        let items = self.base.drain_ordered();
        let n = items.len();
        // Move items into Option slots so worker threads can take each
        // exactly once by index.
        let slots: Vec<Mutex<Option<B::Item>>> =
            items.into_iter().map(|v| Mutex::new(Some(v))).collect();
        let f = &self.f;
        run_indexed(n, move |i| {
            let item = slots[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("item taken twice");
            f(item)
        })
    }
}

/// Conversion into an owning parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IterRoot<T>;

    fn into_par_iter(self) -> IterRoot<T> {
        IterRoot { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = IterRoot<usize>;

    fn into_par_iter(self) -> IterRoot<usize> {
        IterRoot {
            items: self.collect(),
        }
    }
}

/// `par_iter()` over a borrowed slice/Vec (yields `&T`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type.
    type Item: Send + 'a;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Borrowing conversion.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = IterRoot<&'a T>;

    fn par_iter(&'a self) -> IterRoot<&'a T> {
        IterRoot {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = IterRoot<&'a T>;

    fn par_iter(&'a self) -> IterRoot<&'a T> {
        IterRoot {
            items: self.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_result_short_circuits_in_order() {
        let v: Vec<i32> = (0..100).collect();
        let r: Result<Vec<i32>, String> = v
            .into_par_iter()
            .map(|x| {
                if x >= 40 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(r.unwrap_err(), "bad 40");
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        (0..64usize).into_par_iter().for_each(|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let threads = seen.lock().unwrap().len();
        if std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            > 1
        {
            assert!(threads > 1, "expected multiple workers, saw {threads}");
        }
    }

    #[test]
    fn sum_and_count() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(v.par_iter().map(|&x| x).sum::<u64>(), 55);
        assert_eq!((0..17usize).into_par_iter().count(), 17);
    }
}
