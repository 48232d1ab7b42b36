//! Offline stand-in for `rayon`: the parallel-iterator subset the CaJaDE
//! pipeline uses (`par_iter().map(..).collect()`, `into_par_iter`,
//! `for_each`), executed on a resident pool of worker threads, started
//! once on first use, with an atomic work queue the calling thread takes
//! items from too. Results preserve input order, matching rayon's indexed
//! `collect` semantics, so parallel and sequential runs are
//! bit-identical. A panicking item unwinds only itself: every other item
//! still runs, and the first panic in item order resumes on the caller
//! once the fan-out is done.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// One-stop imports mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

/// One fan-out, as the pool's workers see it.
trait Job: Sync {
    /// Runs items until none is left to take. Never unwinds.
    fn work(&self);
    /// Whether an item is left to take.
    fn has_work(&self) -> bool;
}

/// `f(i)` for every `i` in `0..n`, each outcome in its own slot.
struct Indexed<T, F> {
    n: usize,
    /// The next index to take. It only hands out indices; the outcomes
    /// are published through their slots' locks, so `Relaxed` suffices.
    next: AtomicUsize,
    f: F,
    out: Vec<Mutex<Option<thread::Result<T>>>>,
}

impl<T: Send, F: Fn(usize) -> T + Sync> Job for Indexed<T, F> {
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(i)));
            *lock(&self.out[i]) = Some(outcome);
        }
    }

    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }
}

/// A mutex whose every update leaves its data valid, so a poisoned lock
/// is taken as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A published fan-out and the workers inside it.
struct Entry {
    job: &'static dyn Job,
    active: usize,
}

/// The resident pool: published fan-outs, newest last.
struct Pool {
    jobs: Mutex<Vec<Entry>>,
    /// Signalled when a fan-out is published.
    published: Condvar,
    /// Signalled when the last worker leaves a fan-out.
    left: Condvar,
}

static POOL: Pool = Pool {
    jobs: Mutex::new(Vec::new()),
    published: Condvar::new(),
    left: Condvar::new(),
};

/// The pool's worker count, `available_parallelism() − 1` (the caller is
/// the last worker). The workers start on the first call and are never
/// joined: they live as long as the process.
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let threads = thread::available_parallelism().map_or(4, |n| n.get());
        (1..threads)
            .filter(|i| {
                thread::Builder::new()
                    .name(format!("rayon-worker-{i}"))
                    .spawn(|| POOL.serve())
                    .is_ok()
            })
            .count()
    })
}

impl Pool {
    /// A worker's loop: joins the newest fan-out with items left, runs
    /// items until none is left, leaves, repeats; sleeps while no
    /// fan-out has items left.
    fn serve(&self) {
        let mut jobs = lock(&self.jobs);
        loop {
            let Some(entry) = jobs.iter_mut().rev().find(|e| e.job.has_work()) else {
                jobs = self
                    .published
                    .wait(jobs)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            entry.active += 1;
            let job = entry.job;
            drop(jobs);
            job.work();
            jobs = lock(&self.jobs);
            if let Some(entry) = jobs.iter_mut().find(|e| std::ptr::addr_eq(e.job, job)) {
                entry.active -= 1;
                if entry.active == 0 {
                    self.left.notify_all();
                }
            }
        }
    }

    /// Runs `job` on the calling thread and on whichever workers join it,
    /// returning once every item has run.
    fn run<'a>(&self, job: &'a (dyn Job + 'a)) {
        // SAFETY: the `'static` reference is reachable only through its
        // entry in `jobs`, and a worker dereferences it only while the
        // entry is published — to test it under the lock, or inside
        // `work` between joining (`active += 1`) and leaving
        // (`active -= 1`), both under the lock. `run` returns only after
        // it has removed the entry under the lock with `active == 0`:
        // the job is unpublished and every worker that picked it up has
        // left, so no use of the reference outlives `'a`. Nothing
        // between publishing and that removal can unwind: `work` catches
        // every item's panic, and the locks take a poisoned guard as it is.
        let erased = unsafe { std::mem::transmute::<&'a (dyn Job + 'a), &'static dyn Job>(job) };
        lock(&self.jobs).push(Entry {
            job: erased,
            active: 0,
        });
        self.published.notify_all();
        job.work();
        let mut jobs = lock(&self.jobs);
        while let Some(at) = jobs.iter().position(|e| std::ptr::addr_eq(e.job, erased)) {
            if jobs[at].active == 0 {
                jobs.remove(at);
                break;
            }
            jobs = self.left.wait(jobs).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs `f(i)` for every index in `0..n` — on the calling thread and the
/// pool's workers — returning the outputs in index order. A panicking
/// item does not stop the others; the first panic in index order resumes
/// once all have run.
fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let job = Indexed {
        n,
        next: AtomicUsize::new(0),
        f,
        out: (0..n).map(|_| Mutex::new(None)).collect(),
    };
    if n > 1 && workers() > 0 {
        POOL.run(&job);
    } else {
        job.work();
    }
    let mut panicked = None;
    let out = (job.out.into_iter())
        .filter_map(|slot| {
            let outcome = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            match outcome.expect("every item ran before the fan-out returned") {
                Ok(v) => Some(v),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                    None
                }
            }
        })
        .collect();
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
    out
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
        for n in [0, 1, 2, 3, 64, 1000] {
            let v: Vec<usize> = (0..n).collect();
            let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
            assert_eq!(
                doubled,
                (0..n).map(|x| x * 2).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
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

    /// What the panicking items of `panics_unwind_one_item_and_resume_on_the_caller` throw.
    #[derive(Debug, PartialEq)]
    struct Thrown(usize);

    #[test]
    fn panics_unwind_one_item_and_resume_on_the_caller() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i == 5 || i == 40 {
                    std::panic::panic_any(Thrown(i));
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        });
        let payload = caught.expect_err("the panic resumes on the caller");
        // The original payload, of the first panicking item in input order.
        assert_eq!(payload.downcast_ref::<Thrown>(), Some(&Thrown(5)));
        assert_eq!(ran.load(Ordering::Relaxed), 62, "every other item ran");
        // The pool survives it.
        let after: Vec<usize> = (0..100usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(after, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn a_fan_out_inside_an_item_completes() {
        let sums: Vec<usize> = (0..8usize)
            .into_par_iter()
            .map(|i| (0..100usize).into_par_iter().map(|j| i * j).sum())
            .collect();
        assert_eq!(sums, (0..8).map(|i| i * 4950).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_fan_outs_each_get_their_own_results() {
        // Each fan-out's first item waits for the other's, so the two are
        // published at the same time. Each caller runs its own items, so
        // both first items run even if a worker holds one of them.
        let met = std::sync::Arc::new(std::sync::Barrier::new(2));
        let fan_out = |k: usize| {
            let met = std::sync::Arc::clone(&met);
            std::thread::spawn(move || {
                (0..1000usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 0 {
                            met.wait();
                        }
                        i * k
                    })
                    .collect::<Vec<usize>>()
            })
        };
        let (a, b) = (fan_out(3), fan_out(7));
        assert_eq!(
            a.join().unwrap(),
            (0..1000).map(|i| i * 3).collect::<Vec<_>>()
        );
        assert_eq!(
            b.join().unwrap(),
            (0..1000).map(|i| i * 7).collect::<Vec<_>>()
        );
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
