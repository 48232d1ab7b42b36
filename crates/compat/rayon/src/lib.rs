//! Offline stand-in for `rayon`, reduced to the one fan-out the CaJaDE
//! pipeline makes: [`map_ordered`] maps a function over a slice on a
//! resident pool of worker threads, started once on first use, with an
//! atomic work queue the calling thread takes items from too. Outputs
//! come back in item order, so parallel and sequential runs are
//! bit-identical. A panicking item unwinds only itself: every other item
//! still runs, and the first panic in item order resumes on the caller
//! once the fan-out is done. `cajade_core::pipeline::fan_out` is its only
//! caller.
//!
//! The crate keeps upstream's name and a `1.x` version although it no
//! longer mirrors upstream's API: renaming it, or dropping the unused
//! edge `cajade-service` has to it, would rewrite `e2e_bench/Cargo.lock`,
//! which changes only together with the end-to-end benchmark.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

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

/// `f(item)` for every item of `items` — on the calling thread and the
/// pool's workers — with the outputs in item order. A panicking item
/// unwinds only itself; once every item has run, the first panic in item
/// order resumes on the caller.
pub fn map_ordered<'a, T: Sync, R: Send>(items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
    run_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::map_ordered;

    #[test]
    fn outputs_come_back_in_item_order() {
        for n in [0, 1, 2, 3, 64, 1000] {
            let v: Vec<usize> = (0..n).collect();
            let doubled = map_ordered(&v, |&x| x * 2);
            assert_eq!(
                doubled,
                (0..n).map(|x| x * 2).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    /// What the panicking items of `panics_unwind_one_item_and_resume_on_the_caller` throw.
    #[derive(Debug, PartialEq)]
    struct Thrown(usize);

    #[test]
    fn panics_unwind_one_item_and_resume_on_the_caller() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            map_ordered(&items, |&i| {
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
        let items: Vec<usize> = (0..100).collect();
        assert_eq!(
            map_ordered(&items, |i| i + 1),
            (1..=100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_fan_out_inside_an_item_completes() {
        let (outer, inner): (Vec<usize>, Vec<usize>) = ((0..8).collect(), (0..100).collect());
        let sums = map_ordered(&outer, |&i| {
            map_ordered(&inner, |&j| i * j).into_iter().sum::<usize>()
        });
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
                let items: Vec<usize> = (0..1000).collect();
                map_ordered(&items, |&i| {
                    if i == 0 {
                        met.wait();
                    }
                    i * k
                })
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
        let items: Vec<usize> = (0..64).collect();
        map_ordered(&items, |_| {
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
}
