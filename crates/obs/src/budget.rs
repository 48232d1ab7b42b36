//! Request budgets: a deadline plus a cancellation flag, installed
//! per-request and checked cooperatively at phase boundaries and inside
//! the mining loops.
//!
//! The design mirrors [`crate::trace`]: the disabled path — no budget
//! installed — is a single thread-local `Cell<bool>` load (~ns), so the
//! checks can sit inside the refinement BFS without a measurable cost
//! when no `timeout_ms` was requested. A unit test pins the disabled
//! path the same way `disabled_span_overhead_is_negligible` pins spans.
//!
//! A [`Budget`] wraps a shared [`BudgetState`] (`Arc`), so a
//! [`Ctx`](crate::Ctx) can carry it from the request thread onto worker
//! threads (the mining executor's `rayon` pool spawns real OS threads —
//! same problem, same fix as trace collectors). Expiry is *monotone*: once a
//! deadline has passed or [`Budget::cancel`] has been called, every
//! subsequent check reports expired, and the first check that observes
//! it caches the verdict so later checks skip the clock read.
//!
//! Work that notices expiry calls [`stop`] with a static site name; the
//! site is recorded (deduplicated) in the budget's truncation list,
//! which becomes the `truncated` detail of a `degraded` response.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared per-request budget state. Cheap to check, clone-free on the
/// hot path (threads hold an `Arc` in TLS).
#[derive(Debug)]
pub struct BudgetState {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    /// Set by the first check that observes expiry; later checks skip
    /// the `Instant::now()` call. Sound because expiry is monotone.
    expired_seen: AtomicBool,
    truncated: Mutex<Vec<&'static str>>,
}

impl BudgetState {
    fn expired(&self) -> bool {
        if self.expired_seen.load(Ordering::Relaxed) {
            return true;
        }
        let hit = self.cancelled.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d);
        if hit {
            self.expired_seen.store(true, Ordering::Relaxed);
        }
        hit
    }

    fn record_truncation(&self, site: &'static str) {
        let mut t = self.truncated.lock().unwrap_or_else(|e| e.into_inner());
        if !t.contains(&site) {
            t.push(site);
        }
    }
}

/// A per-request budget: an optional deadline plus a cancellation
/// flag. Create one per `ask`, [`install`](Budget::install) it around
/// the pipeline, and inspect [`truncated`](Budget::truncated)
/// afterwards to learn whether (and where) work was cut short.
#[derive(Debug, Clone)]
pub struct Budget {
    state: Arc<BudgetState>,
}

impl Budget {
    /// A budget expiring `timeout` from now. A deadline too far away
    /// for the clock to represent is no deadline.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget::build(Instant::now().checked_add(timeout))
    }

    /// A budget with no deadline. It never expires on its own but can
    /// still be [`cancel`](Budget::cancel)led.
    pub fn unlimited() -> Budget {
        Budget::build(None)
    }

    fn build(deadline: Option<Instant>) -> Budget {
        Budget {
            state: Arc::new(BudgetState {
                deadline,
                cancelled: AtomicBool::new(false),
                expired_seen: AtomicBool::new(false),
                truncated: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Flags the budget as expired immediately (caller-driven
    /// cancellation — e.g. a disconnected client).
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the deadline has passed or [`cancel`](Budget::cancel)
    /// was called.
    pub fn is_expired(&self) -> bool {
        self.state.expired()
    }

    /// Whether any work site truncated under this budget — the
    /// `degraded` marker of the response.
    pub fn degraded(&self) -> bool {
        !self
            .state
            .truncated
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// The sites (in first-truncation order, deduplicated) that cut
    /// work short under this budget.
    pub fn truncated(&self) -> Vec<&'static str> {
        self.state
            .truncated
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Runs `f` with this budget installed as the thread's current
    /// budget; [`expired`] and [`stop`] observe it for the duration.
    /// The previous budget (if any) is restored afterwards — also on
    /// panic, so an unwinding request never leaves a stale budget on a
    /// pooled worker thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore {
            prev: Option<Arc<BudgetState>>,
            prev_flag: bool,
        }
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
                ACTIVE.with(|a| a.set(self.prev_flag));
            }
        }
        let _restore = Restore {
            prev: CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.state))),
            prev_flag: ACTIVE.with(|a| a.replace(true)),
        };
        f()
    }
}

thread_local! {
    /// Fast gate: `true` iff a budget is installed on this thread.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<Arc<BudgetState>>> = const { RefCell::new(None) };
}

/// Whether a budget is installed on this thread. One TLS load.
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Whether the current budget (if any) has expired. Without an
/// installed budget this is a single TLS load returning `false` — the
/// free-when-disabled path.
pub fn expired() -> bool {
    if !ACTIVE.with(Cell::get) {
        return false;
    }
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|s| s.expired()))
}

/// The cooperative check used inside loops and at phase boundaries: if
/// the current budget has expired, records `site` in its truncation
/// list and returns `true` ("stop here, return best-so-far").
/// Without an installed budget: one TLS load, `false`.
pub fn stop(site: &'static str) -> bool {
    if !ACTIVE.with(Cell::get) {
        return false;
    }
    CURRENT.with(|c| {
        let b = c.borrow();
        match b.as_ref() {
            Some(s) if s.expired() => {
                s.record_truncation(site);
                true
            }
            _ => false,
        }
    })
}

/// The budget currently installed on this thread, if any
/// ([`Ctx::capture`](crate::Ctx::capture) takes it along to workers).
pub fn current() -> Option<Budget> {
    if !ACTIVE.with(Cell::get) {
        return None;
    }
    CURRENT
        .with(|c| c.borrow().clone())
        .map(|state| Budget { state })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_means_never_expired() {
        assert!(!active());
        assert!(!expired());
        assert!(!stop("tests.anywhere"));
        assert!(current().is_none());
    }

    #[test]
    fn deadline_expiry_is_observed_and_recorded() {
        let b = Budget::with_timeout(Duration::from_millis(1));
        b.install(|| {
            assert!(active());
            while !expired() {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(stop("tests.phase_a"));
            assert!(stop("tests.phase_a"), "stop keeps returning true");
            assert!(stop("tests.phase_b"));
        });
        assert!(b.is_expired());
        assert!(b.degraded());
        assert_eq!(b.truncated(), vec!["tests.phase_a", "tests.phase_b"]);
    }

    #[test]
    fn unlimited_budget_expires_only_on_cancel() {
        let b = Budget::unlimited();
        b.install(|| {
            assert!(!expired());
            assert!(!stop("tests.never"));
        });
        assert!(!b.degraded());
        b.cancel();
        b.install(|| {
            assert!(expired());
            assert!(stop("tests.cancelled"));
        });
        assert_eq!(b.truncated(), vec!["tests.cancelled"]);
    }

    #[test]
    fn install_restores_previous_budget_even_on_panic() {
        let outer = Budget::unlimited();
        outer.install(|| {
            let inner = Budget::with_timeout(Duration::ZERO);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inner.install(|| {
                    assert!(expired());
                    panic!("boom");
                })
            }));
            assert!(r.is_err());
            // Back on the outer (never-expiring) budget.
            assert!(active());
            assert!(!expired());
        });
        assert!(!active());
    }

    /// The free-when-disabled pin, modeled on the span-overhead test in
    /// `trace.rs`: with no budget installed, `stop()` must stay a
    /// couple of TLS loads. The bound is intentionally generous (CI
    /// machines are noisy); the measured cost is orders of magnitude
    /// below it.
    #[test]
    fn disabled_budget_check_overhead_is_negligible() {
        const N: u32 = 200_000;
        let start = Instant::now();
        for _ in 0..N {
            std::hint::black_box(stop("tests.overhead"));
        }
        let per_check = start.elapsed().as_nanos() / u128::from(N);
        assert!(
            per_check < 2_000,
            "disabled budget check cost {per_check} ns, expected ~ns"
        );
    }
}
