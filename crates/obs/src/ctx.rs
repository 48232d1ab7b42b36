//! The request context and the stage guard: what a pipeline stage uses
//! of this crate.
//!
//! Tracing position, request budget, fault plan and alloc-scope chain
//! are thread-local, so none follows work onto another thread by itself.
//! [`Ctx`] carries all four: capture it on the request thread before a
//! fan-out, enter it around each item on the worker. [`Stage`] opens a
//! stage's span and alloc scope off one clock reading, closes the span
//! off another and hands the wall time between the two back, so the
//! timing structs are filled from the span's own clock.

use std::time::{Duration, Instant};

use crate::alloc::{current_scope, AllocScope, ScopeHandle};
use crate::budget::{self, Budget};
use crate::faults::{self, Plan};
use crate::trace::{self, Level, SpanGuard, TraceCtx};

/// A request thread's thread-local context — where it is in its trace
/// (collector, trace id, innermost open span), its [`Budget`], its fault
/// [`Plan`] and its alloc-scope chain — captured for worker threads to
/// run under.
pub struct Ctx {
    trace: Option<TraceCtx>,
    budget: Option<Budget>,
    plan: Option<Plan>,
    scope: ScopeHandle,
}

impl Ctx {
    /// Snapshots the calling thread's context.
    pub fn capture() -> Ctx {
        Ctx {
            trace: TraceCtx::capture(),
            budget: budget::current(),
            plan: faults::current(),
            scope: current_scope(),
        }
    }

    /// Runs `f` under the captured context in place of the current
    /// thread's own: spans opened inside are children of the captured
    /// span in the captured trace (for a collector and for the
    /// `CAJADE_TRACE` sink alike), budget checks see the captured budget,
    /// failpoints the captured plan, allocations are attributed up the
    /// captured scope chain. The thread's previous state is restored on
    /// exit, unwinding included. The scope chain is installed outermost,
    /// so that what entering and leaving the rest allocates is folded
    /// with `f`'s events when `enter` returns.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let traced = || match &self.trace {
            Some(t) => t.enter(f),
            None => f(),
        };
        let planned = || match &self.plan {
            Some(p) => p.install(traced),
            None => traced(),
        };
        let budgeted = || match &self.budget {
            Some(b) => b.install(planned),
            None => planned(),
        };
        self.scope.install(budgeted)
    }
}

/// RAII guard for one pipeline stage: an open span, an open alloc scope,
/// and the clock reading both started at. Dropping it closes both;
/// [`finish`](Stage::finish) also returns the stage's wall time, the one
/// its span records. Must stay on the thread that opened it.
pub struct Stage {
    start: Instant,
    span: SpanGuard,
    mem: Option<AllocScope>,
}

impl Stage {
    /// A request/stage-level span ([`span`](crate::span)) and the alloc
    /// scope of the same name.
    pub fn open(name: &'static str) -> Stage {
        Stage::new(name, Level::Spans, Some(name))
    }

    /// A per-phase span (emitted to the sink at [`Level::Detail`] only)
    /// and the alloc scope of the same name.
    pub fn detail(name: &'static str) -> Stage {
        Stage::new(name, Level::Detail, Some(name))
    }

    /// [`open`](Stage::open) for the per-graph stages, whose span carries
    /// the `_apt` suffix their alloc scope does not.
    pub fn open_as(span: &'static str, scope: &'static str) -> Stage {
        Stage::new(span, Level::Spans, Some(scope))
    }

    /// A stage-level span timed like a stage but with no alloc scope of
    /// its own (the request root: its bytes are its stages').
    pub fn span_only(name: &'static str) -> Stage {
        Stage::new(name, Level::Spans, None)
    }

    fn new(span: &'static str, level: Level, scope: Option<&'static str>) -> Stage {
        let start = Instant::now();
        Stage {
            start,
            span: trace::open(span, level, || start),
            mem: scope.map(AllocScope::enter),
        }
    }

    /// Closes the stage and returns its wall time: one clock reading
    /// ends both the span and the returned duration, so a timing row
    /// filled from `finish()` is exactly its spans' `wall_us`, to the µs.
    pub fn finish(self) -> Duration {
        let Stage { start, span, mem } = self;
        let end = Instant::now();
        span.close_at(end);
        drop(mem);
        end.saturating_duration_since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Collector;

    #[test]
    fn a_finished_stage_records_the_wall_it_returns() {
        let c = Collector::new();
        let wall = c.with(None, || {
            let stage = Stage::detail("finished");
            std::thread::sleep(Duration::from_millis(2));
            let wall = stage.finish();
            drop(Stage::open("dropped"));
            wall
        });
        let spans = c.finish();
        let by_name = |n: &str| spans.iter().find(|r| r.name == n).expect(n);
        assert_eq!(
            by_name("finished").wall_us,
            u64::try_from(wall.as_micros()).unwrap()
        );
        assert_eq!(
            spans.len(),
            2,
            "an unfinished stage records its span on drop"
        );
        assert_eq!(by_name("dropped").parent, None);
    }
}
