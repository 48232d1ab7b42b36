//! The request context and the stage guard: what a pipeline stage uses
//! of this crate.
//!
//! Tracing position, request budget and alloc-scope chain are
//! thread-local, so none follows work onto another thread by itself.
//! [`Ctx`] carries all three: capture it on the request thread before a
//! fan-out, enter it around each item on the worker. [`Stage`] opens a
//! stage's span and alloc scope off one clock reading and hands the wall
//! time back, so the timing structs are filled from the span's own clock.

use std::time::{Duration, Instant};

use crate::alloc::{current_scope, AllocScope, ScopeHandle};
use crate::budget::{self, Budget};
use crate::trace::{self, Level, SpanGuard, TraceCtx};

/// A request thread's thread-local context — where it is in its trace
/// (collector, trace id, innermost open span), its [`Budget`], and its
/// alloc-scope chain — captured for worker threads to run under.
pub struct Ctx {
    trace: Option<TraceCtx>,
    budget: Option<Budget>,
    scope: ScopeHandle,
}

impl Ctx {
    /// Snapshots the calling thread's context.
    pub fn capture() -> Ctx {
        Ctx {
            trace: TraceCtx::capture(),
            budget: budget::current(),
            scope: current_scope(),
        }
    }

    /// Runs `f` under the captured context in place of the current
    /// thread's own: spans opened inside are children of the captured
    /// span in the captured trace (for a collector and for the
    /// `CAJADE_TRACE` sink alike), budget checks see the captured budget,
    /// allocations are attributed up the captured scope chain. The
    /// thread's previous state is restored on exit, unwinding included.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let scoped = || self.scope.install(f);
        let traced = || match &self.trace {
            Some(t) => t.enter(scoped),
            None => scoped(),
        };
        match &self.budget {
            Some(b) => b.install(traced),
            None => traced(),
        }
    }
}

/// RAII guard for one pipeline stage: an open span, an open alloc scope,
/// and the clock reading both started at. Dropping it closes both;
/// [`finish`](Stage::finish) also returns the stage's wall time. Must
/// stay on the thread that opened it.
pub struct Stage {
    start: Instant,
    _span: SpanGuard,
    _mem: Option<AllocScope>,
}

impl Stage {
    /// A request/stage-level span ([`span`](crate::span)) and the alloc
    /// scope of the same name.
    pub fn open(name: &'static str) -> Stage {
        Stage::new(name, Level::Spans, Some(name))
    }

    /// A per-phase span ([`span_detail`](crate::span_detail)) and the
    /// alloc scope of the same name.
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
            _span: trace::open(span, level, || start),
            _mem: scope.map(AllocScope::enter),
        }
    }

    /// Wall time since the stage opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the stage and returns its wall time.
    pub fn finish(self) -> Duration {
        self.elapsed()
    }
}
