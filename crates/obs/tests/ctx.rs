//! `Ctx` carries a request thread's tracing position, budget, fault plan
//! and alloc-scope chain onto worker threads. Its own binary, because the
//! first test installs the process-global trace sink.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use cajade_obs::faults::{self, Plan, Site};
use cajade_obs::trace::{clear_sink, set_sink};
use cajade_obs::{budget, span, AllocScope, Budget, Ctx, Level, SpanRecord, TraceSink};

#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

#[derive(Default)]
struct Capture(Mutex<Vec<SpanRecord>>);

impl TraceSink for Capture {
    fn record(&self, rec: &SpanRecord) {
        self.0.lock().unwrap().push(rec.clone());
    }
}

/// With only the `CAJADE_TRACE` sink listening (no collector), a span
/// opened on a worker inside `ctx.enter` is a child of the span that was
/// open at `Ctx::capture()`, in the same trace.
#[test]
fn sink_only_worker_spans_join_the_callers_trace() {
    let sink = Arc::new(Capture::default());
    set_sink(sink.clone(), Level::Spans);
    let stage = span("ctx_test_stage");
    let stage_id = stage.id().expect("sink is listening");
    let ctx = Ctx::capture();
    std::thread::scope(|s| {
        s.spawn(|| {
            ctx.enter(|| drop(span("ctx_test_worker")));
            // Outside the context the thread is on its own again.
            drop(span("ctx_test_orphan"));
        });
    });
    drop(stage);
    clear_sink();

    let records = sink.0.lock().unwrap();
    let by_name = |n: &str| records.iter().find(|r| r.name == n).expect(n);
    let (stage, worker, orphan) = (
        by_name("ctx_test_stage"),
        by_name("ctx_test_worker"),
        by_name("ctx_test_orphan"),
    );
    assert_eq!(stage.id, stage_id);
    assert_eq!(worker.parent, Some(stage_id), "{worker:?}");
    assert_eq!(worker.trace, stage.trace, "{worker:?} vs {stage:?}");
    assert_eq!(orphan.parent, None);
    assert_ne!(orphan.trace, stage.trace);
}

/// The same hop carries budget expiry (and records the worker's
/// truncation site in the request's budget) and folds what the workers
/// allocate into the caller's open scope.
#[test]
fn worker_sees_the_callers_budget_and_alloc_scope() {
    let b = Budget::with_timeout(Duration::ZERO);
    let _scope = AllocScope::enter("test.ctx.fanout");
    let before = fanout_allocated();
    b.install(|| {
        let ctx = Ctx::capture();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    assert!(budget::current().is_none(), "fresh thread has no budget");
                    ctx.enter(|| {
                        assert!(budget::stop("tests.worker"));
                        std::hint::black_box(vec![0u8; 1 << 20]);
                    });
                    assert!(budget::current().is_none(), "enter restores the thread");
                });
            }
        });
    });
    assert_eq!(b.truncated(), vec!["tests.worker"]);
    let after = fanout_allocated();
    assert!(
        after >= before + (2 << 20),
        "worker bytes not folded: {before} -> {after}"
    );
}

/// A fault plan is the request's: a worker fires it inside `ctx.enter`,
/// not after, and a thread that never entered the context never does.
#[test]
fn a_plan_follows_the_ctx_and_nothing_else() {
    let plan = Plan::parse("ingest.load=error").unwrap();
    let ctx = plan.install(Ctx::capture);
    let load = || faults::failpoint(Site::IngestLoad);
    std::thread::scope(|s| {
        s.spawn(|| assert!(ctx.enter(load).is_err() && load().is_ok()));
        s.spawn(|| assert!(load().is_ok()));
    });
    assert_eq!(plan.fired(Site::IngestLoad), 1);
}

fn fanout_allocated() -> u64 {
    cajade_obs::alloc::scope_snapshot("test.ctx.fanout").map_or(0, |s| s.allocated_bytes)
}
