//! Structured tracing spans.
//!
//! A span measures one named phase of work. Creating one returns an RAII
//! [`SpanGuard`]; dropping the guard records the span. Span records carry
//! monotonically assigned trace/span ids and a parent pointer taken from
//! a **thread-local span stack**, so nested guards form a tree without
//! any plumbing at the call sites:
//!
//! ```
//! let _ask = cajade_obs::span("ask");
//! {
//!     let _prov = cajade_obs::span("provenance"); // parent: "ask"
//! }
//! ```
//!
//! Records go to two (independent, optional) destinations:
//!
//! * a per-request [`Collector`], installed for a scope with
//!   [`Collector::with`] — this is how `ask { trace: true }` assembles
//!   its span tree, including across worker threads (a parallel stage's
//!   [`Ctx`](crate::Ctx) carries the collector and the open span over);
//! * a process-global [`TraceSink`] (e.g. [`JsonLinesSink`]), installed
//!   by [`set_sink`] and gated by a [`Level`] filter — the
//!   `CAJADE_TRACE` env var wires this up via
//!   [`init_from_env`](crate::init_from_env).
//!
//! When neither destination is active, [`span`] returns an inert guard
//! after two relaxed loads (one atomic, one thread-local) — the
//! disabled path costs nanoseconds and allocates nothing, which is what
//! lets the pipeline stay instrumented permanently.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Verbosity filter for the global sink. Collectors ignore the level —
/// an explicitly requested trace always captures every span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No sink output.
    Off = 0,
    /// Request- and stage-level spans ([`span`]).
    Spans = 1,
    /// Adds per-phase spans ([`Stage::detail`](crate::Stage::detail)).
    Detail = 2,
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace id — shared by every span of one request (or one thread's
    /// ambient top-level span when no collector is installed).
    pub trace: u64,
    /// Span id, unique process-wide.
    pub id: u64,
    /// Parent span id (`None` for a root span).
    pub parent: Option<u64>,
    /// Static span name (see the taxonomy in `docs/OBSERVABILITY.md`).
    pub name: &'static str,
    /// Start offset in µs — relative to the collector's creation for
    /// collected spans, to process start for sink-emitted spans.
    pub start_us: u64,
    /// Wall-clock duration in µs.
    pub wall_us: u64,
    /// Bytes allocated on the span's thread while it was open. Zero
    /// unless the binary installed [`TrackingAlloc`](crate::TrackingAlloc);
    /// worker-thread allocations land on the workers' own spans.
    pub alloc_bytes: u64,
    /// Peak live-byte growth on the span's thread over its starting
    /// level (the span's own high-water mark). Zero without the
    /// tracking allocator.
    pub peak_bytes: u64,
}

impl SpanRecord {
    /// Renders the record as one JSON line (no trailing newline). Names
    /// are static identifiers, so no escaping is required.
    pub fn render_json(&self) -> String {
        let parent = match self.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"wall_us\":{},\"alloc_bytes\":{},\"peak_bytes\":{}}}",
            self.trace,
            self.id,
            parent,
            self.name,
            self.start_us,
            self.wall_us,
            self.alloc_bytes,
            self.peak_bytes
        )
    }
}

/// A pluggable destination for sink-emitted span records.
pub trait TraceSink: Send + Sync {
    /// Called once per finished span (start offsets are relative to
    /// process start).
    fn record(&self, rec: &SpanRecord);
}

/// JSON-lines sink over any writer (stderr by default).
pub struct JsonLinesSink<W: std::io::Write + Send> {
    out: Mutex<W>,
}

impl JsonLinesSink<std::io::Stderr> {
    /// A sink writing one JSON line per span to stderr.
    pub fn stderr() -> Self {
        JsonLinesSink {
            out: Mutex::new(std::io::stderr()),
        }
    }
}

impl<W: std::io::Write + Send> JsonLinesSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }
}

impl<W: std::io::Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, rec: &SpanRecord) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{}", rec.render_json());
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// `Level` of the installed sink, as u8 for a relaxed fast-path load.
static SINK_LEVEL: AtomicU8 = AtomicU8::new(0);
static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Installs the global sink at `level` (replacing any previous sink).
pub fn set_sink(sink: Arc<dyn TraceSink>, level: Level) {
    process_epoch(); // pin t=0 before the first record
    *SINK.write().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    SINK_LEVEL.store(level as u8, Ordering::Release);
}

/// Removes the global sink; span guards return to the inert fast path.
pub fn clear_sink() {
    SINK_LEVEL.store(0, Ordering::Release);
    *SINK.write().unwrap_or_else(|e| e.into_inner()) = None;
}

#[derive(Default, Clone)]
struct TlsState {
    collector: Option<Arc<Collector>>,
    /// Open span ids, innermost last. A collector scope seeds the bottom
    /// with its parent id; guards only pop what they pushed.
    stack: Vec<u64>,
    /// Ambient trace id for sink-only tracing (assigned when the stack
    /// goes empty → non-empty).
    trace_id: u64,
}

thread_local! {
    /// Fast flag: true while a collector is installed on this thread.
    static COLLECTING: Cell<bool> = const { Cell::new(false) };
    static TLS: RefCell<TlsState> = RefCell::new(TlsState::default());
}

#[inline]
fn enabled(level: Level) -> bool {
    SINK_LEVEL.load(Ordering::Relaxed) >= level as u8 || COLLECTING.with(Cell::get)
}

/// Opens a request/stage-level span. Inert (no allocation, no clock
/// read) unless a sink at [`Level::Spans`]+ or a collector is active.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open(name, Level::Spans, Instant::now)
}

/// [`span`], or a [`Stage`](crate::Stage)'s span, by level. `start` is only called — the
/// clock only read — when something is listening.
#[inline]
pub(crate) fn open(name: &'static str, level: Level, start: impl FnOnce() -> Instant) -> SpanGuard {
    if !enabled(level) {
        return SpanGuard {
            active: None,
            _not_send: std::marker::PhantomData,
        };
    }
    begin(name, level, start())
}

fn begin(name: &'static str, level: Level, start: Instant) -> SpanGuard {
    let (trace, parent) = TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        let trace = match &tls.collector {
            Some(c) => c.trace_id,
            None => {
                if tls.stack.is_empty() {
                    tls.trace_id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
                }
                tls.trace_id
            }
        };
        (trace, tls.stack.last().copied())
    });
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    TLS.with(|tls| tls.borrow_mut().stack.push(id));
    SpanGuard {
        active: Some(ActiveSpan {
            trace,
            id,
            parent,
            name,
            level,
            start,
            mem: crate::alloc::span_mem_enter(),
        }),
        _not_send: std::marker::PhantomData,
    }
}

struct ActiveSpan {
    trace: u64,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    level: Level,
    start: Instant,
    mem: crate::alloc::SpanMem,
}

/// RAII guard for an open span; records on drop. Must stay on the thread
/// that created it (it owns a slot in that thread's span stack).
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    /// The span id (what a record opened under this span carries as its
    /// `parent`). `None` when tracing is disabled.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// Closes the span at `end`, the clock reading its owner already
    /// took, instead of reading the clock again.
    pub(crate) fn close_at(mut self, end: Instant) {
        self.close(|| end);
    }

    /// Records the span (if active) as ending at `end()`.
    fn close(&mut self, end: impl FnOnce() -> Instant) {
        let Some(a) = self.active.take() else { return };
        let wall_us = saturating_us(end().saturating_duration_since(a.start));
        let (alloc_bytes, peak_bytes) = crate::alloc::span_mem_exit(a.mem);
        let collector = TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            // LIFO in the common case; defensive removal otherwise so a
            // leaked-out-of-order guard cannot corrupt sibling parents.
            match tls.stack.last() {
                Some(&top) if top == a.id => {
                    tls.stack.pop();
                }
                _ => tls.stack.retain(|&id| id != a.id),
            }
            tls.collector.clone()
        });
        if let Some(c) = collector {
            c.push(SpanRecord {
                trace: a.trace,
                id: a.id,
                parent: a.parent,
                name: a.name,
                start_us: saturating_us(a.start.saturating_duration_since(c.t0)),
                wall_us,
                alloc_bytes,
                peak_bytes,
            });
        }
        if SINK_LEVEL.load(Ordering::Relaxed) >= a.level as u8 {
            if let Some(sink) = SINK.read().unwrap_or_else(|e| e.into_inner()).as_ref() {
                sink.record(&SpanRecord {
                    trace: a.trace,
                    id: a.id,
                    parent: a.parent,
                    name: a.name,
                    start_us: saturating_us(a.start.saturating_duration_since(process_epoch())),
                    wall_us,
                    alloc_bytes,
                    peak_bytes,
                });
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close(Instant::now);
    }
}

fn saturating_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Gathers one request's spans into a tree (flat list with parent
/// pointers). Shareable across the worker threads of a parallel stage.
pub struct Collector {
    trace_id: u64,
    t0: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Collector {
    /// A fresh collector with its own trace id.
    pub fn new() -> Arc<Collector> {
        Arc::new(Collector {
            trace_id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// The trace id every collected span carries.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn push(&self, rec: SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(rec);
    }

    /// Runs `f` with this collector installed on the current thread and
    /// `parent` seeding the span stack. Restores the thread's previous
    /// tracing state on exit; safe to nest and to call on worker threads.
    pub fn with<R>(self: &Arc<Self>, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        TraceCtx(TlsState {
            collector: Some(Arc::clone(self)),
            stack: parent.into_iter().collect(),
            trace_id: self.trace_id,
        })
        .enter(f)
    }

    /// Drains the collected spans, ordered by start offset (ties broken
    /// by span id, i.e. creation order).
    pub fn finish(&self) -> Vec<SpanRecord> {
        let mut spans = std::mem::take(&mut *self.spans.lock().unwrap_or_else(|e| e.into_inner()));
        spans.sort_by_key(|r| (r.start_us, r.id));
        spans
    }
}

/// A thread's place in a trace — collector, trace id, innermost open
/// span — for [`Ctx`](crate::Ctx) to carry onto worker threads.
pub(crate) struct TraceCtx(TlsState);

impl TraceCtx {
    /// The calling thread's place; `None` when nothing is listening, so
    /// an untraced fan-out pays nothing for the hop.
    pub(crate) fn capture() -> Option<TraceCtx> {
        if !enabled(Level::Spans) {
            return None;
        }
        Some(TLS.with(|tls| {
            let tls = tls.borrow();
            TraceCtx(TlsState {
                collector: tls.collector.clone(),
                stack: tls.stack.last().copied().into_iter().collect(),
                trace_id: tls.trace_id,
            })
        }))
    }

    /// Runs `f` at this place, restoring the thread's own on exit.
    pub(crate) fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = TLS.with(|tls| tls.replace(self.0.clone()));
        let prev_flag = COLLECTING.with(|c| c.replace(self.0.collector.is_some()));
        // Restore on unwind too: a panicking ask must not leave a dangling
        // collector on a pooled worker thread.
        struct Restore {
            prev: Option<TlsState>,
            prev_flag: bool,
        }
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.prev.take().expect("restore once");
                TLS.with(|tls| *tls.borrow_mut() = prev);
                COLLECTING.with(|c| c.set(self.prev_flag));
            }
        }
        let _restore = Restore {
            prev: Some(prev),
            prev_flag,
        };
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let g = span("noop");
        assert_eq!(g.id(), None);
        drop(g);
        TLS.with(|tls| assert!(tls.borrow().stack.is_empty()));
    }

    /// Satellite: the disabled path must stay nanosecond-scale — the
    /// whole point of permanent instrumentation. Bound is deliberately
    /// loose (2 µs/span in debug mode under CI noise); release-mode
    /// reality is a few ns.
    #[test]
    fn disabled_span_overhead_is_negligible() {
        let n = 200_000u64;
        let t0 = Instant::now();
        for _ in 0..n {
            let _g = span("overhead_probe");
        }
        let per_span = t0.elapsed().as_nanos() as u64 / n;
        assert!(
            per_span < 2_000,
            "disabled span cost {per_span} ns — fast path regressed"
        );
    }

    #[test]
    fn collector_builds_a_parented_tree() {
        let c = Collector::new();
        c.with(None, || {
            let root = span("root");
            let root_id = root.id().unwrap();
            {
                let child = open("child", Level::Detail, Instant::now);
                assert_eq!(
                    TLS.with(|t| t.borrow().stack.clone()),
                    vec![root_id, child.id().unwrap()]
                );
                let _grand = span("grandchild");
            }
            let _sibling = span("sibling");
        });
        let spans = c.finish();
        let names: Vec<&str> = spans.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), 4);
        let by_name = |n: &str| spans.iter().find(|r| r.name == n).unwrap();
        let root = by_name("root");
        assert_eq!(root.parent, None);
        assert_eq!(by_name("child").parent, Some(root.id));
        assert_eq!(by_name("grandchild").parent, Some(by_name("child").id));
        assert_eq!(by_name("sibling").parent, Some(root.id));
        assert!(spans.iter().all(|r| r.trace == c.trace_id()));
        // Root starts first and (being the enclosing scope) outlasts its
        // children.
        assert!(root.wall_us >= by_name("child").wall_us);
    }

    #[test]
    fn collector_spans_cross_threads_via_explicit_parent() {
        let c = Collector::new();
        let parent_id = c.with(None, || {
            let stage = span("stage");
            let id = stage.id().unwrap();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        c.with(Some(id), || {
                            let _w = span("worker");
                        })
                    });
                }
            });
            id
        });
        let spans = c.finish();
        let workers: Vec<_> = spans.iter().filter(|r| r.name == "worker").collect();
        assert_eq!(workers.len(), 2);
        assert!(workers.iter().all(|r| r.parent == Some(parent_id)));
    }

    #[test]
    fn collector_restores_previous_thread_state() {
        let outer = Collector::new();
        let inner = Collector::new();
        outer.with(None, || {
            let _a = span("outer_span");
            inner.with(None, || {
                let _b = span("inner_span");
            });
            let _c = span("outer_span_2");
        });
        assert_eq!(inner.finish().len(), 1);
        assert_eq!(outer.finish().len(), 2);
        assert!(!COLLECTING.with(Cell::get));
    }

    #[test]
    fn json_line_rendering() {
        let rec = SpanRecord {
            trace: 7,
            id: 9,
            parent: None,
            name: "ask",
            start_us: 12,
            wall_us: 34,
            alloc_bytes: 256,
            peak_bytes: 128,
        };
        assert_eq!(
            rec.render_json(),
            r#"{"trace":7,"span":9,"parent":null,"name":"ask","start_us":12,"wall_us":34,"alloc_bytes":256,"peak_bytes":128}"#
        );
        let rec = SpanRecord {
            parent: Some(9),
            ..rec
        };
        assert!(rec.render_json().contains("\"parent\":9"));
    }

    /// With the tracking allocator installed (see lib.rs), collected
    /// spans carry their thread's allocation delta.
    #[test]
    fn collected_spans_carry_alloc_deltas() {
        let c = Collector::new();
        c.with(None, || {
            let _s = span("alloc_probe");
            let v = vec![0u8; 1 << 16];
            std::hint::black_box(&v);
        });
        let spans = c.finish();
        let probe = spans.iter().find(|r| r.name == "alloc_probe").unwrap();
        assert!(
            probe.alloc_bytes >= 1 << 16,
            "span alloc delta missing: {probe:?}"
        );
        assert!(probe.peak_bytes >= 1 << 16, "span peak missing: {probe:?}");
    }
}
