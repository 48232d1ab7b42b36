//! Service-side telemetry wiring.
//!
//! [`ServiceObs`] pre-resolves every `cajade-obs` instrument the hot
//! paths record into — counter/gauge/histogram handles are looked up
//! once at service construction, so an `ask` never touches the
//! registry's name map. The metric names here, the cache counter names
//! minted by [`crate::cache::CacheObs`], and the span taxonomy are all
//! documented in `docs/OBSERVABILITY.md`.

use std::sync::Arc;
use std::time::Duration;

use cajade_core::pipeline::WorkCounters;
use cajade_obs::{Counter, Histogram, Registry};

/// Pre-resolved instrument handles for the service's recording sites.
pub(crate) struct ServiceObs {
    /// The registry all instruments live in (also serves snapshots).
    pub registry: Arc<Registry>,

    // ---- Request counters. ---------------------------------------------
    pub asks_total: Arc<Counter>,
    pub sessions_opened_total: Arc<Counter>,
    /// The asks' per-graph work (the `apt_*`, `prepare_column_reads*` and
    /// `mine_*` counters), which `materialize_and_mine` adds to as each
    /// stage ends, also when the ask later panics. Deterministic for a
    /// given corpus, query and cache state.
    pub work: WorkCounters,
    /// Base columns whose statistics a registration computed: one per
    /// cell of its table filled, however many preparations asked.
    pub column_stats_computed_total: Arc<Counter>,
    /// One-edge extensions Algorithm 2 visited for provenance-cache
    /// misses, and the last-round ones among them dropped unkeyed because
    /// their primary keys cannot be covered any more. Deterministic for a
    /// given schema graph, query and enumeration parameters.
    pub jg_extensions_visited_total: Arc<Counter>,
    pub jg_extensions_rejected_total: Arc<Counter>,

    // ---- Robustness counters. ------------------------------------------
    /// Asks whose request deadline expired before the pipeline
    /// finished.
    pub ask_deadline_exceeded_total: Arc<Counter>,
    /// Asks answered with a truncated, best-so-far result
    /// (`degraded: true` on the wire).
    pub ask_degraded_total: Arc<Counter>,
    /// Protocol requests that panicked and were isolated by the serve
    /// loop's `catch_unwind` (each becomes an `internal_panic` error
    /// response; the process keeps serving).
    pub requests_panicked_total: Arc<Counter>,

    // ---- Ask latency histogram (µs). -----------------------------------
    pub ask_total_us: Arc<Histogram>,
}

impl ServiceObs {
    pub(crate) fn new(registry: Arc<Registry>) -> ServiceObs {
        let r = &registry;
        ServiceObs {
            asks_total: r.counter("asks_total"),
            sessions_opened_total: r.counter("sessions_opened_total"),
            work: WorkCounters {
                apt_join_steps: r.counter("apt_join_steps_total"),
                apt_join_steps_computed: r.counter("apt_join_steps_computed_total"),
                apt_index_builds: r.counter("apt_index_builds_total"),
                apt_graphs_over_cost: r.counter("apt_graphs_over_cost_total"),
                prepare_column_reads: r.counter("prepare_column_reads_total"),
                prepare_column_reads_computed: r.counter("prepare_column_reads_computed_total"),
                mine_exact_masks: r.counter("mine_exact_masks_total"),
                mine_exact_masks_computed: r.counter("mine_exact_masks_computed_total"),
                mine_ub_pruned_children: r.counter("mine_ub_pruned_children_total"),
                mine_recall_pruned_subtrees: r.counter("mine_recall_pruned_subtrees_total"),
            },
            column_stats_computed_total: r.counter("column_stats_computed_total"),
            jg_extensions_visited_total: r.counter("jg_extensions_visited_total"),
            jg_extensions_rejected_total: r.counter("jg_extensions_rejected_total"),
            ask_deadline_exceeded_total: r.counter("ask_deadline_exceeded_total"),
            ask_degraded_total: r.counter("ask_degraded_total"),
            requests_panicked_total: r.counter("requests_panicked_total"),
            ask_total_us: r.histogram("ask_total_us"),
            registry,
        }
    }

    /// Records one completed ask, an answer-cache hit included: one more
    /// ask, and its end-to-end wall.
    pub(crate) fn record_ask(&self, wall: Duration) {
        self.asks_total.inc();
        self.ask_total_us.record_duration(wall);
    }
}
