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

use cajade_core::SessionTimings;
use cajade_obs::{Counter, Histogram, Registry};

/// Pre-resolved instrument handles for the service's recording sites.
pub(crate) struct ServiceObs {
    /// The registry all instruments live in (also serves snapshots).
    pub registry: Arc<Registry>,

    // ---- Request counters. ---------------------------------------------
    pub asks_total: Arc<Counter>,
    pub sessions_opened_total: Arc<Counter>,
    /// Work the asks' `AptBuilder`s did for join graphs their query entry
    /// did not hold: `extend`
    /// steps applied (hash joins and closing-edge filters), the ones among
    /// them whose inputs no earlier step of the ask had read — which ran
    /// their loop — and key-index builds. Deterministic for a given
    /// corpus, query and cache state.
    pub apt_join_steps_total: Arc<Counter>,
    pub apt_join_steps_computed_total: Arc<Counter>,
    pub apt_index_builds_total: Arc<Counter>,
    /// Join graphs the asks' `AptBuilder`s skipped because one of their
    /// joins would output more than λ_qcost rows. Deterministic like the
    /// join work.
    pub apt_graphs_over_cost_total: Arc<Counter>,
    /// Candidate columns the asks' preparations read for `filterAttrs`,
    /// and the reads among them that gathered the column rather than take
    /// the gather another graph of the ask had left in its `ReadShare`.
    /// Deterministic like the join work.
    pub prepare_column_reads_total: Arc<Counter>,
    pub prepare_column_reads_computed_total: Arc<Counter>,
    /// All-rows predicate masks the asks' exact re-scores read (one per
    /// predicate of every winner), and the reads among them that filled
    /// the mask's slot in its prepared graph rather than find it filled.
    /// Deterministic like the join work.
    pub mine_exact_masks_total: Arc<Counter>,
    pub mine_exact_masks_computed_total: Arc<Counter>,
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

    // ---- Ask latency histogram (µs) + mining pruning counters. ---------
    pub ask_total_us: Arc<Histogram>,
    pub mine_ub_pruned_children_total: Arc<Counter>,
    pub mine_recall_pruned_subtrees_total: Arc<Counter>,
}

impl ServiceObs {
    pub(crate) fn new(registry: Arc<Registry>) -> ServiceObs {
        let r = &registry;
        ServiceObs {
            asks_total: r.counter("asks_total"),
            sessions_opened_total: r.counter("sessions_opened_total"),
            apt_join_steps_total: r.counter("apt_join_steps_total"),
            apt_join_steps_computed_total: r.counter("apt_join_steps_computed_total"),
            apt_index_builds_total: r.counter("apt_index_builds_total"),
            apt_graphs_over_cost_total: r.counter("apt_graphs_over_cost_total"),
            prepare_column_reads_total: r.counter("prepare_column_reads_total"),
            prepare_column_reads_computed_total: r.counter("prepare_column_reads_computed_total"),
            mine_exact_masks_total: r.counter("mine_exact_masks_total"),
            mine_exact_masks_computed_total: r.counter("mine_exact_masks_computed_total"),
            column_stats_computed_total: r.counter("column_stats_computed_total"),
            jg_extensions_visited_total: r.counter("jg_extensions_visited_total"),
            jg_extensions_rejected_total: r.counter("jg_extensions_rejected_total"),
            ask_deadline_exceeded_total: r.counter("ask_deadline_exceeded_total"),
            ask_degraded_total: r.counter("ask_degraded_total"),
            requests_panicked_total: r.counter("requests_panicked_total"),
            ask_total_us: r.histogram("ask_total_us"),
            mine_ub_pruned_children_total: r.counter("mine_ub_pruned_children_total"),
            mine_recall_pruned_subtrees_total: r.counter("mine_recall_pruned_subtrees_total"),
            registry,
        }
    }

    /// Records one completed ask: end-to-end wall plus the mining
    /// pruning counts. Answer-cache hits pass the default (all-zero)
    /// timings, so they add to `ask_total_us` and nothing else.
    pub(crate) fn record_ask(&self, wall: Duration, timings: &SessionTimings) {
        self.asks_total.inc();
        self.ask_total_us.record_duration(wall);
        let m = &timings.mining;
        self.mine_ub_pruned_children_total.add(m.ub_pruned_children);
        self.mine_recall_pruned_subtrees_total
            .add(m.recall_pruned_subtrees);
    }
}
