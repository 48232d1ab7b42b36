//! Interactive session handles.
//!
//! A [`SessionHandle`] pins one `(database, query)` pair and answers
//! repeated [`ask`](SessionHandle::ask) calls. The first question pays
//! for provenance, join-graph enumeration, APT materialization and the
//! question-independent half of mining; the service caches them in one
//! [`QueryEntry`] keyed by database epoch and canonical SQL — provenance
//! and enumeration, and one immutable [`PreparedGraph`] per join graph —
//! so later questions, from this handle or any other session on the same
//! query, skip straight to scoring (§2.4's interactive usage pattern).
//! Every stage runs under the service's one
//! [`Params`](cajade_core::Params).
//!
//! An ask that finds some graphs missing makes one lookup per valid graph,
//! derives the missing graphs' views through one [`AptBuilder`], plans one
//! [`ReadShare`] over exactly those views, and prepares each under its
//! slot's lock — the expensive half, which concurrent cold asks therefore
//! do once; the view, which needs the ask's builder, they may both derive.
//! Then every graph is mined in enumeration order.

use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use cajade_core::pipeline::{self, GraphOutcome};
use cajade_core::{SessionResult, UserQuestion};
use cajade_graph::{Apt, AptBuilder};
use cajade_mining::ReadShare;
use cajade_obs::{span, Collector, SpanRecord, Stage};
use cajade_query::Query;

use crate::colstats::DbColumnStats;
use crate::keys::{AnswerKey, ProvKey};
use crate::service::{PreparedGraph, QueryEntry, RegisteredDb, ServiceInner};
use crate::{Result, ServiceError};

/// Per-ask knobs beyond the question itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct AskOptions {
    /// Capture a per-request span tree ([`AskResult::trace`]).
    pub trace: bool,
    /// Request budget: the deadline after which every pipeline phase
    /// stops at its next cooperative check and the ask returns a
    /// best-so-far, [`SessionResult::degraded`] answer. `None` runs to
    /// completion (the disabled budget check costs ~ns).
    pub timeout: Option<Duration>,
}

/// One answered question plus its cache telemetry.
#[derive(Debug)]
pub struct AskResult {
    /// The ranked explanations and pipeline statistics. On a warm ask the
    /// provenance / enumeration / materialization timings reflect work
    /// actually done (zero on cache hits), mirroring the latency the
    /// caller observed.
    pub result: SessionResult,
    /// Whether the fully-ranked answer came straight from the answer
    /// cache (same db epoch, query, and question). When true, no pipeline
    /// stage ran at all.
    pub answer_cache_hit: bool,
    /// Whether provenance + enumeration came from cache.
    pub provenance_cache_hit: bool,
    /// Join graphs whose APT and mining preparation the query's cache
    /// entry held.
    pub apt_cache_hits: usize,
    /// Join graphs this ask had to materialize and prepare.
    pub apt_cache_misses: usize,
    /// End-to-end wall clock of this ask.
    pub wall: Duration,
    /// The request's span tree (flat records with parent pointers),
    /// captured when the ask was issued with
    /// [`ask_traced`](SessionHandle::ask_traced)`(…, true)`; `None`
    /// otherwise. Spans cover the pipeline stages actually executed —
    /// a warm ask has no `provenance`/`jg_enum` spans because those
    /// stages never ran.
    pub trace: Option<Vec<SpanRecord>>,
}

/// An open interactive session. Cheap to share across threads; all
/// mutable state lives in the service's caches.
pub struct SessionHandle {
    id: u64,
    db_name: String,
    query: Query,
    sql: String,
    service: Weak<ServiceInner>,
}

/// What stage 3 of an ask found for one join graph.
enum Resolved {
    /// The prepared graph its query entry holds.
    Hit(Arc<PreparedGraph>),
    /// The view of a graph the entry does not hold, and what it took to
    /// derive.
    Miss(Arc<Apt>, Duration),
}

impl SessionHandle {
    pub(crate) fn new(id: u64, db_name: String, query: Query, service: Weak<ServiceInner>) -> Self {
        SessionHandle {
            id,
            db_name,
            sql: query.to_sql(),
            query,
            service,
        }
    }

    /// Session id (stable for the lifetime of the service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The registered database name this session queries.
    pub fn db_name(&self) -> &str {
        &self.db_name
    }

    /// Canonical SQL of the session's query.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Answers one user question.
    ///
    /// Stage reuse: provenance + enumeration are fetched from (or
    /// inserted into) the provenance cache; each valid join graph's APT
    /// and mining preparation are fetched from (or computed into) its
    /// slot of that entry; scoring and ranking always run because they
    /// depend on the question.
    pub fn ask(&self, question: &UserQuestion) -> Result<AskResult> {
        self.ask_traced(question, false)
    }

    /// Like [`ask`](SessionHandle::ask); with `trace` set, the request
    /// additionally runs under a per-request span
    /// [`Collector`] and [`AskResult::trace`] carries
    /// the full span tree (one record per executed pipeline phase, with
    /// parent pointers). Tracing changes nothing about the answer; it
    /// adds one collector allocation plus a few µs of span bookkeeping.
    pub fn ask_traced(&self, question: &UserQuestion, trace: bool) -> Result<AskResult> {
        self.ask_with(
            question,
            &AskOptions {
                trace,
                timeout: None,
            },
        )
    }

    /// The fully-optioned ask: tracing and/or a request budget.
    ///
    /// With [`AskOptions::timeout`] set, a [`cajade_obs::Budget`] is
    /// installed around the whole pipeline; phases check it cooperatively
    /// (join-graph materialization boundaries, mining-preparation phase
    /// boundaries, forest-training task boundaries, every 64 refinement
    /// patterns) and stop early when the deadline passes. The ask still
    /// returns `Ok` with valid, merely less-refined explanations and
    /// [`SessionResult::degraded`] set; degraded results are never
    /// cached.
    pub fn ask_with(&self, question: &UserQuestion, opts: &AskOptions) -> Result<AskResult> {
        let run = || {
            if !opts.trace {
                return self.ask_inner(question);
            }
            let collector = Collector::new();
            let mut result = collector.with(None, || self.ask_inner(question))?;
            result.trace = Some(collector.finish());
            Ok(result)
        };
        match opts.timeout {
            None => run(),
            Some(timeout) => cajade_obs::Budget::with_timeout(timeout).install(run),
        }
    }

    fn ask_inner(&self, question: &UserQuestion) -> Result<AskResult> {
        let inner = self.service.upgrade().ok_or(ServiceError::ServiceDropped)?;
        let ask = Stage::span_only("ask");
        let reg: Arc<RegisteredDb> = inner.registered(&self.db_name)?;

        // ---- Stage 0: the fully-ranked answer may already be cached. ----
        let answer_key = AnswerKey {
            query: self.prov_key(&reg),
            question: AnswerKey::canonical_question(question),
        };
        let prov_key = &answer_key.query;
        if let Some(cached) = inner.answer_cache.get(&answer_key) {
            let mut result = (*cached).clone();
            // No pipeline stage ran; the cold run's stage timings would
            // misreport this request's work.
            result.timings = cajade_core::SessionTimings::default();
            let wall = ask.finish();
            inner.obs.record_ask(wall, &result.timings);
            return Ok(AskResult {
                result,
                answer_cache_hit: true,
                provenance_cache_hit: true,
                apt_cache_hits: 0,
                apt_cache_misses: 0,
                wall,
                trace: None,
            });
        }

        // ---- Stage 1+2: provenance + enumeration, cached. ---------------
        let resolve_span = span("resolve_query");
        let (entry, provenance_cache_hit) = self.prepare_cached(&inner, &reg, prov_key)?;
        let prepared = &entry.query;

        let mining_question =
            pipeline::resolve_question(&reg.db, &self.query, &prepared.pt, question)?;
        drop(resolve_span);

        // ---- Stage 3: one slot lookup per valid graph; a view per miss. ---
        // The three stages from here on go through `pipeline::fan_out`, so
        // their workers run under this thread's `Ctx`: stage span as
        // parent, the request's budget, its alloc scopes.
        //
        // Misses are materialized through one `AptBuilder`, made by the
        // first miss and dropped with this stage: graphs share the joins
        // of their common prefixes, and an ask served from the cache
        // builds none. A view is not latched — two racing cold asks may
        // both derive a graph's view (16 ms of NBA's cold ask for all
        // 202); the latch is on the preparation below (48 ms).
        let valid = prepared.valid_graph_indices();
        let mat_span = span("materialize");
        let builder: OnceLock<AptBuilder<'_>> = OnceLock::new();
        type Graph = (usize, Resolved);
        let resolve_one = |&gi: &usize| -> Result<Option<Graph>> {
            // Budget check at the per-graph boundary: an expired
            // deadline skips the remaining graphs entirely — the ones
            // already materialized still get mined, so the answer
            // covers fewer join graphs rather than failing.
            if cajade_obs::budget::stop("materialize") {
                return Ok(None);
            }
            if let Some(hit) = entry.graph(gi, &inner.apt_obs) {
                return Ok(Some((gi, Resolved::Hit(hit))));
            }
            // Attribute the retained view to the cache that will hold
            // it (inclusive with "materialize").
            let _mem = cajade_obs::AllocScope::enter("cache.apt");
            let builder = builder.get_or_init(|| {
                pipeline::begin_materialize(&reg.db, &prepared.pt, &prepared.graphs)
            });
            let (apt, wall) = pipeline::materialize(builder, gi)?;
            Ok(Some((gi, Resolved::Miss(Arc::new(apt), wall))))
        };
        let resolved: Result<Vec<Option<Graph>>> =
            pipeline::fan_out(&inner.params, &valid, resolve_one);
        if let Some(builder) = builder.into_inner() {
            // Freed where the misses allocated it: under `cache.apt`.
            let _mem = cajade_obs::AllocScope::enter("cache.apt");
            let (applied, computed, index_builds) = pipeline::finish_materialize(builder);
            inner.obs.apt_join_steps_total.add(applied);
            inner.obs.apt_join_steps_computed_total.add(computed);
            inner.obs.apt_index_builds_total.add(index_builds);
        }
        let resolved: Vec<Graph> = resolved?.into_iter().flatten().collect();
        drop(mat_span);

        // ---- Stage 3.5: question-independent mining preparation. --------
        // Feature selection, the LCA candidate pool, fragment boundaries,
        // and the scoring index/bitmaps depend only on the APT (and the
        // service's parameters); they are computed once per graph, under
        // its slot's lock — concurrent cold asks prepare a graph once —
        // and reused by every later question. Per-column
        // statistics (bin specs, fragment boundaries) are shared even
        // further: the registration hands every graph after the first —
        // and every later preparation touching the same context column —
        // what it computed once for that base column.
        //
        // What the graphs of *this* ask read in common — the same base
        // column through the same row-id vector, the scan order over the
        // same `pt_row` vector — goes through the ask's `ReadShare`,
        // planned here over the views of the misses and dropped with this
        // stage. A warm ask plans nothing.
        let prep_span = span("prepare");
        let mut views = (resolved.iter())
            .filter_map(|(_, r)| match r {
                Resolved::Miss(view, _) => Some(view.as_ref()),
                Resolved::Hit(_) => None,
            })
            .peekable();
        let any_missing = views.peek().is_some();
        let share = any_missing.then(|| {
            // Like the prepared state it serves: under "cache.apt", in the
            // stage's own scope.
            let _mem = cajade_obs::AllocScope::enter("cache.apt");
            let _stage = cajade_obs::AllocScope::enter("prepare");
            ReadShare::plan(views)
        });
        let col_stats = DbColumnStats::new(&inner, &reg, share);
        // `(graph, materialization wall, whether this ask prepared it)`.
        type Ready = (usize, Arc<PreparedGraph>, Duration, bool);
        let prepare_one = |(gi, resolved): &Graph| -> Ready {
            let (apt, mat) = match resolved {
                Resolved::Hit(graph) => return (*gi, Arc::clone(graph), Duration::ZERO, false),
                Resolved::Miss(view, mat) => (view, *mat),
            };
            // `prepared` false: another ask stored the graph while this
            // one derived its view.
            let (graph, prepared) = entry.graph_or_prepare(*gi, &inner.apt_obs, || {
                cajade_obs::faults::failpoint_infallible("cache.apt_compute");
                // The entry retains view and preparation alike.
                let _mem = cajade_obs::AllocScope::enter("cache.apt");
                let prep =
                    pipeline::prepare_mining(apt, &prepared.pt, &inner.params, &col_stats, None);
                let apt = Arc::clone(apt);
                PreparedGraph { apt, prep }
            });
            (*gi, graph, mat, prepared)
        };
        let ready = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline::fan_out::<_, _, Vec<Ready>>(&inner.params, &resolved, prepare_one)
        }));
        if any_missing {
            // The one place the entry is weighed again: it grew by what
            // this ask stored in it — also when a worker panicked past the
            // graphs its siblings stored.
            inner.prov_cache.reweigh(prov_key, |e| e.approx_bytes());
        }
        let ready = ready.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        // The views of graphs another ask prepared first.
        drop(resolved);
        let apt_cache_misses = ready.iter().filter(|(_, _, _, computed)| *computed).count();
        let apt_cache_hits = ready.len() - apt_cache_misses;
        if let Some(share) = col_stats.share {
            let (reads, computed) = share.column_reads();
            inner.obs.prepare_column_reads_total.add(reads);
            inner.obs.prepare_column_reads_computed_total.add(computed);
            // Whatever a reader that never came left in it is freed where
            // the preparations allocated it.
            let _mem = cajade_obs::AllocScope::enter("cache.apt");
            let _stage = cajade_obs::AllocScope::enter("prepare");
            drop(share);
        }
        drop(prep_span);

        // ---- Stage 4: mining (only the question-specific half). ---------
        let mine_span = span("mine");
        let mine_one = |(gi, graph, mat, computed): &Ready| -> GraphOutcome {
            pipeline::mine_one_prepared(
                &prepared.pt,
                &graph.apt,
                &graph.prep,
                &mining_question,
                &inner.params,
                *gi,
                *mat,
                *computed,
            )
        };
        let outcomes: Vec<GraphOutcome> = pipeline::fan_out(&inner.params, &ready, mine_one);
        drop(mine_span);

        // ---- Stage 5: assemble + rank. ----------------------------------
        let mut result =
            pipeline::assemble(&reg.db, &self.query, prepared, outcomes, &inner.params);
        if provenance_cache_hit {
            // Those phases were skipped; report the latency actually paid.
            result.timings.provenance = Duration::ZERO;
            result.timings.jg_enum = Duration::ZERO;
        }
        // A degraded (budget-truncated) answer is correct for *this*
        // request but must never serve a future, unbudgeted one.
        if !result.degraded && inner.epoch_is_current(&self.db_name, reg.epoch) {
            let _mem = cajade_obs::AllocScope::enter("cache.answer");
            let retained = Arc::new(result.clone());
            inner
                .answer_cache
                .insert(answer_key, retained, answer_bytes(&result));
        }
        if result.degraded {
            inner.obs.ask_degraded_total.inc();
        }
        if cajade_obs::budget::expired() {
            inner.obs.ask_deadline_exceeded_total.inc();
        }
        let wall = ask.finish();
        inner.obs.record_ask(wall, &result.timings);
        Ok(AskResult {
            result,
            answer_cache_hit: false,
            provenance_cache_hit,
            apt_cache_hits,
            apt_cache_misses,
            wall,
            trace: None,
        })
    }

    /// Convenience: two-point question from `(column, value)` pairs.
    pub fn ask_between(&self, t1: &[(&str, &str)], t2: &[(&str, &str)]) -> Result<AskResult> {
        self.ask(&UserQuestion::two_point(t1, t2))
    }

    /// Runs (or fetches) the session's prepared stages and returns the
    /// query's answer relation. Used by the serve protocol's `query` op:
    /// previewing the output tuples warms the provenance cache, so the
    /// session's first `ask` already skips preparation.
    pub fn preview(&self) -> Result<cajade_query::QueryResult> {
        let inner = self.service.upgrade().ok_or(ServiceError::ServiceDropped)?;
        let reg = inner.registered(&self.db_name)?;
        let (entry, _) = self.prepare_cached(&inner, &reg, &self.prov_key(&reg))?;
        Ok(entry.query.result.clone())
    }

    fn prov_key(&self, reg: &RegisteredDb) -> ProvKey {
        ProvKey {
            epoch: reg.epoch,
            sql: self.sql.clone(),
        }
    }

    /// Provenance-cache get-or-compute for this session's `(db, query)`
    /// coordinates.
    ///
    /// Computation is **single-flighted**: two concurrent cold asks on the
    /// same coordinates serialize on a per-key latch, one computes
    /// provenance + enumeration, and the other receives the cached result
    /// (`provenance_cache.coalesced` counts the deduplicated work).
    fn prepare_cached(
        &self,
        inner: &ServiceInner,
        reg: &RegisteredDb,
        prov_key: &ProvKey,
    ) -> Result<(Arc<QueryEntry>, bool)> {
        inner.prov_cache.get_or_try_compute(prov_key, || {
            cajade_obs::faults::failpoint_infallible("cache.provenance_compute");
            // Attribute the retained prepared query (provenance table +
            // enumeration) to the cache holding it.
            let _mem = cajade_obs::AllocScope::enter("cache.provenance");
            let p = pipeline::prepare(&reg.db, &reg.schema_graph, &self.query, &inner.params)?;
            let obs = &inner.obs;
            obs.jg_extensions_visited_total.add(p.extensions_visited);
            obs.jg_extensions_rejected_total.add(p.extensions_rejected);
            let entry = Arc::new(QueryEntry::new(p));
            // Skip caching if the database was re-registered mid-compute:
            // a stale-epoch key would hold budget nothing can look up.
            let bytes = inner
                .epoch_is_current(&self.db_name, reg.epoch)
                .then(|| entry.approx_bytes());
            Ok((entry, bytes))
        })
    }
}

/// Cache accounting for an answered question: the ranked explanation list
/// plus the result preview table.
fn answer_bytes(r: &SessionResult) -> usize {
    r.explanations
        .iter()
        .map(|e| {
            e.pattern_desc.len()
                + e.primary.len()
                + e.graph_structure.len()
                + e.graph_edges.iter().map(String::len).sum::<usize>()
                + e.preds
                    .iter()
                    .map(|(a, b, c)| a.len() + b.len() + c.len())
                    .sum::<usize>()
                + 128
        })
        .sum::<usize>()
        + r.apt_stats
            .iter()
            .map(|(s, _, _)| s.len() + 32)
            .sum::<usize>()
        + (0..r.result.table.num_columns())
            .map(|c| r.result.table.column(c).approx_bytes())
            .sum::<usize>()
        + 512
}
