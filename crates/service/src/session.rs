//! Interactive session handles.
//!
//! A [`SessionHandle`] pins one `(database, query)` pair and answers
//! repeated [`ask`](SessionHandle::ask) calls. The first question pays
//! for provenance, join-graph enumeration, APT materialization and the
//! question-independent half of mining; the service caches them in one
//! [`QueryEntry`] keyed by database epoch and canonical SQL — provenance
//! and enumeration, and one immutable
//! [`PreparedGraph`](cajade_core::pipeline::PreparedGraph) per join graph —
//! so later questions, from this handle or any other session on the same
//! query, skip straight to scoring (§2.4's interactive usage pattern).
//! Every stage runs under the service's one
//! [`Params`](cajade_core::Params).
//!
//! Stages 3–4 are the library's one per-graph loop,
//! [`pipeline::materialize_and_mine`], run over the entry's slots
//! (`EntrySlots`) in the scope of every question, with the registration's
//! column statistics: one lookup per valid graph, the missing graphs'
//! views derived through one builder, one read share planned over exactly
//! those views, each prepared under its slot's latch — the expensive half,
//! which concurrent cold asks therefore do once; the view they may both
//! derive — then every graph mined in enumeration order. This module adds
//! the entry's answers, its re-weighing and the service's counters.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, Weak};
use std::time::Duration;

use cajade_core::pipeline;
use cajade_core::{SessionResult, UserQuestion};
use cajade_mining::BaseTableStats;
use cajade_obs::faults::{self, Site};
use cajade_obs::{span, AllocScope, Collector, SpanRecord, Stage};
use cajade_query::{ProvenanceTable, Query};

use crate::keys::ProvKey;
use crate::service::{EntrySlots, QueryEntry, RegisteredDb, ServiceInner};
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
    /// Whether the fully-ranked answer came straight from the query's
    /// cache entry (same db epoch, query, and output tuples questioned).
    /// When true, no pipeline stage ran at all.
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
    /// Canonical SQL, shared with every [`ProvKey`] the session makes.
    sql: Arc<str>,
    service: Weak<ServiceInner>,
}

impl SessionHandle {
    pub(crate) fn new(id: u64, db_name: String, query: Query, service: Weak<ServiceInner>) -> Self {
        SessionHandle {
            id,
            db_name,
            sql: query.to_sql().into(),
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

        // ---- Stage 0: the query's entry may hold the ranked answer. ------
        // A question is its output tuples: resolved against the resident
        // entry's provenance table, it is what the entry files answers
        // under. Peeking at the entry counts nothing: a repeat counts one
        // answer hit and no provenance lookup, and a question that does not
        // resolve one answer miss.
        let prov_key = &self.prov_key(&reg);
        let resolve =
            |pt: &ProvenanceTable| pipeline::resolve_question(&reg.db, &self.query, pt, question);
        let peeked = inner.prov_cache.peek(prov_key).map(|entry| {
            let resolved = resolve(&entry.query.pt);
            let held = resolved.as_ref().ok().and_then(|q| entry.answer(q));
            (resolved, held)
        });
        let (resolved, held) = peeked.unzip();
        if let Some(mut result) = held.flatten() {
            inner.answer_obs.hits.inc();
            // The held answer's explanations are shared, not copied. No
            // pipeline stage ran; the cold run's stage timings would
            // misreport this request's work.
            result.timings = cajade_core::SessionTimings::default();
            let wall = ask.finish();
            inner.obs.record_ask(wall);
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
        inner.answer_obs.misses.inc();
        let resolved = resolved.transpose()?;

        // ---- Stage 1+2: provenance + enumeration, cached. ---------------
        let resolve_span = span("resolve_query");
        let (entry, provenance_cache_hit) = self.prepare_cached(&inner, &reg, prov_key)?;
        let prepared = &entry.query;
        // Every entry under one key holds the same provenance table: a
        // question resolved against the peeked entry is this one's too.
        let mining_question = match resolved {
            Some(question) => question,
            None => resolve(&prepared.pt)?,
        };
        drop(resolve_span);

        // ---- Stages 3–5: the pipeline's per-graph loop over the entry, ----
        // then ranking; the answer is kept in the entry unless degraded.
        // Misses are prepared for every question (scope `None`), with the
        // statistics the registration computed once per base column.
        let slots = EntrySlots {
            entry: &entry,
            obs: &inner.apt_obs,
        };
        let col_stats = BaseTableStats::over(&reg.db, Arc::clone(&reg.column_stats));
        let answer = || -> Result<_> {
            let (outcomes, work) = pipeline::materialize_and_mine(
                &reg.db,
                prepared,
                &mining_question,
                None,
                &inner.params,
                &col_stats,
                &slots,
                &inner.obs.work,
            )?;

            // The ranked list is built under the answers' scope, which
            // keeps it: the entry shares it rather than copying it. The
            // per-graph outcomes are freed after the scope, not under it.
            let mem = AllocScope::enter("cache.answer");
            let result = pipeline::assemble(
                &reg.db,
                &self.query,
                prepared,
                &outcomes,
                &work,
                &inner.params,
            );
            // A degraded (budget-truncated) answer is correct for *this*
            // request but must never serve a future, unbudgeted one.
            if !result.degraded && entry.hold_answer(mining_question, &result) {
                inner.answer_obs.inserts.inc();
            }
            drop(mem);
            let found = outcomes.len() - work.graphs_prepared;
            pipeline::drop_outcomes(outcomes);
            Ok((result, found, work.graphs_prepared))
        };
        // The one place the entry is weighed again: it grew by what this
        // ask stored in it — graphs, the all-rows masks its re-scores
        // filled into them, its answer — also when the ask failed, or a
        // worker panicked past what its siblings stored.
        let reweigh = || inner.prov_cache.reweigh(prov_key, |e| e.approx_bytes());
        let (mut result, apt_cache_hits, apt_cache_misses) = pipeline::finally(answer, reweigh)?;
        if provenance_cache_hit {
            // Those phases were skipped; report the latency actually paid.
            result.timings.provenance = Duration::ZERO;
            result.timings.jg_enum = Duration::ZERO;
        }
        if result.degraded {
            inner.obs.ask_degraded_total.inc();
        }
        if cajade_obs::budget::expired() {
            inner.obs.ask_deadline_exceeded_total.inc();
        }
        let wall = ask.finish();
        inner.obs.record_ask(wall);
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
    /// registration they ran on with the query's answer relation — the one
    /// the query's cache entry holds, shared, not copied. The relation's
    /// strings are ids into that registration's pool: render them through
    /// it, never through whatever the name holds by then. Used by the
    /// serve protocol's `query` op: previewing the output tuples warms the
    /// provenance cache, so the session's first `ask` already skips
    /// preparation.
    pub fn preview(&self) -> Result<(Arc<RegisteredDb>, Arc<cajade_query::QueryResult>)> {
        let inner = self.service.upgrade().ok_or(ServiceError::ServiceDropped)?;
        let reg = inner.registered(&self.db_name)?;
        let (entry, _) = self.prepare_cached(&inner, &reg, &self.prov_key(&reg))?;
        Ok((reg, Arc::clone(&entry.query.result)))
    }

    fn prov_key(&self, reg: &RegisteredDb) -> ProvKey {
        ProvKey {
            epoch: reg.epoch,
            sql: Arc::clone(&self.sql),
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
            faults::failpoint_infallible(Site::CacheProvenanceCompute);
            // Attribute the retained prepared query (provenance table +
            // enumeration) to the cache holding it.
            let _mem = cajade_obs::AllocScope::enter("cache.provenance");
            let p = pipeline::prepare(&reg.db, &reg.schema_graph, &self.query, &inner.params)?;
            let obs = &inner.obs;
            obs.jg_extensions_visited_total.add(p.extensions_visited);
            obs.jg_extensions_rejected_total.add(p.extensions_rejected);
            let entry = Arc::new(QueryEntry::new(p));
            // Skip caching if the database was re-registered mid-compute:
            // a stale-epoch key would hold budget nothing can look up. What
            // an ask stores in an entry the sweep dropped dies with the ask.
            let current = (inner.registered(&self.db_name)).is_ok_and(|r| r.epoch == reg.epoch);
            let bytes = current.then(|| entry.approx_bytes());
            Ok((entry, bytes))
        })
    }
}
