//! Composable pipeline stages.
//!
//! The CaJaDE pipeline decomposes into five stages:
//!
//! ```text
//! provenance ──► enumerate ──► materialize ──► mine ──► rank
//! ```
//!
//! [`ExplanationSession::explain`](crate::ExplanationSession::explain)
//! chains them for the one-shot API; the `cajade-service` crate chains the
//! same stages around its provenance/APT caches so repeated questions on a
//! query skip straight to mining. Stage outputs that are expensive to
//! produce ([`ProvenanceTable`], [`Apt`]) travel behind `Arc` so a cache
//! can hand the same materialization to many concurrent sessions.

use std::sync::Arc;
use std::time::Duration;

use cajade_graph::{Apt, AptBuilder, EnumConfig, EnumeratedGraph, Enumeration, SchemaGraph};
use cajade_mining::{mine_prepared, MiningTimings, PreparedApt, Question};
pub use cajade_mining::{ColumnStatsProvider, NoSharedStats};
use cajade_obs::{Ctx, Stage};
use cajade_query::{execute_with_provenance, ProvenanceTable, Query, QueryResult};
use cajade_storage::Database;
use rayon::prelude::*;

use crate::explanation::{rank_and_collapse, Explanation};
use crate::params::Params;
use crate::session::{SessionResult, UserQuestion};
use crate::timing::SessionTimings;
use crate::{CoreError, Result};

/// Output of the provenance + enumeration stages for one `(db, query)`
/// pair. Everything here is question-independent, which is what makes it
/// cacheable across an interactive session's successive questions.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The query's result (for display and question resolution).
    pub result: QueryResult,
    /// The why-provenance table `PT(Q, D)`.
    pub pt: Arc<ProvenanceTable>,
    /// The join graphs enumeration lists: every valid one, and every
    /// invalid one a later round could still extend or that only its
    /// estimated cost rules out.
    pub graphs: Arc<Vec<EnumeratedGraph>>,
    /// One-edge extensions enumeration visited to list them
    /// ([`Enumeration::extensions_visited`]).
    pub extensions_visited: u64,
    /// Of those, last-round extensions dropped unkeyed on their PK deficit
    /// ([`Enumeration::extensions_rejected`]).
    pub extensions_rejected: u64,
    /// Wall-clock spent computing provenance.
    pub provenance_time: Duration,
    /// Wall-clock spent enumerating join graphs.
    pub jg_enum_time: Duration,
}

impl PreparedQuery {
    /// Indices (into `graphs`) of the valid join graphs, i.e. the ones
    /// worth materializing and mining.
    pub fn valid_graph_indices(&self) -> Vec<usize> {
        self.graphs
            .iter()
            .enumerate()
            .filter(|(_, g)| g.valid)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Stage 1+2: executes the query, computes why-provenance, and enumerates
/// join graphs (Algorithm 2).
pub fn prepare(
    db: &Database,
    schema_graph: &SchemaGraph,
    query: &Query,
    params: &Params,
) -> Result<PreparedQuery> {
    let stage = Stage::open("provenance");
    let (result, pt) = execute_with_provenance(db, query)?;
    let provenance_time = stage.finish();

    let stage = Stage::open("jg_enum");
    let enum_cfg = EnumConfig {
        max_edges: params.max_edges,
        max_cost: params.max_cost,
        check_pk_coverage: params.check_pk_coverage,
        include_pt_only: params.include_pt_only,
    };
    let enumeration = Enumeration::of(schema_graph, db, query, pt.num_rows, &enum_cfg)?;
    let jg_enum_time = stage.finish();

    Ok(PreparedQuery {
        result,
        pt: Arc::new(pt),
        graphs: Arc::new(enumeration.graphs),
        extensions_visited: enumeration.extensions_visited,
        extensions_rejected: enumeration.extensions_rejected,
        provenance_time,
        jg_enum_time,
    })
}

/// Resolves a [`UserQuestion`] (group-by column/value pairs) to the
/// group-index form the miner consumes.
pub fn resolve_question(
    db: &Database,
    query: &Query,
    pt: &ProvenanceTable,
    question: &UserQuestion,
) -> Result<Question> {
    let resolve = |spec: &[(String, String)]| -> Result<usize> {
        let pairs: Vec<(&str, &str)> = spec.iter().map(|(c, v)| (c.as_str(), v.as_str())).collect();
        pt.find_group(db, query, &pairs).ok_or_else(|| {
            CoreError::NoSuchOutputTuple(
                pairs
                    .iter()
                    .map(|(c, v)| format!("{c}={v}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            )
        })
    };
    Ok(match question {
        UserQuestion::TwoPoint { t1, t2 } => Question::TwoPoint {
            t1: resolve(t1)?,
            t2: resolve(t2)?,
        },
        UserQuestion::SinglePoint { t } => Question::SinglePoint { t: resolve(t)? },
    })
}

/// Rendered group label (`col=value, …`) for explanation output.
pub fn group_label(db: &Database, query: &Query, pt: &ProvenanceTable, group: usize) -> String {
    query
        .group_by
        .iter()
        .zip(&pt.group_keys[group])
        .map(|(col, v)| format!("{}={}", col.column, v.render(db.pool())))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Stage 3: materializes `APT(Q, D, Ω)` for enumerated graph
/// `graph_index` (Definition 4) and reports the wall time it took.
///
/// `builder` is the ask's [`AptBuilder`]: it shares join work along the
/// enumeration tree, so the time reported here includes any ancestor's
/// join that this call was the first to need and excludes the ones
/// another graph already paid for.
pub fn materialize(builder: &AptBuilder<'_>, graph_index: usize) -> Result<(Apt, Duration)> {
    let stage = Stage::open_as("materialize_apt", "materialize");
    let apt = builder.materialize(graph_index)?;
    Ok((apt, stage.finish()))
}

/// Begins an ask's stage 3: the [`AptBuilder`] its misses are
/// [`materialize`]d through, made — like everything it will hold — under
/// the `materialize` alloc scope.
pub fn begin_materialize<'a>(
    db: &'a Database,
    pt: &'a ProvenanceTable,
    graphs: &'a [EnumeratedGraph],
) -> AptBuilder<'a> {
    let _mem = cajade_obs::AllocScope::enter("materialize");
    AptBuilder::new(db, pt, graphs)
}

/// Ends an ask's stage 3: drops the builder under the `materialize` scope
/// it and its shared joins were allocated under — a scope's net is what
/// was allocated minus what was freed *under it* — and returns its
/// `(join steps applied, join steps computed, index builds)`.
pub fn finish_materialize(builder: AptBuilder<'_>) -> (u64, u64, u64) {
    let _mem = cajade_obs::AllocScope::enter("materialize");
    let work = (
        builder.join_steps(),
        builder.join_steps_computed(),
        builder.index_builds(),
    );
    drop(builder);
    work
}

/// Stage 3.5: the mining preparation of one APT (feature selection, LCA
/// candidate pool, fragment boundaries, scoring index and predicate
/// bitmaps — see [`cajade_mining::prepared::prepare`]).
///
/// The service passes `question = None` — the preparation then serves
/// every question and is worth caching — and its database-scoped
/// column-stats cache as `stats`, so a question over many join graphs
/// analyzes each context column once. The one-shot path prepares in the
/// scope of its one question, with [`NoSharedStats`], and keeps nothing.
pub fn prepare_mining(
    apt: &Apt,
    pt: &ProvenanceTable,
    params: &Params,
    stats: &dyn ColumnStatsProvider,
    question: Option<&Question>,
) -> PreparedApt {
    let _stage = Stage::open_as("prepare_apt", "prepare");
    cajade_mining::prepared::prepare(apt, pt, &params.mining, stats, question)
}

/// Everything one mined join graph contributes to the session result.
#[derive(Debug)]
pub struct GraphOutcome {
    /// Rendered explanations from this graph.
    pub explanations: Vec<Explanation>,
    /// `(structure, APT rows, APT attributes)` — the Fig. 10a statistics.
    pub apt_stat: (String, usize, usize),
    /// Wall-clock spent materializing this graph's APT (zero on a cache
    /// hit in the service path).
    pub materialize: Duration,
    /// Mining-phase timings.
    pub mining: MiningTimings,
    /// Patterns evaluated while mining this APT.
    pub patterns: usize,
}

/// Stage 4: mines one APT through its preparation
/// ([`prepare_mining`]) and renders its explanations, all inside the
/// graph's `mine_apt` stage. `graph_index` is the graph's index within
/// the session's enumeration; `materialize_time` is attributed to this
/// outcome for the Fig. 10 style breakdown. When `prep_computed` is set,
/// the preparation ran as part of this ask and its phase timings are
/// attributed to the outcome; on a warm [`PreparedApt`] the
/// feature-selection / candidate-generation / sampling / prepare phases
/// report zero — the ask skipped them.
// The argument list mirrors the stage's actual data dependencies; a
// context struct would only relocate the same names.
#[allow(clippy::too_many_arguments)]
pub fn mine_one_prepared(
    db: &Database,
    query: &Query,
    pt: &ProvenanceTable,
    apt: &Apt,
    prep: &PreparedApt,
    question: &Question,
    params: &Params,
    graph_index: usize,
    materialize_time: Duration,
    prep_computed: bool,
) -> GraphOutcome {
    let _stage = Stage::open_as("mine_apt", "mine");
    let mut outcome = mine_prepared(prep, apt, pt, question, &params.mining);
    if prep_computed {
        outcome.timings.accumulate(&prep.prep_timings);
    }
    let explanations = outcome
        .explanations
        .iter()
        .map(|m| {
            Explanation::from_mined(
                m,
                apt,
                db.pool(),
                group_label(db, query, pt, m.primary_group),
                graph_index,
            )
        })
        .collect();
    GraphOutcome {
        explanations,
        apt_stat: (apt.graph.structure_string(), apt.num_rows, apt.fields.len()),
        materialize: materialize_time,
        mining: outcome.timings,
        patterns: outcome.patterns_evaluated,
    }
}

/// The pipeline's one fan-out: maps `f` over `items`, results in input
/// order — on the calling thread, or, with `params.parallel` and more
/// than one item, on worker threads that each run under the caller's
/// [`Ctx`] (trace position, budget, alloc-scope chain).
pub fn fan_out<'a, T, R, C>(
    params: &Params,
    items: &'a [T],
    f: impl Fn(&'a T) -> R + Sync + Send,
) -> C
where
    T: Sync,
    R: Send,
    C: FromIterator<R> + FromParallelIterator<R>,
{
    if !params.parallel || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let ctx = Ctx::capture();
    items.par_iter().map(|item| ctx.enter(|| f(item))).collect()
}

/// Stages 3–4 over all valid graphs, one graph at a time through the
/// stage functions the service chains around its caches — [`materialize`]
/// → [`prepare_mining`] in the question's scope → [`mine_one_prepared`] —
/// keeping neither APT nor preparation; on worker threads when
/// `params.parallel` is set. Outcomes come back in graph order, so
/// parallel and sequential runs produce identical results.
pub fn materialize_and_mine(
    db: &Database,
    query: &Query,
    prepared: &PreparedQuery,
    question: &Question,
    params: &Params,
) -> Result<Vec<GraphOutcome>> {
    let valid = prepared.valid_graph_indices();
    let pt = &prepared.pt;
    // One builder for the ask; its memoized parent joins go when it does.
    let builder = begin_materialize(db, pt, &prepared.graphs);
    // A single APT's materialization is not truncatable, so the budget
    // boundary sits between graphs: once the deadline passes, remaining
    // whole graphs are skipped and the ask answers from the graphs mined
    // so far. `Ok(None)` marks a skipped graph.
    let run_one = |&graph_index: &usize| -> Result<Option<GraphOutcome>> {
        if cajade_obs::budget::stop("materialize") {
            return Ok(None);
        }
        let (apt, materialize_time) = materialize(&builder, graph_index)?;
        let prep = prepare_mining(&apt, pt, params, &NoSharedStats, Some(question));
        Ok(Some(mine_one_prepared(
            db,
            query,
            pt,
            &apt,
            &prep,
            question,
            params,
            graph_index,
            materialize_time,
            true,
        )))
    };
    let outcomes: Result<Vec<Option<GraphOutcome>>> = fan_out(params, &valid, run_one);
    finish_materialize(builder);
    Ok(outcomes?.into_iter().flatten().collect())
}

/// Stage 5: global F-score ranking + near-duplicate collapse (§6).
pub fn rank(all: Vec<Explanation>, params: &Params) -> Vec<Explanation> {
    let _stage = Stage::open("rank");
    rank_and_collapse(all, params.top_k_global, params.collapse_near_duplicates)
}

/// Assembles per-graph outcomes into a [`SessionResult`], accumulating
/// timings and applying the ranking stage.
pub fn assemble(
    prepared: &PreparedQuery,
    outcomes: Vec<GraphOutcome>,
    params: &Params,
) -> SessionResult {
    let mut timings = SessionTimings {
        provenance: prepared.provenance_time,
        jg_enum: prepared.jg_enum_time,
        ..Default::default()
    };
    let num_graphs_mined = outcomes.len();
    let mut all = Vec::new();
    let mut apt_stats = Vec::new();
    let mut patterns_evaluated = 0usize;
    for o in outcomes {
        timings.materialize_apts += o.materialize;
        timings.mining.accumulate(&o.mining);
        apt_stats.push(o.apt_stat);
        patterns_evaluated += o.patterns;
        all.extend(o.explanations);
    }
    // When a budget is installed (and still is at assembly — the service
    // calls `assemble` inside the budget scope), surface what truncated.
    let truncated: Vec<String> = cajade_obs::budget::current()
        .map(|b| b.truncated().into_iter().map(str::to_string).collect())
        .unwrap_or_default();
    SessionResult {
        explanations: rank(all, params),
        timings,
        num_graphs_enumerated: prepared.graphs.len(),
        num_graphs_mined,
        pt_rows: prepared.pt.num_rows,
        result: prepared.result.clone(),
        apt_stats,
        patterns_evaluated,
        degraded: !truncated.is_empty(),
        truncated,
    }
}
