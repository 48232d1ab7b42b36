//! Composable pipeline stages:
//!
//! ```text
//! provenance ──► enumerate ──► materialize ──► prepare ──► mine ──► rank
//! ```
//!
//! [`prepare`] runs the first two, [`materialize_and_mine`] — the one
//! per-graph loop, which the one-shot
//! [`ExplanationSession::explain`](crate::ExplanationSession::explain) and
//! the `cajade-service` ask both run — the next three, [`assemble`] the
//! last. Expensive outputs ([`QueryResult`], [`ProvenanceTable`], [`Apt`],
//! [`PreparedGraph`], the ranked explanations of a [`SessionResult`])
//! travel behind `Arc` so a cache can hand one to many sessions.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cajade_graph::{Apt, AptBuilder, EnumConfig, EnumeratedGraph, Enumeration, SchemaGraph};
use cajade_mining::{
    mine_prepared, ColumnStats, MinedExplanation, MiningOutcome, MiningTimings, PreparedApt,
    Question, ReadShare,
};
pub use cajade_mining::{ColumnStatsProvider, NoSharedStats};
use cajade_obs::{span, AllocScope, Counter, Ctx, Stage};
use cajade_query::{execute_with_provenance, ProvenanceTable, Query, QueryResult};
use cajade_storage::Database;

use crate::explanation::{near_duplicate_key, rank_and_collapse, rank_walk, Explanation};
use crate::params::Params;
use crate::session::{SessionResult, UserQuestion};
use crate::timing::SessionTimings;
use crate::{CoreError, Result};

/// Output of the provenance + enumeration stages for one `(db, query)`
/// pair. Everything here is question-independent, which is what makes it
/// cacheable across an interactive session's successive questions.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The query's result, for display: shared, so a cache hands it to
    /// every preview without copying the table.
    pub result: Arc<QueryResult>,
    /// The why-provenance table `PT(Q, D)`.
    pub pt: Arc<ProvenanceTable>,
    /// The join graphs enumeration lists: every valid one, and every
    /// invalid one a later round could still extend.
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
        check_pk_coverage: params.check_pk_coverage,
        include_pt_only: params.include_pt_only,
        ..EnumConfig::default()
    };
    let enumeration = Enumeration::of(schema_graph, db, query, &enum_cfg)?;
    let jg_enum_time = stage.finish();

    Ok(PreparedQuery {
        result: Arc::new(result),
        pt: Arc::new(pt),
        graphs: Arc::new(enumeration.graphs),
        extensions_visited: enumeration.extensions_visited,
        extensions_rejected: enumeration.extensions_rejected,
        provenance_time,
        jg_enum_time,
    })
}

/// Resolves a [`UserQuestion`] (group-by column/value pairs) to the
/// group-index form the miner consumes. A spec with no pairs selects no
/// tuple, and a two-point question compares two distinct tuples: either
/// is a [`CoreError::InvalidQuestion`].
pub fn resolve_question(
    db: &Database,
    query: &Query,
    pt: &ProvenanceTable,
    question: &UserQuestion,
) -> Result<Question> {
    let resolve = |spec: &[(String, String)]| -> Result<usize> {
        if spec.is_empty() {
            let msg = "a tuple spec has no (column, value) pairs".into();
            return Err(CoreError::InvalidQuestion(msg));
        }
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
        UserQuestion::TwoPoint { t1, t2 } => match (resolve(t1)?, resolve(t2)?) {
            (t1, t2) if t1 == t2 => {
                let label = group_label(db, query, pt, t1);
                let msg = format!("t1 and t2 select the same output tuple ({label})");
                return Err(CoreError::InvalidQuestion(msg));
            }
            (t1, t2) => Question::TwoPoint { t1, t2 },
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
/// `graph_index` (Definition 4) inside its `materialize_apt` stage and
/// reports the stage's wall time; the APT is `None` when one of the
/// graph's joins is over λ_qcost, which leaves an `apt_over_cost` span
/// after the stage.
///
/// `builder` is the ask's [`AptBuilder`]: it shares join work along the
/// enumeration tree, so the time reported here includes any ancestor's
/// join that this call was the first to need and excludes the ones
/// another graph already paid for.
fn materialize_apt(
    builder: &AptBuilder<'_>,
    graph_index: usize,
) -> Result<(Option<Apt>, Duration)> {
    let stage = Stage::open_as("materialize_apt", "materialize");
    let apt = builder.materialize(graph_index)?;
    let wall = stage.finish();
    if apt.is_none() {
        drop(span("apt_over_cost"));
    }
    Ok((apt, wall))
}

/// One prepared join graph: its APT view and the mining preparation made
/// from it, computed together and never changed.
#[derive(Debug)]
pub struct PreparedGraph {
    /// The APT view — behind an `Arc` of its own because
    /// [`materialize_and_mine`] derives every missing view first and plans
    /// what their preparations read in common before preparing any.
    pub apt: Arc<Apt>,
    /// Its mining preparation.
    pub prep: PreparedApt,
}

impl PreparedGraph {
    /// Approximate heap footprint: the APT view and the preparation, not
    /// the provenance-table columns the view reads (the query's).
    pub fn approx_bytes(&self) -> usize {
        self.apt.approx_bytes() + self.prep.approx_bytes()
    }
}

/// Where [`materialize_and_mine`] finds and keeps each join graph's
/// [`PreparedGraph`].
pub trait GraphStore: Sync {
    /// Graph `gi`, if the store holds it.
    fn graph(&self, gi: usize) -> Option<Arc<PreparedGraph>>;

    /// Under graph `gi`'s latch: the graph another caller stored
    /// meanwhile, else what `prepare` makes. `(graph, whether prepare ran)`.
    fn graph_or_prepare(
        &self,
        gi: usize,
        prepare: impl FnOnce() -> PreparedGraph,
    ) -> (Arc<PreparedGraph>, bool);

    /// The alloc scope of what the store retains, if any.
    fn retain(&self) -> Option<AllocScope>;
}

/// The one-shot [`GraphStore`]: holds nothing and enters no scope.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeepNothing;

impl GraphStore for KeepNothing {
    fn graph(&self, _gi: usize) -> Option<Arc<PreparedGraph>> {
        None
    }

    fn graph_or_prepare(
        &self,
        _gi: usize,
        prepare: impl FnOnce() -> PreparedGraph,
    ) -> (Arc<PreparedGraph>, bool) {
        (Arc::new(prepare()), true)
    }

    fn retain(&self) -> Option<AllocScope> {
        None
    }
}

/// What one mined join graph contributes to the ranking; what it took
/// goes to the call's [`GraphWork`] and [`WorkCounters`].
#[derive(Debug)]
pub struct GraphOutcome {
    /// This graph's top-k, unrendered: [`assemble`] renders the ones the
    /// global ranking keeps.
    pub mined: Vec<MinedExplanation>,
    /// The APT they were mined from, which rendering reads.
    pub apt: Arc<Apt>,
    /// Index of the join graph within the session's enumeration.
    pub graph_index: usize,
}

/// Stage 4: mines one prepared graph inside its `mine_apt` stage,
/// rendering nothing: rendering is stage 5's, for the explanations it
/// keeps. `graph_index` is the graph's index within the session's
/// enumeration. Its counts go to `counters` as soon as it is mined.
/// Returns the graph's [`GraphOutcome`] and what mining it took — the
/// [`MiningOutcome`], its explanations moved into the former.
fn mine_one_prepared(
    pt: &ProvenanceTable,
    graph: &PreparedGraph,
    question: &Question,
    params: &Params,
    graph_index: usize,
    counters: &WorkCounters,
) -> (GraphOutcome, MiningOutcome) {
    let _stage = Stage::open_as("mine_apt", "mine");
    let mut outcome = mine_prepared(&graph.prep, &graph.apt, pt, question, &params.mining);
    let (c, masks, timings) = (counters, &outcome.exact_masks, &outcome.timings);
    add([
        (&c.mine_exact_masks, masks.reads),
        (&c.mine_exact_masks_computed, masks.computed),
        (&c.mine_ub_pruned_children, timings.ub_pruned_children),
        (
            &c.mine_recall_pruned_subtrees,
            timings.recall_pruned_subtrees,
        ),
    ]);
    let mined = GraphOutcome {
        mined: std::mem::take(&mut outcome.explanations),
        apt: Arc::clone(&graph.apt),
        graph_index,
    };
    (mined, outcome)
}

/// The pipeline's one fan-out: maps `f` over `items`, results in input
/// order — on the calling thread, or, with `parallel` and more than one
/// item, on the compat `rayon`'s resident pool, items handed out in
/// input order, each under the caller's [`Ctx`] (trace position,
/// budget, alloc-scope chain). A panicking item unwinds only itself;
/// once every item has run, the first panic in item order resumes on
/// the caller. Its callers are the per-graph loop
/// ([`materialize_and_mine`], `parallel` from [`Params::parallel`]) and
/// ingestion's infer and load stages (always parallel).
// The one sanctioned fan-out site (`docs/LINTS.md`): every worker runs
// under the caller's `Ctx`.
#[allow(clippy::disallowed_methods)]
pub fn fan_out<'a, T, R, C>(parallel: bool, items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> C
where
    T: Sync,
    R: Send,
    C: FromIterator<R>,
{
    if !parallel || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let ctx = Ctx::capture();
    rayon::map_ordered(items, |item| ctx.enter(|| f(item)))
        .into_iter()
        .collect()
}

/// What [`materialize_and_mine`] took and mined, for [`assemble`]: one
/// tally per call, each sum made in the stage that measures it. The work
/// it counts goes to the call's [`WorkCounters`] instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphWork {
    /// Wall time of every `materialize_apt` stage the call ran, the
    /// skipped graphs' partial folds included
    /// ([`SessionTimings::materialize_apts`]).
    pub materialize: Duration,
    /// Graphs this call prepared.
    pub graphs_prepared: usize,
    /// Mining-phase timings of every mined graph, plus the preparation
    /// phases of the graphs this call prepared; on a graph the store held
    /// the feature-selection / candidate-generation / sampling / prepare
    /// phases add nothing — the call skipped them.
    pub mining: MiningTimings,
    /// Patterns evaluated across the mined graphs.
    pub patterns_evaluated: usize,
}

/// The counters [`materialize_and_mine`] adds its work to — zero for what
/// a store already held — each stage's as that stage ends, also when it
/// unwinds, so a panic loses no count of finished work. [`Default`] makes
/// free-standing counters; the service's are its `metrics` counters.
#[derive(Debug, Clone, Default)]
pub struct WorkCounters {
    /// Join steps the [`AptBuilder`] applied, one per edge.
    pub apt_join_steps: Arc<Counter>,
    /// Of those, steps it computed rather than took from its memo.
    pub apt_join_steps_computed: Arc<Counter>,
    /// Hash indexes it built.
    pub apt_index_builds: Arc<Counter>,
    /// Graphs it skipped because a join was over λ_qcost.
    pub apt_graphs_over_cost: Arc<Counter>,
    /// Candidate columns the preparations read through the [`ReadShare`].
    pub prepare_column_reads: Arc<Counter>,
    /// Of those, reads that gathered the column.
    pub prepare_column_reads_computed: Arc<Counter>,
    /// All-rows masks the exact re-scores read ([`cajade_mining::ExactMaskWork`]).
    pub mine_exact_masks: Arc<Counter>,
    /// Of those, the masks they filled.
    pub mine_exact_masks_computed: Arc<Counter>,
    /// [`MiningTimings::ub_pruned_children`] of every mined graph.
    pub mine_ub_pruned_children: Arc<Counter>,
    /// [`MiningTimings::recall_pruned_subtrees`] of every mined graph.
    pub mine_recall_pruned_subtrees: Arc<Counter>,
}

/// Adds each count to its counter, skipping zeros.
fn add<const N: usize>(counts: [(&Arc<Counter>, u64); N]) {
    for (counter, n) in counts.into_iter().filter(|(_, n)| *n > 0) {
        counter.add(n);
    }
}

/// Runs `body`, then `after` — also when `body` unwinds, before the
/// unwind resumes.
pub fn finally<R>(body: impl FnOnce() -> R, after: impl FnOnce()) -> R {
    let ran = catch_unwind(AssertUnwindSafe(body));
    after();
    ran.unwrap_or_else(|panic| resume_unwind(panic))
}

/// What the materialize stage found for one join graph.
enum Found {
    /// The prepared graph the store holds.
    Held(Arc<PreparedGraph>),
    /// The view of a graph the store does not hold.
    View(Arc<Apt>),
}

/// The caller's statistics provider, plus the call's share of reads.
struct WithShare<'a> {
    stats: &'a dyn ColumnStatsProvider,
    share: Option<ReadShare>,
}

impl ColumnStatsProvider for WithShare<'_> {
    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
        self.stats.column_stats(table, column)
    }

    fn read_share(&self) -> Option<&ReadShare> {
        self.share.as_ref()
    }
}

/// Stages 3–4 over every valid join graph — the pipeline's one per-graph
/// loop: three [`fan_out`]s, each under its stage span, outcomes in graph
/// order. Each stage adds its counts to `counters` as it ends, also when
/// it unwinds; the [`GraphWork`] carries what [`assemble`] reads.
///
/// * **materialize** — one `store` lookup per graph; the misses' views
///   come from one [`AptBuilder`] bounded by [`Params::max_cost`], made by
///   the first miss and counted and dropped with the stage. A single materialization
///   is not truncatable, so the budget boundary sits in front of each
///   graph: past the deadline the remaining graphs are skipped and the
///   answer covers fewer of them. A graph over λ_qcost is skipped too,
///   whatever the deadline ([`WorkCounters::apt_graphs_over_cost`]).
/// * **prepare** — one [`ReadShare`] planned over the misses' views and
///   handed to `prepare` with `stats`; each miss is prepared in `scope`
///   under its store latch. Racing callers may both derive a view; only
///   one prepares it. The share is counted and dropped with the stage.
/// * **mine** — `mine_one_prepared` per graph, for `question`, each
///   graph counted by its worker; the mining timings and patterns
///   evaluated are summed into the [`GraphWork`].
#[allow(clippy::too_many_arguments)]
pub fn materialize_and_mine(
    db: &Database,
    prepared: &PreparedQuery,
    question: &Question,
    scope: Option<&Question>,
    params: &Params,
    stats: &dyn ColumnStatsProvider,
    store: &impl GraphStore,
    counters: &WorkCounters,
) -> Result<(Vec<GraphOutcome>, GraphWork)> {
    let pt = &prepared.pt;
    let mut work = GraphWork::default();

    let materialize_span = span("materialize");
    let builder: OnceLock<AptBuilder<'_>> = OnceLock::new();
    let materialize_ns = AtomicU64::new(0);
    let find = |&gi: &usize| -> Result<Option<(usize, Found)>> {
        if cajade_obs::budget::stop("materialize") {
            return Ok(None);
        }
        if let Some(held) = store.graph(gi) {
            return Ok(Some((gi, Found::Held(held))));
        }
        let _mem = store.retain();
        let builder = builder.get_or_init(|| {
            let _mem = AllocScope::enter("materialize");
            AptBuilder::new(db, pt, &prepared.graphs, params.max_cost)
        });
        let (apt, wall) = materialize_apt(builder, gi)?;
        materialize_ns.fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        Ok(apt.map(|apt| (gi, Found::View(Arc::new(apt)))))
    };
    let found: Result<Vec<_>> = finally(
        || fan_out(params.parallel, &prepared.valid_graph_indices(), find),
        || {
            let (c, Some(b)) = (counters, builder.get()) else {
                return;
            };
            add([
                (&c.apt_join_steps, b.join_steps()),
                (&c.apt_join_steps_computed, b.join_steps_computed()),
                (&c.apt_index_builds, b.index_builds()),
                (&c.apt_graphs_over_cost, b.graphs_over_cost()),
            ]);
        },
    );
    work.materialize = Duration::from_nanos(materialize_ns.into_inner());
    if let Some(builder) = builder.into_inner() {
        // Freed where it and its shared joins were allocated: a scope's
        // net is what was allocated minus what was freed under it.
        let _mem = store.retain();
        let _stage = AllocScope::enter("materialize");
        drop(builder);
    }
    drop(materialize_span);
    let found: Vec<(usize, Found)> = found?.into_iter().flatten().collect();

    let prepare_span = span("prepare");
    let mut views = (found.iter())
        .filter_map(|(_, f)| match f {
            Found::View(view) => Some(view.as_ref()),
            Found::Held(_) => None,
        })
        .peekable();
    let share = views.peek().is_some().then(|| {
        let _mem = store.retain();
        let _stage = AllocScope::enter("prepare");
        ReadShare::plan(views)
    });
    let stats = WithShare { stats, share };
    // `(graph, whether this call prepared it)`.
    let prepare_one = |(gi, found): &(usize, Found)| {
        let apt = match found {
            Found::Held(graph) => return (*gi, Arc::clone(graph), false),
            Found::View(view) => view,
        };
        let (graph, prepared) = store.graph_or_prepare(*gi, || {
            let _mem = store.retain();
            let _stage = Stage::open_as("prepare_apt", "prepare");
            let prep = cajade_mining::prepared::prepare(apt, pt, &params.mining, &stats, scope);
            let apt = Arc::clone(apt);
            PreparedGraph { apt, prep }
        });
        (*gi, graph, prepared)
    };
    let ready: Vec<_> = finally(
        || fan_out(params.parallel, &found, prepare_one),
        || {
            let share = stats.share.as_ref();
            let (reads, computed) = share.map_or((0, 0), ReadShare::column_reads);
            let c = counters;
            add([
                (&c.prepare_column_reads, reads),
                (&c.prepare_column_reads_computed, computed),
            ]);
        },
    );
    // The views of graphs another caller prepared first.
    drop(found);
    for (_, graph, _) in ready.iter().filter(|(_, _, prepared)| *prepared) {
        work.graphs_prepared += 1;
        work.mining.accumulate(&graph.prep.prep_timings);
    }
    if let Some(share) = stats.share {
        // Whatever a reader that never came left in it is freed where the
        // preparations allocated it.
        let _mem = store.retain();
        let _stage = AllocScope::enter("prepare");
        drop(share);
    }
    drop(prepare_span);

    let _mine_span = span("mine");
    let mine_one = |(gi, graph, _): &(usize, Arc<PreparedGraph>, bool)| {
        mine_one_prepared(pt, graph, question, params, *gi, counters)
    };
    let mined: Vec<(GraphOutcome, MiningOutcome)> = fan_out(params.parallel, &ready, mine_one);
    for (_, outcome) in &mined {
        work.mining.accumulate(&outcome.timings);
        work.patterns_evaluated += outcome.patterns_evaluated;
    }
    let outcomes = mined.into_iter().map(|(outcome, _)| outcome).collect();
    Ok((outcomes, work))
}

/// Frees what [`materialize_and_mine`] returned where it was allocated:
/// each graph's top-k list under `mine`, which mined it, and the vector
/// under the caller's scope, which collected it. (The `mine` scope opened
/// here is not nested in the workers' own: it counts each free once.)
pub fn drop_outcomes(mut outcomes: Vec<GraphOutcome>) {
    let mine = AllocScope::enter("mine");
    outcomes
        .iter_mut()
        .for_each(|o| drop(std::mem::take(&mut o.mined)));
    drop(mine);
}

/// Stage 5: global F-score ranking + near-duplicate collapse (§6).
pub fn rank(all: Vec<Explanation>, params: &Params) -> Vec<Explanation> {
    let _stage = Stage::open("rank");
    rank_and_collapse(all, params.top_k_global, params.collapse_near_duplicates)
}

/// Assembles per-graph outcomes into a [`SessionResult`], its timings and
/// pattern count from the `work` of the call that mined them, applying
/// the ranking stage:
/// [`rank`]'s walk over every graph's mined explanations, reading pattern
/// text and collapse keys off the graphs' APTs, then
/// [`Explanation::from_mined`] for the ones it keeps, collected once into
/// the list every clone of the result shares. Each primary group is
/// labelled once. The outcomes are only read: a caller that lends them
/// (`&outcomes`) frees them with [`drop_outcomes`], outside whatever alloc
/// scope it assembles under, as the service does outside the answers'.
pub fn assemble(
    db: &Database,
    query: &Query,
    prepared: &PreparedQuery,
    outcomes: impl AsRef<[GraphOutcome]>,
    work: &GraphWork,
    params: &Params,
) -> SessionResult {
    let outcomes = outcomes.as_ref();
    let rank = Stage::open("rank");
    let mined: Vec<_> = (outcomes.iter())
        .flat_map(|o| o.mined.iter().map(move |m| (o, m)))
        .collect();
    let mut labels = BTreeMap::new();
    for (_, m) in &mined {
        let label = || group_label(db, query, &prepared.pt, m.primary_group);
        labels.entry(m.primary_group).or_insert_with(label);
    }
    let pool = db.pool();
    let kept = rank_walk(
        mined,
        params.top_k_global,
        params.collapse_near_duplicates,
        |(_, m)| (m.metrics.f_score, m.pattern.len()),
        |(o, m)| m.pattern.render(&o.apt, pool),
        |(o, m)| {
            let preds = m.pattern.preds().iter();
            let preds = preds.map(|(f, p)| (o.apt.fields[*f].name.as_str(), p.op.symbol()));
            near_duplicate_key(&labels[&m.primary_group], preds)
        },
    );
    let explanations = (kept.into_iter())
        .map(|(o, m)| {
            let primary = labels[&m.primary_group].clone();
            Explanation::from_mined(m, &o.apt, pool, primary, o.graph_index)
        })
        .collect();
    drop(rank);
    let timings = SessionTimings {
        provenance: prepared.provenance_time,
        jg_enum: prepared.jg_enum_time,
        materialize_apts: work.materialize,
        mining: work.mining,
    };
    // When a budget is installed (and still is at assembly — the service
    // calls `assemble` inside the budget scope), surface what truncated.
    let truncated: Vec<String> = cajade_obs::budget::current()
        .map(|b| b.truncated().into_iter().map(str::to_string).collect())
        .unwrap_or_default();
    SessionResult {
        explanations,
        timings,
        num_graphs_enumerated: prepared.graphs.len(),
        num_graphs_mined: outcomes.len(),
        pt_rows: prepared.pt.num_rows,
        patterns_evaluated: work.patterns_evaluated,
        degraded: !truncated.is_empty(),
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    /// What the panicking items of `fan_out_keeps_item_order_errors_and_panics` throw.
    #[derive(Debug, PartialEq)]
    struct Thrown(usize);

    #[test]
    fn fan_out_keeps_item_order_errors_and_panics() {
        let items: Vec<usize> = (0..100).collect();

        let doubled: Vec<usize> = fan_out(true, &items, |&i| i * 2);
        assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());

        let ran = AtomicUsize::new(0);
        let found: std::result::Result<Vec<usize>, String> = fan_out(true, &items, |&i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i % 30 == 29 {
                Err(format!("bad {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(
            found.unwrap_err(),
            "bad 29",
            "the first error in item order"
        );
        assert_eq!(ran.load(Ordering::Relaxed), 100, "every item ran");

        let ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            fan_out::<_, _, Vec<()>>(true, &items, |&i| {
                if i == 7 || i == 70 {
                    std::panic::panic_any(Thrown(i));
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        });
        let payload = caught.expect_err("the panic resumes on the caller");
        assert_eq!(payload.downcast_ref::<Thrown>(), Some(&Thrown(7)));
        assert_eq!(ran.load(Ordering::Relaxed), 98, "every other item ran");
    }
}
