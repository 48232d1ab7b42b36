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
//! last. Expensive outputs ([`ProvenanceTable`], [`Apt`], [`PreparedGraph`])
//! travel behind `Arc` so a cache can hand one to many sessions.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use cajade_graph::{Apt, AptBuilder, EnumConfig, EnumeratedGraph, Enumeration, SchemaGraph};
use cajade_mining::{
    mine_prepared, ColumnStats, ExactMaskWork, MinedExplanation, MiningTimings, PreparedApt,
    Question, ReadShare,
};
pub use cajade_mining::{ColumnStatsProvider, NoSharedStats};
use cajade_obs::{span, AllocScope, Ctx, Stage};
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

/// Everything one mined join graph contributes to the session result.
#[derive(Debug)]
pub struct GraphOutcome {
    /// This graph's top-k, unrendered: [`assemble`] renders the ones the
    /// global ranking keeps.
    pub mined: Vec<MinedExplanation>,
    /// The APT they were mined from, which rendering reads.
    pub apt: Arc<Apt>,
    /// Index of the join graph within the session's enumeration.
    pub graph_index: usize,
    /// `(structure, APT rows, APT attributes)` — the Fig. 10a statistics.
    pub apt_stat: (String, usize, usize),
    /// Wall-clock spent materializing this graph's APT (zero on a cache
    /// hit in the service path).
    pub materialize: Duration,
    /// Mining-phase timings.
    pub mining: MiningTimings,
    /// Patterns evaluated while mining this APT.
    pub patterns: usize,
    /// What the exact re-score read and filled of the graph's
    /// preparation's all-rows masks.
    pub exact_masks: ExactMaskWork,
}

/// Stage 4: mines one prepared graph inside its `mine_apt` stage,
/// rendering nothing: rendering is stage 5's, for the explanations it
/// keeps. `graph_index` is the graph's index within the session's
/// enumeration; `materialize_time` is attributed to this outcome for the
/// Fig. 10 style breakdown. When `prep_computed` is set, the preparation
/// ran as part of this ask and its phase timings are attributed to the
/// outcome; on a warm [`PreparedApt`] the feature-selection /
/// candidate-generation / sampling / prepare phases report zero — the ask
/// skipped them.
pub fn mine_one_prepared(
    pt: &ProvenanceTable,
    graph: &PreparedGraph,
    question: &Question,
    params: &Params,
    graph_index: usize,
    materialize_time: Duration,
    prep_computed: bool,
) -> GraphOutcome {
    let _stage = Stage::open_as("mine_apt", "mine");
    let (apt, prep) = (&graph.apt, &graph.prep);
    let mut outcome = mine_prepared(prep, apt, pt, question, &params.mining);
    if prep_computed {
        outcome.timings.accumulate(&prep.prep_timings);
    }
    GraphOutcome {
        mined: outcome.explanations,
        apt: Arc::clone(apt),
        graph_index,
        apt_stat: (apt.graph.structure_string(), apt.num_rows, apt.fields.len()),
        materialize: materialize_time,
        mining: outcome.timings,
        patterns: outcome.patterns_evaluated,
        exact_masks: outcome.exact_masks,
    }
}

/// The pipeline's one fan-out: maps `f` over `items`, results in input
/// order — on the calling thread, or, with `params.parallel` and more
/// than one item, on the compat `rayon`'s resident pool, each item under
/// the caller's [`Ctx`] (trace position, budget, alloc-scope chain). A
/// panicking item unwinds only itself; once every item has run, the
/// first panic in item order resumes on the caller.
// The one sanctioned fan-out site (`docs/LINTS.md`): every worker runs
// under the caller's `Ctx`.
#[allow(clippy::disallowed_methods)]
pub fn fan_out<'a, T, R, C>(params: &Params, items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> C
where
    T: Sync,
    R: Send,
    C: FromIterator<R>,
{
    if !params.parallel || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let ctx = Ctx::capture();
    rayon::map_ordered(items, |item| ctx.enter(|| f(item)))
        .into_iter()
        .collect()
}

/// What [`materialize_and_mine`] computed — zero for what a store already
/// held.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphWork {
    /// Join steps the missing graphs' folds applied, one per edge.
    pub join_steps: u64,
    /// Of those, steps the builder computed rather than took from its memo.
    pub join_steps_computed: u64,
    /// Hash indexes the builder built.
    pub index_builds: u64,
    /// Candidate columns the preparations read through the call's
    /// [`ReadShare`].
    pub column_reads: u64,
    /// Of those, reads that gathered the column.
    pub column_reads_computed: u64,
    /// Graphs this call prepared.
    pub graphs_prepared: usize,
    /// All-rows predicate masks the exact re-scores read, one per
    /// predicate of every winner ([`ExactMaskWork::reads`]).
    pub exact_masks: u64,
    /// Of those, the masks this call filled.
    pub exact_masks_computed: u64,
    /// Bytes of the masks this call filled into preparations a store may
    /// keep — not truncated ones, which no store keeps.
    pub exact_mask_bytes: u64,
}

/// What the materialize stage found for one join graph.
enum Found {
    /// The prepared graph the store holds.
    Held(Arc<PreparedGraph>),
    /// The view of a graph the store does not hold, and what it took to
    /// derive.
    View(Arc<Apt>, Duration),
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
/// order.
///
/// * **materialize** — one `store` lookup per graph; the misses' views
///   come from one [`AptBuilder`], made by the first miss and dropped with
///   the stage. A single materialization is not truncatable, so the
///   budget boundary sits in front of each graph: past the deadline the
///   remaining graphs are skipped and the answer covers fewer of them.
/// * **prepare** — one [`ReadShare`] planned over the misses' views and
///   handed to `prepare` with `stats`; each miss is prepared in `scope`
///   under its store latch. Racing callers may both derive a view; only
///   one prepares it.
/// * **mine** — [`mine_one_prepared`] per graph, for `question`; the
///   exact re-scores' mask reads and fills are summed into the
///   [`GraphWork`].
///
/// The [`GraphWork`] comes back also when a materialization fails.
pub fn materialize_and_mine(
    db: &Database,
    prepared: &PreparedQuery,
    question: &Question,
    scope: Option<&Question>,
    params: &Params,
    stats: &dyn ColumnStatsProvider,
    store: &impl GraphStore,
) -> (Result<Vec<GraphOutcome>>, GraphWork) {
    let pt = &prepared.pt;
    let mut work = GraphWork::default();

    let materialize_span = span("materialize");
    let builder: OnceLock<AptBuilder<'_>> = OnceLock::new();
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
            AptBuilder::new(db, pt, &prepared.graphs)
        });
        let (apt, wall) = materialize(builder, gi)?;
        Ok(Some((gi, Found::View(Arc::new(apt), wall))))
    };
    let found: Result<Vec<_>> = fan_out(params, &prepared.valid_graph_indices(), find);
    if let Some(builder) = builder.into_inner() {
        work.join_steps = builder.join_steps();
        work.join_steps_computed = builder.join_steps_computed();
        work.index_builds = builder.index_builds();
        // Freed where it and its shared joins were allocated: a scope's
        // net is what was allocated minus what was freed under it.
        let _mem = store.retain();
        let _stage = AllocScope::enter("materialize");
        drop(builder);
    }
    drop(materialize_span);
    let found: Vec<(usize, Found)> = match found {
        Ok(found) => found.into_iter().flatten().collect(),
        Err(e) => return (Err(e), work),
    };

    let prepare_span = span("prepare");
    let mut views = (found.iter())
        .filter_map(|(_, f)| match f {
            Found::View(view, _) => Some(view.as_ref()),
            Found::Held(_) => None,
        })
        .peekable();
    let share = views.peek().is_some().then(|| {
        let _mem = store.retain();
        let _stage = AllocScope::enter("prepare");
        ReadShare::plan(views)
    });
    let stats = WithShare { stats, share };
    // `(graph, materialization wall, whether this call prepared it)`.
    let prepare_one = |(gi, found): &(usize, Found)| {
        let (apt, wall) = match found {
            Found::Held(graph) => return (*gi, Arc::clone(graph), Duration::ZERO, false),
            Found::View(view, wall) => (view, *wall),
        };
        let (graph, prepared) = store.graph_or_prepare(*gi, || {
            let _mem = store.retain();
            let _stage = Stage::open_as("prepare_apt", "prepare");
            let prep = cajade_mining::prepared::prepare(apt, pt, &params.mining, &stats, scope);
            let apt = Arc::clone(apt);
            PreparedGraph { apt, prep }
        });
        (*gi, graph, wall, prepared)
    };
    let ready: Vec<_> = fan_out(params, &found, prepare_one);
    // The views of graphs another caller prepared first.
    drop(found);
    work.graphs_prepared = ready.iter().filter(|(_, _, _, prepared)| *prepared).count();
    if let Some(share) = stats.share {
        (work.column_reads, work.column_reads_computed) = share.column_reads();
        // Whatever a reader that never came left in it is freed where the
        // preparations allocated it.
        let _mem = store.retain();
        let _stage = AllocScope::enter("prepare");
        drop(share);
    }
    drop(prepare_span);

    let _mine_span = span("mine");
    let mine_one = |(gi, graph, wall, prepared): &(usize, Arc<PreparedGraph>, Duration, bool)| {
        mine_one_prepared(pt, graph, question, params, *gi, *wall, *prepared)
    };
    let outcomes: Vec<GraphOutcome> = fan_out(params, &ready, mine_one);
    for ((_, graph, _, _), outcome) in ready.iter().zip(&outcomes) {
        let masks = outcome.exact_masks;
        work.exact_masks += masks.reads;
        work.exact_masks_computed += masks.computed;
        if !graph.prep.truncated {
            work.exact_mask_bytes += masks.bytes;
        }
    }
    (Ok(outcomes), work)
}

/// Stage 5: global F-score ranking + near-duplicate collapse (§6).
pub fn rank(all: Vec<Explanation>, params: &Params) -> Vec<Explanation> {
    let _stage = Stage::open("rank");
    rank_and_collapse(all, params.top_k_global, params.collapse_near_duplicates)
}

/// Assembles per-graph outcomes into a [`SessionResult`], accumulating
/// timings and applying the ranking stage: [`rank`]'s walk over every
/// graph's mined explanations, reading pattern text and collapse keys off
/// the graphs' APTs, then [`Explanation::from_mined`] for the ones it
/// keeps. Each primary group is labelled once.
pub fn assemble(
    db: &Database,
    query: &Query,
    prepared: &PreparedQuery,
    outcomes: Vec<GraphOutcome>,
    params: &Params,
) -> SessionResult {
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
    let mut timings = SessionTimings {
        provenance: prepared.provenance_time,
        jg_enum: prepared.jg_enum_time,
        ..Default::default()
    };
    let num_graphs_mined = outcomes.len();
    let mut apt_stats = Vec::new();
    let mut patterns_evaluated = 0usize;
    for o in outcomes {
        timings.materialize_apts += o.materialize;
        timings.mining.accumulate(&o.mining);
        apt_stats.push(o.apt_stat);
        patterns_evaluated += o.patterns;
    }
    // When a budget is installed (and still is at assembly — the service
    // calls `assemble` inside the budget scope), surface what truncated.
    let truncated: Vec<String> = cajade_obs::budget::current()
        .map(|b| b.truncated().into_iter().map(str::to_string).collect())
        .unwrap_or_default();
    SessionResult {
        explanations,
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

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    /// What the panicking items of `fan_out_keeps_item_order_errors_and_panics` throw.
    #[derive(Debug, PartialEq)]
    struct Thrown(usize);

    #[test]
    fn fan_out_keeps_item_order_errors_and_panics() {
        let params = Params {
            parallel: true,
            ..Params::paper()
        };
        let items: Vec<usize> = (0..100).collect();

        let doubled: Vec<usize> = fan_out(&params, &items, |&i| i * 2);
        assert_eq!(doubled, (0..100).map(|i| i * 2).collect::<Vec<_>>());

        let ran = AtomicUsize::new(0);
        let found: std::result::Result<Vec<usize>, String> = fan_out(&params, &items, |&i| {
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
            fan_out::<_, _, Vec<()>>(&params, &items, |&i| {
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
