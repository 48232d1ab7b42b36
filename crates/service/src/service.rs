//! The thread-safe explanation service: a catalog of registered
//! databases, a registry of open sessions, and the shared caches that make
//! repeated questions cheap — one [`QueryEntry`] per query (provenance,
//! enumeration, one immutable [`PreparedGraph`] per join graph an ask has
//! prepared, and the ranked answer of every question asked of it) — all
//! under the service's one [`Params`]; each registration also keeps the
//! statistics of its base columns.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cajade_core::pipeline::{GraphStore, PreparedGraph, PreparedQuery};
use cajade_core::{Params, SessionResult};
use cajade_graph::{EnumeratedGraph, SchemaGraph};
use cajade_ingest::{IngestOptions, IngestReport};
use cajade_mining::{ColumnStatsConfig, ColumnStatsTable, Question};
use cajade_obs::faults::{self, Site};
use cajade_obs::AllocScope;
use cajade_query::{check_binds, parse_sql};
use cajade_storage::Database;
use parking_lot::{Mutex, RwLock};

use crate::cache::{CacheObs, CacheStats, LruCache};
use crate::keys::ProvKey;
use crate::obs::ServiceObs;
use crate::session::SessionHandle;
use crate::stats::{IngestStats, ServiceStats};
use crate::{Result, ServiceError};

/// Hard cap on concurrently-open sessions; opening beyond it evicts the
/// oldest session id.
const MAX_OPEN_SESSIONS: usize = 4096;

/// One provenance-cache value — everything the service keeps of a query:
/// its provenance and enumeration, in one slot per enumerated graph what
/// asks have prepared of them, and its answers by resolved question. All
/// of it is evicted, swept and recomputed with the entry, and what the
/// entry weighs is read off what it holds.
pub struct QueryEntry {
    /// The query's result, provenance table and enumerated join graphs.
    pub query: PreparedQuery,
    /// What `query` and the empty slots weigh: fixed with the entry.
    query_bytes: usize,
    /// Per enumerated graph, its [`PreparedGraph`] once an ask has made it.
    slots: Vec<Slot>,
    /// Ranked answers by question — its output tuples, resolved against
    /// this entry's provenance table — each sharing its explanation list
    /// with every ask it is handed to, beside what it weighs.
    answers: Mutex<HashMap<Question, (SessionResult, usize)>>,
}

/// One enumerated graph's place in a [`QueryEntry`]: its prepared graph,
/// written once and read without waiting, beside what it weighed when
/// stored (all but the all-rows masks filled into it since), and the latch
/// held while it is prepared, so concurrent cold asks prepare it once.
#[derive(Default)]
struct Slot {
    graph: OnceLock<(Arc<PreparedGraph>, usize)>,
    latch: Mutex<()>,
}

impl QueryEntry {
    pub(crate) fn new(query: PreparedQuery) -> Self {
        let each = std::mem::size_of::<EnumeratedGraph>() + std::mem::size_of::<Slot>();
        let graph = |g: &EnumeratedGraph| each + g.graph.approx_bytes() + g.key.approx_bytes();
        let graphs = query.graphs.iter().map(graph).sum::<usize>();
        QueryEntry {
            query_bytes: query.pt.approx_bytes() + query.result.approx_bytes() + graphs + 256,
            slots: query.graphs.iter().map(|_| Slot::default()).collect(),
            query,
            answers: Mutex::new(HashMap::new()),
        }
    }

    /// The answer held for `question`.
    pub(crate) fn answer(&self, question: &Question) -> Option<SessionResult> {
        (self.answers.lock().get(question)).map(|(result, _)| result.clone())
    }

    /// Keeps `result` as the answer of `question`; whether none was held
    /// for it (a racing ask may have kept one).
    pub(crate) fn hold_answer(&self, question: Question, result: &SessionResult) -> bool {
        let weighed = (result.clone(), answer_bytes(result));
        self.answers.lock().insert(question, weighed).is_none()
    }

    /// What the entry holds beside its query, read off its slots and its
    /// answers now: `[graphs, their bytes, answers, their bytes]`. A graph
    /// weighs what it weighed when stored plus the all-rows masks filled
    /// into it since.
    fn held(&self) -> [usize; 4] {
        let (mut graphs, mut graph_bytes) = (0, 0);
        for (graph, stored) in self.slots.iter().filter_map(|slot| slot.graph.get()) {
            graphs += 1;
            graph_bytes += stored + graph.prep.exact_masks.filled_bytes();
        }
        let answers = self.answers.lock();
        let answer_bytes = answers.values().map(|(_, bytes)| bytes).sum();
        [graphs, graph_bytes, answers.len(), answer_bytes]
    }

    /// Cache accounting for the whole entry: the provenance table
    /// dominates a fresh one, the prepared graphs a filled one;
    /// enumeration output, the query's result table (once: previews share
    /// it), the slots and the answers are small but counted.
    pub(crate) fn approx_bytes(&self) -> usize {
        let [_, graph_bytes, _, answer_bytes] = self.held();
        self.query_bytes + graph_bytes + answer_bytes
    }
}

/// A query entry's slots as the pipeline's [`GraphStore`], counted in the
/// service's `cache_apt_*` counters.
pub(crate) struct EntrySlots<'a> {
    pub(crate) entry: &'a QueryEntry,
    pub(crate) obs: &'a CacheObs,
}

impl GraphStore for EntrySlots<'_> {
    /// Lookup of graph `gi`, counted when it hits: a miss is counted at
    /// the latch, so a graph the builder skips over λ_qcost is none.
    fn graph(&self, gi: usize) -> Option<Arc<PreparedGraph>> {
        let found = self.entry.slots[gi].graph.get().map(|(g, _)| Arc::clone(g));
        if found.is_some() {
            self.obs.hits.inc();
        }
        found
    }

    /// Under the slot's latch, one counted miss: the graph another ask
    /// stored meanwhile (`coalesced` counts it), else what `prepare`
    /// makes, stored unless its preparation was truncated by the caller's
    /// budget — an unbudgeted ask must never inherit a partial preparation
    /// computed under someone else's deadline. If `prepare` panics the
    /// slot stays empty for the next reader.
    fn graph_or_prepare(
        &self,
        gi: usize,
        prepare: impl FnOnce() -> PreparedGraph,
    ) -> (Arc<PreparedGraph>, bool) {
        let slot = &self.entry.slots[gi];
        let _latch = slot.latch.lock();
        self.obs.misses.inc();
        if let Some((graph, _)) = slot.graph.get() {
            self.obs.coalesced.inc();
            return (Arc::clone(graph), false);
        }
        faults::failpoint_infallible(Site::CacheAptCompute);
        let graph = Arc::new(prepare());
        if !graph.prep.truncated {
            // Weighed without its all-rows masks: `held` adds them as
            // they are filled (none yet, as no ask has mined the graph).
            let stored = graph.approx_bytes() - graph.prep.exact_masks.filled_bytes();
            slot.graph.get_or_init(|| (Arc::clone(&graph), stored));
            self.obs.inserts.inc();
        }
        (graph, true)
    }

    /// The entry retains views and preparations alike.
    fn retain(&self) -> Option<AllocScope> {
        Some(AllocScope::enter("cache.apt"))
    }
}

/// Cache accounting for an answered question: the ranked explanation list.
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
        + 512
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Byte budget of the provenance cache: every query's provenance,
    /// enumeration, prepared join graphs and answered questions.
    pub prov_cache_bytes: usize,
    /// The pipeline parameters of every session this service opens; a
    /// caller that wants others constructs another service. `parallel`
    /// defaults to **on** here (unlike the one-shot API, whose
    /// single-threaded default mirrors the paper's runtime breakdowns).
    pub params: Params,
    /// The metrics registry this service records into. Defaults to a
    /// fresh registry so tests observe only their own counters; binaries
    /// pass `cajade_obs::global().clone()` to report process-wide.
    pub registry: Arc<cajade_obs::Registry>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let mut params = Params::paper();
        params.parallel = true;
        ServiceConfig {
            prov_cache_bytes: 768 * 1024 * 1024,
            params,
            registry: Arc::new(cajade_obs::Registry::new()),
        }
    }
}

/// A registered database: content plus its schema graph, pinned behind
/// `Arc` so in-flight questions keep a consistent snapshot even while the
/// name is re-registered.
#[derive(Debug)]
pub struct RegisteredDb {
    /// Registration epoch: one per [`ExplanationService::register_database`]
    /// call, never reused.
    pub epoch: u64,
    /// The database.
    pub db: Database,
    /// Its schema graph.
    pub schema_graph: SchemaGraph,
    /// The statistics of its base columns, each analysed when a
    /// preparation first asks for it, dropped with the registration: an
    /// ask still running on replaced content reads and fills the table it
    /// pinned.
    pub(crate) column_stats: Arc<ColumnStatsTable>,
}

/// What [`ExplanationService::register_database`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterOutcome {
    /// The registration's epoch, new with this call.
    pub epoch: u64,
    /// True when this call replaced a registration of the same name (its
    /// cache entries were swept), whatever the content of either.
    pub replaced: bool,
    /// What the replaced registration had retained and this call dropped:
    /// the query entries the sweep took out of the cache, the prepared
    /// graphs and the answers they held, plus the base columns whose
    /// statistics the replaced registration held.
    pub invalidated_entries: usize,
}

pub(crate) struct ServiceInner {
    pub(crate) dbs: RwLock<HashMap<String, Arc<RegisteredDb>>>,
    pub(crate) sessions: RwLock<HashMap<u64, Arc<SessionHandle>>>,
    pub(crate) next_session: AtomicU64,
    /// Monotonic epoch source shared by all database names. Never reused
    /// — even across unregister/re-register — so an in-flight ask holding
    /// a removed database's snapshot can never collide with the keys of
    /// freshly-registered content.
    pub(crate) next_epoch: AtomicU64,
    pub(crate) prov_cache: LruCache<ProvKey, Arc<QueryEntry>>,
    /// Counters of the prepared graphs the query entries hold
    /// (`cache_apt_…_total`): lookups, fills, and what went out with an
    /// evicted entry.
    pub(crate) apt_obs: CacheObs,
    /// The same of the answers they hold (`cache_answer_…_total`).
    pub(crate) answer_obs: CacheObs,
    pub(crate) ingest_stats: Mutex<IngestStats>,
    pub(crate) params: Params,
    /// Pre-resolved registry instrument handles.
    pub(crate) obs: ServiceObs,
}

impl ServiceInner {
    pub(crate) fn registered(&self, name: &str) -> Result<Arc<RegisteredDb>> {
        self.dbs
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownDatabase(name.to_string()))
    }

    /// Drops every cache entry of a registration that is no longer in the
    /// catalog and returns what it had retained: those entries, plus the
    /// base columns whose statistics go with the registration itself.
    fn sweep(&self, stale: &RegisteredDb) -> usize {
        let mut held = 0;
        let queries = self.prov_cache.retain(|k, entry| {
            let keep = k.epoch != stale.epoch;
            if !keep {
                let [graphs, _, answers, _] = entry.held();
                held += graphs + answers;
            }
            keep
        });
        queries + held + stale.column_stats.filled()
    }

    /// The prepared graphs and the answers resident query entries hold,
    /// as the `stats` op's `apt_cache` and `answer_cache` blocks: they
    /// live under the provenance budget.
    fn held_stats(&self) -> [CacheStats; 2] {
        let mut held = [0; 4];
        self.prov_cache.for_each(|e| {
            (held.iter_mut().zip(e.held())).for_each(|(sum, n)| *sum += n);
        });
        let [graphs, graph_bytes, answers, answer_bytes] = held;
        let budget = self.prov_cache.stats().budget_bytes;
        let apt = self.apt_obs.stats(graphs, graph_bytes, budget);
        [apt, self.answer_obs.stats(answers, answer_bytes, budget)]
    }
}

/// A thread-safe, cache-backed explanation service (cheaply cloneable;
/// clones share all state).
///
/// ```
/// use cajade_service::{ExplanationService, ServiceConfig};
/// use cajade_core::UserQuestion;
/// use cajade_datagen::nba::{self, NbaConfig};
///
/// let service = ExplanationService::new(ServiceConfig::default());
/// let gen = nba::generate(NbaConfig::tiny());
/// service.register_database("nba", gen.db, gen.schema_graph);
///
/// let session = service
///     .open_session(
///         "nba",
///         "SELECT COUNT(*) AS win, s.season_name \
///          FROM team t, game g, season s \
///          WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
///            AND t.team = 'GSW' GROUP BY s.season_name",
///     )
///     .unwrap();
/// let q = UserQuestion::two_point(
///     &[("season_name", "2015-16")],
///     &[("season_name", "2012-13")],
/// );
/// let cold = session.ask(&q).unwrap();
/// let warm = session.ask(&q).unwrap();
/// assert!(!cold.provenance_cache_hit && warm.provenance_cache_hit);
/// assert_eq!(
///     cold.result.explanations.len(),
///     warm.result.explanations.len()
/// );
/// ```
pub struct ExplanationService {
    inner: Arc<ServiceInner>,
}

impl Clone for ExplanationService {
    fn clone(&self) -> Self {
        ExplanationService {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Default for ExplanationService {
    fn default() -> Self {
        ExplanationService::new(ServiceConfig::default())
    }
}

impl ExplanationService {
    /// Creates a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        let registry = &config.registry;
        let apt_obs = CacheObs::new(registry, "apt");
        let answer_obs = CacheObs::new(registry, "answer");
        let apt_evictions = Arc::clone(&apt_obs.evictions);
        let answer_evictions = Arc::clone(&answer_obs.evictions);
        // What an evicted entry held goes out with it.
        let on_evict = move |entry: &Arc<QueryEntry>| {
            let [graphs, _, answers, _] = entry.held();
            apt_evictions.add(graphs as u64);
            answer_evictions.add(answers as u64);
        };
        ExplanationService {
            inner: Arc::new(ServiceInner {
                dbs: RwLock::new(HashMap::new()),
                sessions: RwLock::new(HashMap::new()),
                next_session: AtomicU64::new(1),
                next_epoch: AtomicU64::new(0),
                prov_cache: LruCache::with_obs(config.prov_cache_bytes, registry, "provenance")
                    .on_evict(on_evict),
                apt_obs,
                answer_obs,
                ingest_stats: Mutex::new(IngestStats::default()),
                params: config.params,
                obs: ServiceObs::new(Arc::clone(&config.registry)),
            }),
        }
    }

    /// Registers (or re-registers) a database under `name`.
    ///
    /// One epoch per call: the registration takes a fresh epoch and a
    /// fresh table of column statistics, whatever it holds. A registration
    /// it replaces is swept eagerly — every cache entry of its epoch goes —
    /// so no session can observe explanations computed against replaced
    /// data or enumerated over replaced joins; re-registering identical
    /// content is a replacement too, and the next ask recomputes the same
    /// answer.
    pub fn register_database(
        &self,
        name: impl Into<String>,
        db: Database,
        schema_graph: SchemaGraph,
    ) -> RegisterOutcome {
        let column_stats = Arc::new(ColumnStatsTable::new(
            &db,
            ColumnStatsConfig::from_params(&self.inner.params.mining),
            Arc::clone(&self.inner.obs.column_stats_computed_total),
        ));
        let mut dbs = self.inner.dbs.write();
        let epoch = self.inner.next_epoch.fetch_add(1, Ordering::Relaxed);
        let registered = RegisteredDb {
            epoch,
            db,
            schema_graph,
            column_stats,
        };
        let stale = dbs.insert(name.into(), Arc::new(registered));
        drop(dbs);
        RegisterOutcome {
            epoch,
            replaced: stale.is_some(),
            invalidated_entries: stale.map_or(0, |old| self.inner.sweep(&old)),
        }
    }

    /// Registers a directory of CSV files under `name`: runs the full
    /// ingestion pipeline (`cajade_ingest::ingest_dir` — type/key
    /// inference and a manifest-honouring load, each pass tokenizing every
    /// file read whole, then containment-based join discovery) and
    /// registers the result like
    /// [`register_database`](Self::register_database): one epoch per
    /// call, so re-registering an unchanged directory replaces the
    /// registration and sweeps its cache entries. The ingested database is
    /// named `name`, the name it is registered under.
    ///
    /// Per-stage timings and load statistics accumulate in
    /// [`ServiceStats::ingest`]; the per-run [`IngestReport`] is
    /// returned for the caller (the serve protocol surfaces it in the
    /// `register` response).
    pub fn register_csv_dir(
        &self,
        name: impl Into<String>,
        dir: impl AsRef<std::path::Path>,
        options: &IngestOptions,
    ) -> Result<(RegisterOutcome, IngestReport)> {
        let name = name.into();
        let mut options = options.clone();
        options.name = Some(name.clone());
        let ingested = cajade_ingest::ingest_dir(dir, &options)?;
        let outcome = self.register_database(name, ingested.db, ingested.schema_graph);
        self.inner.ingest_stats.lock().record(&ingested.report);
        Ok((outcome, ingested.report))
    }

    /// Removes a database and sweeps its cache entries. Open sessions on
    /// it fail their next `ask` with [`ServiceError::UnknownDatabase`].
    pub fn unregister_database(&self, name: &str) -> bool {
        let removed = self.inner.dbs.write().remove(name);
        if let Some(old) = &removed {
            self.inner.sweep(old);
        }
        removed.is_some()
    }

    /// Registered database names (sorted).
    pub fn database_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.dbs.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Opens an interactive session over `(db, sql)`.
    pub fn open_session(&self, db: &str, sql: &str) -> Result<Arc<SessionHandle>> {
        Ok(self.open(db, self.parse_bound(db, sql)?))
    }

    /// Validates eagerly what a session opens on: the database must exist
    /// ([`ServiceError::UnknownDatabase`]) and the SQL must parse and bind
    /// against it ([`cajade_query::check_binds`]; [`ServiceError::Parse`]).
    fn parse_bound(&self, db: &str, sql: &str) -> Result<cajade_query::Query> {
        let reg = self.inner.registered(db)?;
        let query = parse_sql(sql)?;
        check_binds(&reg.db, &query)?;
        Ok(query)
    }

    /// Like [`open_session`](Self::open_session), but returns an existing
    /// open session on the same `(db, canonical SQL)` when one exists. The
    /// serve protocol's `query` op uses this so a client issuing the same
    /// query repeatedly does not grow the session registry. The flag is
    /// true when this call opened the session: only then may the caller
    /// close it on failure, since a reused one is another request's too.
    pub fn open_or_reuse_session(&self, db: &str, sql: &str) -> Result<(Arc<SessionHandle>, bool)> {
        let query = self.parse_bound(db, sql)?;
        let canonical = query.to_sql();
        let existing = (self.inner.sessions.read().values())
            .find(|h| h.db_name() == db && h.sql() == canonical)
            .cloned();
        Ok(match existing {
            Some(handle) => (handle, false),
            None => (self.open(db, query), true),
        })
    }

    /// The one session constructor: registers a handle on a database the
    /// caller has resolved and a query it has parsed.
    fn open(&self, db: &str, query: cajade_query::Query) -> Arc<SessionHandle> {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let handle = Arc::new(SessionHandle::new(
            id,
            db.to_string(),
            query,
            Arc::downgrade(&self.inner),
        ));
        {
            let mut sessions = self.inner.sessions.write();
            sessions.insert(id, Arc::clone(&handle));
            // Bound the registry: a client that never closes sessions must
            // not grow server memory without limit. Oldest id goes first
            // (sessions are cheap handles; their cached work survives in
            // the byte-budgeted caches regardless).
            while sessions.len() > MAX_OPEN_SESSIONS {
                if let Some(&oldest) = sessions.keys().min() {
                    sessions.remove(&oldest);
                }
            }
        }
        self.inner.obs.sessions_opened_total.inc();
        handle
    }

    /// Looks up an open session by id.
    pub fn session(&self, id: u64) -> Result<Arc<SessionHandle>> {
        self.inner
            .sessions
            .read()
            .get(&id)
            .cloned()
            .ok_or(ServiceError::UnknownSession(id))
    }

    /// Closes a session; returns whether it existed.
    pub fn close_session(&self, id: u64) -> bool {
        self.inner.sessions.write().remove(&id).is_some()
    }

    /// Counter + cache snapshot.
    pub fn stats(&self) -> ServiceStats {
        let obs = &self.inner.obs;
        let [apt_cache, answer_cache] = self.inner.held_stats();
        ServiceStats {
            databases: self.inner.dbs.read().len(),
            open_sessions: self.inner.sessions.read().len(),
            sessions_opened: obs.sessions_opened_total.get(),
            questions_answered: obs.asks_total.get(),
            ingest: *self.inner.ingest_stats.lock(),
            provenance_cache: self.inner.prov_cache.stats(),
            apt_cache,
            answer_cache,
        }
    }

    /// The registry this service records into.
    pub fn registry(&self) -> &Arc<cajade_obs::Registry> {
        &self.inner.obs.registry
    }

    /// Pre-resolved instrument handles (crate-internal recording sites).
    pub(crate) fn obs(&self) -> &ServiceObs {
        &self.inner.obs
    }

    /// Refreshes the instantaneous gauges (databases, open sessions,
    /// per-cache resident entries/bytes, process current/peak RSS) and
    /// returns a full registry snapshot — the payload behind the serve
    /// protocol's `metrics` op.
    pub fn metrics_snapshot(&self) -> cajade_obs::RegistrySnapshot {
        let r = &self.inner.obs.registry;
        // Memory watermarks (Linux; gauges stay absent elsewhere) and the
        // heap-attribution ledgers (absent unless the binary installed
        // `cajade_obs::alloc::TrackingAlloc`).
        cajade_obs::rss::record_rss(r);
        cajade_obs::alloc::record_alloc(r);
        let s = self.stats();
        r.gauge("databases").set(s.databases as u64);
        r.gauge("open_sessions").set(s.open_sessions as u64);
        for (name, cache_stats) in [
            ("provenance", s.provenance_cache),
            ("apt", s.apt_cache),
            ("answer", s.answer_cache),
        ] {
            r.gauge(&format!("cache_{name}_entries"))
                .set(cache_stats.entries as u64);
            r.gauge(&format!("cache_{name}_bytes"))
                .set(cache_stats.bytes as u64);
        }
        r.snapshot()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn open_or_reuse_matches_on_db_and_sql() {
        let gen = cajade_datagen::nba::generate(cajade_datagen::nba::NbaConfig::tiny());
        let service = ExplanationService::new(ServiceConfig::default());
        service.register_database("nba", gen.db, gen.schema_graph);
        let sql = "SELECT count(*) AS games, season_name FROM season GROUP BY season_name";
        // An open session on the query is reused, whatever the SQL's
        // spelling.
        let (first, opened) = service.open_or_reuse_session("nba", sql).unwrap();
        let (again, reopened) = service
            .open_or_reuse_session("nba", &sql.to_lowercase())
            .unwrap();
        assert_eq!(again.id(), first.id());
        assert!(opened && !reopened);
    }

    /// A query entry is charged for the query's result table: on a query
    /// with one output tuple per game, an entry whose result is emptied is
    /// charged exactly the table's bytes less.
    #[test]
    fn entry_charge_counts_the_result_table() {
        let gen = cajade_datagen::nba::generate(cajade_datagen::nba::NbaConfig::tiny());
        let sql = "SELECT COUNT(*) AS n, g.game_date, g.home_id FROM game g \
            GROUP BY g.game_date, g.home_id";
        let query = parse_sql(sql).unwrap();
        let prepared =
            cajade_core::pipeline::prepare(&gen.db, &gen.schema_graph, &query, &Params::paper())
                .unwrap();
        let result = Arc::clone(&prepared.result);
        assert!(result.num_rows() > 100, "{} groups", result.num_rows());
        let charged = |result| {
            let query = PreparedQuery {
                result,
                ..prepared.clone()
            };
            QueryEntry::new(query).approx_bytes()
        };
        let emptied = cajade_query::QueryResult {
            table: result.table.gather(&[]),
            ..(*result).clone()
        };
        assert_eq!(emptied.approx_bytes(), 0);
        let table = result.approx_bytes();
        assert!(table > 0);
        assert_eq!(charged(result) - charged(Arc::new(emptied)), table);
    }

    /// What a query entry is charged stays what its prepared graphs weigh
    /// now: each warm ask's exact re-scores fill all-rows masks into them,
    /// and `apt_cache.bytes` grows by exactly those masks' bytes; an
    /// answer-cache hit fills nothing and leaves it unchanged.
    #[test]
    fn entry_charge_grows_by_exactly_the_filled_exact_masks() {
        let gen = cajade_datagen::nba::generate(cajade_datagen::nba::NbaConfig::tiny());
        let service = ExplanationService::new(ServiceConfig::default());
        service.register_database("nba", gen.db, gen.schema_graph);
        let sql = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
            WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
            GROUP BY s.season_name";
        let session = service.open_session("nba", sql).unwrap();
        let ask = |t1: &str, t2: &str| {
            let question = cajade_core::UserQuestion::two_point(
                &[("season_name", t1)],
                &[("season_name", t2)],
            );
            session.ask(&question).unwrap()
        };
        // (charged, what the held graphs weigh, their filled masks' bytes)
        let weigh = || {
            let (weight, masks) = held_graphs(&service);
            (service.stats().apt_cache.bytes, weight, masks)
        };

        assert_eq!(ask("2015-16", "2012-13").apt_cache_hits, 0);
        let (charged, weight, masks) = weigh();
        assert_eq!(charged, weight, "cold ask");
        assert!(masks > 0, "the cold ask re-scored its winners");
        let mut last = (charged, masks);
        for (t1, t2) in [
            ("2016-17", "2013-14"),
            ("2014-15", "2012-13"),
            ("2015-16", "2010-11"),
            ("2011-12", "2014-15"),
            ("2013-14", "2016-17"),
        ] {
            let warm = ask(t1, t2);
            assert_eq!((warm.answer_cache_hit, warm.apt_cache_misses), (false, 0));
            let (charged, weight, masks) = weigh();
            assert_eq!(charged, weight, "warm ask {t1} vs {t2}");
            assert_eq!(charged - last.0, masks - last.1, "warm ask {t1} vs {t2}");
            last = (charged, masks);
        }
        assert!(last.1 > masks, "no warm ask filled a mask");

        let repeat = ask("2013-14", "2016-17");
        assert!(repeat.answer_cache_hit);
        assert_eq!((weigh().0, weigh().2), last, "an answer-cache hit");
    }

    /// A mining worker that panics unwinds its ask, but the all-rows
    /// masks its sibling workers filled stay in the held graphs, and the
    /// entry is charged for them: what the cache charged stays what the
    /// entry weighs, and the next ask answers as a clean service does.
    #[test]
    fn a_mining_panic_leaves_the_entry_charged_for_its_siblings_masks() {
        use cajade_obs::faults::Plan;
        let sql = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
            WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
            GROUP BY s.season_name";
        let open = || {
            let gen = cajade_datagen::nba::generate(cajade_datagen::nba::NbaConfig::tiny());
            let service = ExplanationService::new(ServiceConfig::default());
            service.register_database("nba", gen.db, gen.schema_graph);
            let session = service.open_session("nba", sql).unwrap();
            (service, session)
        };
        let question = |t1: &str, t2: &str| {
            cajade_core::UserQuestion::two_point(&[("season_name", t1)], &[("season_name", t2)])
        };
        let (service, session) = open();
        session.ask(&question("2015-16", "2012-13")).unwrap();
        let (_, masks_before) = held_graphs(&service);

        let warm = question("2016-17", "2013-14");
        let plan = Plan::parse("mine.refine=panic@1").unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.install(|| session.ask(&warm))
        }));
        assert!(panicked.is_err());
        assert_eq!(plan.fired(Site::MineRefine), 1);

        let (weight, masks) = held_graphs(&service);
        assert!(masks > masks_before, "no sibling worker filled a mask");
        let stats = service.stats();
        assert_eq!(stats.apt_cache.bytes, weight, "{stats:?}");
        let mut entries = 0;
        service
            .inner
            .prov_cache
            .for_each(|entry| entries += entry.approx_bytes());
        assert_eq!(stats.provenance_cache.bytes, entries, "{stats:?}");

        let answer = |session: &SessionHandle| {
            let result = session.ask(&warm).unwrap().result;
            format!("{:?}", result.explanations)
        };
        assert_eq!(answer(&session), answer(&open().1));
    }

    /// (What the prepared graphs `service` holds weigh, their filled
    /// all-rows masks' bytes), each walked graph by graph.
    fn held_graphs(service: &ExplanationService) -> (usize, usize) {
        let (mut weight, mut masks) = (0, 0);
        service.inner.prov_cache.for_each(|entry| {
            for (graph, _) in entry.slots.iter().filter_map(|s| s.graph.get()) {
                weight += graph.approx_bytes();
                masks += graph.prep.exact_masks.filled_bytes();
            }
        });
        (weight, masks)
    }
}
