//! The thread-safe explanation service: a catalog of registered
//! databases, a registry of open sessions, and the shared caches that make
//! repeated questions cheap — one [`QueryEntry`] per query (provenance,
//! enumeration, and one immutable [`PreparedGraph`] per join graph an ask
//! has prepared), ranked answers per question — all under the service's
//! one [`Params`]; each registration also keeps the statistics of its base
//! columns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cajade_core::pipeline::PreparedQuery;
use cajade_core::Params;
use cajade_graph::{Apt, EnumeratedGraph, SchemaGraph};
use cajade_ingest::{IngestOptions, IngestReport};
use cajade_mining::PreparedApt;
use cajade_obs::Counter;
use cajade_query::parse_sql;
use cajade_storage::Database;
use parking_lot::{Mutex, RwLock};

use crate::cache::{CacheObs, CacheStats, LruCache};
use crate::colstats::ColumnStatsTable;
use crate::keys::{AnswerKey, ProvKey};
use crate::obs::ServiceObs;
use crate::session::SessionHandle;
use crate::stats::{IngestStats, ServiceStats};
use crate::{Result, ServiceError};

/// Hard cap on concurrently-open sessions; opening beyond it evicts the
/// oldest session id.
const MAX_OPEN_SESSIONS: usize = 4096;

/// One prepared join graph: its APT view and the question-independent
/// mining preparation made from it, computed together, stored once in its
/// query's [`QueryEntry`] and never changed. A *new* question on a
/// prepared graph reuses both and skips straight to scoring.
#[derive(Debug)]
pub struct PreparedGraph {
    /// The APT view — behind an `Arc` of its own because the ask derives
    /// every missing view first, plans what their preparations will read
    /// in common, and only then prepares each.
    pub apt: Arc<Apt>,
    /// Its mining preparation.
    pub prep: PreparedApt,
}

impl PreparedGraph {
    /// Approximate heap footprint: the APT view and the preparation. The
    /// provenance-table columns the view reads are the [`QueryEntry`]'s,
    /// counted there once for all of its graphs.
    pub fn approx_bytes(&self) -> usize {
        self.apt.approx_bytes() + self.prep.approx_bytes()
    }
}

/// One provenance-cache value — everything the service keeps of a query:
/// its provenance and enumeration, and, in one slot per enumerated graph,
/// what asks have prepared of them. A query's graphs are looked up by
/// enumeration index, and evicted, swept and recomputed with the entry.
pub struct QueryEntry {
    /// The query's result, provenance table and enumerated join graphs.
    pub query: PreparedQuery,
    /// Per enumerated graph, its [`PreparedGraph`] once an ask has made
    /// it. A slot's lock is its graph's latch: it is filled once, under
    /// the lock, so concurrent cold asks prepare a graph once.
    slots: Vec<Mutex<Option<Arc<PreparedGraph>>>>,
    /// Slots filled, and the bytes of what they hold: the entry weighs
    /// itself, and `stats` counts it, without waiting on a latch.
    held: Counter,
    held_bytes: Counter,
}

impl QueryEntry {
    pub(crate) fn new(query: PreparedQuery) -> Self {
        QueryEntry {
            slots: query.graphs.iter().map(|_| Mutex::new(None)).collect(),
            query,
            held: Counter::default(),
            held_bytes: Counter::default(),
        }
    }

    /// Counted lookup of graph `gi`; waits for an ask that is preparing
    /// it right now.
    pub(crate) fn graph(&self, gi: usize, obs: &CacheObs) -> Option<Arc<PreparedGraph>> {
        let found = self.slots[gi].lock().clone();
        match found {
            Some(_) => obs.hits.inc(),
            None => obs.misses.inc(),
        }
        found
    }

    /// The fill half, for a caller whose lookup missed: under the slot's
    /// lock, the graph another ask stored meanwhile (`coalesced` counts
    /// it), else what `prepare` makes, stored unless its preparation was
    /// truncated by the caller's budget — an unbudgeted ask must never
    /// inherit a partial preparation computed under someone else's
    /// deadline. Returns `(graph, prepared)`, `prepared` true when
    /// `prepare` ran; if it panics the slot stays empty for the next
    /// reader.
    pub(crate) fn graph_or_prepare(
        &self,
        gi: usize,
        obs: &CacheObs,
        prepare: impl FnOnce() -> PreparedGraph,
    ) -> (Arc<PreparedGraph>, bool) {
        let mut slot = self.slots[gi].lock();
        if let Some(graph) = &*slot {
            obs.coalesced.inc();
            return (Arc::clone(graph), false);
        }
        let graph = Arc::new(prepare());
        if !graph.prep.truncated {
            self.held.inc();
            self.held_bytes.add(graph.approx_bytes() as u64);
            *slot = Some(Arc::clone(&graph));
            obs.inserts.inc();
        }
        (graph, true)
    }

    /// Cache accounting for the whole entry: the provenance table
    /// dominates a fresh one, the prepared graphs a filled one;
    /// enumeration output, the query result and the slots are small but
    /// counted.
    pub(crate) fn approx_bytes(&self) -> usize {
        let graphs = (self.query.graphs.iter())
            .map(|g| {
                std::mem::size_of::<EnumeratedGraph>()
                    + g.graph.approx_bytes()
                    + g.key.approx_bytes()
                    + std::mem::size_of::<Mutex<Option<Arc<PreparedGraph>>>>()
            })
            .sum::<usize>();
        self.query.pt.approx_bytes() + graphs + 256 + self.held_bytes.get() as usize
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Byte budget of the provenance cache: every query's provenance,
    /// enumeration and prepared join graphs.
    pub prov_cache_bytes: usize,
    /// Byte budget of the answered-question cache.
    pub answer_cache_bytes: usize,
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
            answer_cache_bytes: 64 * 1024 * 1024,
            params,
            registry: Arc::new(cajade_obs::Registry::new()),
        }
    }
}

/// The corpus size the default byte budgets were tuned for (NBA scale
/// 0.05, ≈17 k rows across all tables).
const BUDGET_BASELINE_ROWS: usize = 17_000;

impl ServiceConfig {
    /// Budgets sized for a corpus of `total_rows` rows (summed over all
    /// tables). The defaults were tuned for NBA 0.05 (≈17 k rows); a
    /// 20× corpus materializes ≈20× the APT bytes, so a fixed budget
    /// silently turns the caches into thrash. Every budget scales
    /// linearly with `total_rows / 17 000`, floored at the defaults —
    /// small corpora keep the tuned values, large ones keep the same
    /// *relative* headroom the defaults encode.
    pub fn scaled_for_rows(total_rows: usize) -> Self {
        let base = ServiceConfig::default();
        // Integer scaling: budget * rows / baseline, floored at budget.
        let scale = |bytes: usize| -> usize {
            let scaled =
                (bytes as u128 * total_rows as u128 / BUDGET_BASELINE_ROWS as u128) as usize;
            scaled.max(bytes)
        };
        ServiceConfig {
            prov_cache_bytes: scale(base.prov_cache_bytes),
            answer_cache_bytes: scale(base.answer_cache_bytes),
            ..base
        }
    }

    /// [`scaled_for_rows`](ServiceConfig::scaled_for_rows) over a
    /// database that is about to be registered.
    pub fn scaled_for_db(db: &Database) -> Self {
        let rows = db.tables().iter().map(|t| t.num_rows()).sum();
        ServiceConfig::scaled_for_rows(rows)
    }
}

/// A registered database: content plus its schema graph, pinned behind
/// `Arc` so in-flight questions keep a consistent snapshot even while the
/// name is re-registered.
#[derive(Debug)]
pub struct RegisteredDb {
    /// Registration name.
    pub name: String,
    /// Registration epoch — advances when re-registration changes content
    /// or schema graph.
    pub epoch: u64,
    /// Content fingerprint ([`Database::fingerprint`]).
    pub fingerprint: u64,
    /// The database.
    pub db: Database,
    /// Its schema graph.
    pub schema_graph: SchemaGraph,
    /// The statistics of its base columns, each analysed when a
    /// preparation first asks for it. Shared with the registration an
    /// identical re-registration replaced, dropped with the last one.
    pub(crate) column_stats: Arc<ColumnStatsTable>,
}

/// What [`ExplanationService::register_database`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterOutcome {
    /// The (possibly advanced) epoch now current for this name.
    pub epoch: u64,
    /// The database's content fingerprint.
    pub fingerprint: u64,
    /// True when this call replaced different content or a different
    /// schema graph (epoch advanced and cache entries were invalidated).
    pub replaced: bool,
    /// What the replaced registration had retained and this call dropped:
    /// the entries the sweep took out of the two caches, the prepared
    /// graphs the swept query entries held, plus the base columns whose
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
    pub(crate) answer_cache: LruCache<AnswerKey, Arc<cajade_core::SessionResult>>,
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

    /// True while `epoch` is still the registered epoch for `name`. Asks
    /// check this before cache inserts so work computed against a
    /// just-replaced database snapshot is not retained under keys nothing
    /// will ever look up again. (A graph prepared into a query entry the
    /// sweep already dropped needs no check: it dies with the ask.)
    pub(crate) fn epoch_is_current(&self, name: &str, epoch: u64) -> bool {
        self.dbs.read().get(name).is_some_and(|r| r.epoch == epoch)
    }

    /// Drops every cache entry of a registration that is no longer in the
    /// catalog and returns what it had retained: those entries, plus the
    /// base columns whose statistics go with the registration itself.
    fn sweep(&self, stale: &RegisteredDb) -> usize {
        let mut graphs = 0;
        let queries = self.prov_cache.retain(|k, entry| {
            let keep = k.epoch != stale.epoch;
            if !keep {
                graphs += entry.held.get();
            }
            keep
        });
        queries
            + graphs as usize
            + (self.answer_cache).retain(|k, _| k.query.epoch != stale.epoch)
            + stale.column_stats.filled()
    }

    /// The prepared graphs resident query entries hold, as the `stats`
    /// op's `apt_cache` block: they live under the provenance budget.
    fn apt_stats(&self) -> CacheStats {
        let (mut graphs, mut bytes) = (0, 0);
        self.prov_cache.for_each(|entry| {
            graphs += entry.held.get();
            bytes += entry.held_bytes.get();
        });
        let budget = self.prov_cache.stats().budget_bytes;
        (self.apt_obs).stats(graphs as usize, bytes as usize, budget)
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
        let apt_evictions = Arc::clone(&apt_obs.evictions);
        ExplanationService {
            inner: Arc::new(ServiceInner {
                dbs: RwLock::new(HashMap::new()),
                sessions: RwLock::new(HashMap::new()),
                next_session: AtomicU64::new(1),
                next_epoch: AtomicU64::new(0),
                prov_cache: LruCache::with_obs(config.prov_cache_bytes, registry, "provenance")
                    .on_evict(move |entry: &Arc<QueryEntry>| apt_evictions.add(entry.held.get())),
                apt_obs,
                answer_cache: LruCache::with_obs(config.answer_cache_bytes, registry, "answer"),
                ingest_stats: Mutex::new(IngestStats::default()),
                params: config.params,
                obs: ServiceObs::new(Arc::clone(&config.registry)),
            }),
        }
    }

    /// Registers (or re-registers) a database under `name`.
    ///
    /// Re-registering identical content (same [`Database::fingerprint`])
    /// with an identical schema graph keeps the epoch — cached provenance
    /// and APTs stay valid. Different content, or other permissible joins
    /// over the same content (a CSV directory re-ingested with a higher
    /// `max_joins`), advances the epoch and eagerly sweeps every cache
    /// entry of the stale one, so no session can observe explanations
    /// computed against the replaced data or enumerated over the replaced
    /// joins.
    pub fn register_database(
        &self,
        name: impl Into<String>,
        db: Database,
        schema_graph: SchemaGraph,
    ) -> RegisterOutcome {
        let name = name.into();
        let fingerprint = db.fingerprint();
        let mut dbs = self.inner.dbs.write();
        let same = (dbs.get(&name)).filter(|existing| {
            existing.fingerprint == fingerprint
                && existing.schema_graph.edges() == schema_graph.edges()
        });
        let (epoch, column_stats) = match same {
            Some(existing) => (existing.epoch, Arc::clone(&existing.column_stats)),
            None => (
                self.inner.next_epoch.fetch_add(1, Ordering::Relaxed),
                Arc::new(ColumnStatsTable::new(&db)),
            ),
        };
        let registered = RegisteredDb {
            name: name.clone(),
            epoch,
            fingerprint,
            db,
            schema_graph,
            column_stats,
        };
        let stale = (dbs.insert(name, Arc::new(registered))).filter(|old| old.epoch != epoch);
        drop(dbs);
        RegisterOutcome {
            epoch,
            fingerprint,
            replaced: stale.is_some(),
            invalidated_entries: stale.map_or(0, |old| self.inner.sweep(&old)),
        }
    }

    /// Registers a directory of CSV files under `name`: runs the full
    /// ingestion pipeline (`cajade_ingest::ingest_dir` — streaming
    /// type/key inference, manifest-honouring load, containment-based
    /// join discovery) and registers the result like
    /// [`register_database`](Self::register_database). The ingested
    /// database is named `name`, so re-registering an unchanged
    /// directory keeps the epoch and every warm cache entry.
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
        self.inner.obs.record_ingest(&ingested.report.timings);
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

    /// Snapshot of a registered database.
    pub fn database(&self, name: &str) -> Option<Arc<RegisteredDb>> {
        self.inner.dbs.read().get(name).cloned()
    }

    /// Registered database names (sorted).
    pub fn database_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.dbs.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Opens an interactive session over `(db, sql)`.
    pub fn open_session(&self, db: &str, sql: &str) -> Result<Arc<SessionHandle>> {
        // Validate eagerly: the database must exist and the SQL must parse.
        self.inner.registered(db)?;
        Ok(self.open(db, parse_sql(sql)?))
    }

    /// Like [`open_session`](Self::open_session), but returns an existing
    /// open session on the same `(db, canonical SQL)` when one exists. The
    /// serve protocol's `query` op uses this so a client issuing the same
    /// query repeatedly does not grow the session registry.
    pub fn open_or_reuse_session(&self, db: &str, sql: &str) -> Result<Arc<SessionHandle>> {
        self.inner.registered(db)?;
        let query = parse_sql(sql)?;
        let canonical = query.to_sql();
        let existing = (self.inner.sessions.read().values())
            .find(|h| h.db_name() == db && h.sql() == canonical)
            .cloned();
        Ok(existing.unwrap_or_else(|| self.open(db, query)))
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
        ServiceStats {
            databases: self.inner.dbs.read().len(),
            open_sessions: self.inner.sessions.read().len(),
            sessions_opened: obs.sessions_opened_total.get(),
            questions_answered: obs.asks_total.get(),
            ingest: *self.inner.ingest_stats.lock(),
            provenance_cache: self.inner.prov_cache.stats(),
            apt_cache: self.inner.apt_stats(),
            answer_cache: self.inner.answer_cache.stats(),
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
        r.gauge("databases").set(self.inner.dbs.read().len() as u64);
        r.gauge("open_sessions")
            .set(self.inner.sessions.read().len() as u64);
        for (name, cache_stats) in [
            ("provenance", self.inner.prov_cache.stats()),
            ("apt", self.inner.apt_stats()),
            ("answer", self.inner.answer_cache.stats()),
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
mod tests {
    use super::*;

    #[test]
    fn scaled_budgets_floor_at_the_defaults() {
        let base = ServiceConfig::default();
        for rows in [0, 1, 17_000, BUDGET_BASELINE_ROWS - 1] {
            let c = ServiceConfig::scaled_for_rows(rows);
            assert_eq!(c.prov_cache_bytes, base.prov_cache_bytes, "rows {rows}");
            assert_eq!(c.answer_cache_bytes, base.answer_cache_bytes);
        }
    }

    #[test]
    fn scaled_budgets_grow_linearly_and_monotonically() {
        let base = ServiceConfig::default();
        let x20 = ServiceConfig::scaled_for_rows(BUDGET_BASELINE_ROWS * 20);
        assert_eq!(x20.prov_cache_bytes, base.prov_cache_bytes * 20);
        let mut last = 0;
        for rows in [10_000, 34_000, 100_000, 340_000, 1_700_000] {
            let c = ServiceConfig::scaled_for_rows(rows);
            assert!(c.prov_cache_bytes >= last, "not monotone at {rows}");
            last = c.prov_cache_bytes;
        }
    }

    #[test]
    fn open_or_reuse_matches_on_db_and_sql() {
        let gen = cajade_datagen::nba::generate(cajade_datagen::nba::NbaConfig::tiny());
        let service = ExplanationService::new(ServiceConfig::default());
        service.register_database("nba", gen.db, gen.schema_graph);
        let sql = "SELECT count(*) AS games, season_name FROM season GROUP BY season_name";
        // An open session on the query is reused, whatever the SQL's
        // spelling.
        let first = service.open_or_reuse_session("nba", sql).unwrap();
        let again = service
            .open_or_reuse_session("nba", &sql.to_lowercase())
            .unwrap();
        assert_eq!(again.id(), first.id());
    }

    #[test]
    fn scaled_for_db_sums_rows_across_tables() {
        use cajade_storage::{AttrKind, DataType, SchemaBuilder, Value};
        let mut db = Database::new("t");
        db.create_table(
            SchemaBuilder::new("a")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .build(),
        )
        .unwrap();
        // 20× baseline rows in one table → 20× budgets.
        for i in 0..(BUDGET_BASELINE_ROWS * 20) as i64 {
            db.table_mut("a")
                .unwrap()
                .push_row(vec![Value::Int(i)])
                .unwrap();
        }
        let c = ServiceConfig::scaled_for_db(&db);
        assert_eq!(
            c.prov_cache_bytes,
            ServiceConfig::default().prov_cache_bytes * 20
        );
    }
}
