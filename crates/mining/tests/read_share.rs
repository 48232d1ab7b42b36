//! The read-share seam of `prepare`
//! ([`ColumnStatsProvider::read_share`]): a preparation that takes what
//! another graph of the ask already read from a [`ReadShare`] is the
//! preparation it would have been without one, field for field and bit
//! for bit —
//!
//! * on every valid graph of two enumerations, materialized through one
//!   `AptBuilder` (so that graphs do share row-id vectors), in both
//!   preparation scopes, whichever graph reads first and from however
//!   many threads;
//! * when a reader panics, inside a shared computation or before it ever
//!   reads: what it was computing stays uncomputed, the next reader
//!   computes it, and nobody waits for the one that is gone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cajade_datagen::{nba, synth, GeneratedDb};
use cajade_graph::{enumerate_join_graphs, Apt, AptBuilder, EnumConfig, RowIds};
use cajade_mining::prepared::prepare;
use cajade_mining::{
    BaseTableStats, ColumnStats, ColumnStatsConfig, ColumnStatsProvider, MiningParams, PreparedApt,
    Question, ReadShare,
};
use cajade_query::{parse_sql, ProvenanceTable};

const NBA_SQL: &str = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
    WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
    GROUP BY s.season_name";

/// One enumeration's valid APTs, all views out of one builder.
struct Corpus {
    gen: GeneratedDb,
    pt: ProvenanceTable,
    apts: Vec<Apt>,
}

fn corpus(gen: GeneratedDb, sql: &str) -> Corpus {
    let query = parse_sql(sql).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &query).unwrap();
    let graphs = enumerate_join_graphs(
        &gen.schema_graph,
        &gen.db,
        &query,
        pt.num_rows,
        &EnumConfig::default(),
    )
    .unwrap();
    let builder = AptBuilder::new(&gen.db, &pt, &graphs);
    let apts = (0..graphs.len())
        .filter(|&gi| graphs[gi].valid)
        .map(|gi| builder.materialize(gi).unwrap())
        .collect();
    Corpus { gen, pt, apts }
}

fn corpora() -> [Corpus; 2] {
    [
        corpus(nba::generate(nba::NbaConfig::tiny()), NBA_SQL),
        corpus(
            synth::generate(&synth::SynthConfig::small()),
            synth::SYNTH_SQL,
        ),
    ]
}

/// Base-table statistics, an optional share, and a switch that makes the
/// next statistics request panic — which, under a share, happens inside
/// the computation of a shared column's bins.
struct Provider<'a> {
    stats: BaseTableStats<'a>,
    share: Option<ReadShare>,
    panic_next: AtomicBool,
    stats_requests: AtomicU64,
}

impl<'a> Provider<'a> {
    fn new(c: &'a Corpus, params: &MiningParams, share: Option<ReadShare>) -> Self {
        Provider {
            stats: BaseTableStats::new(&c.gen.db, ColumnStatsConfig::from_params(params)),
            share,
            panic_next: AtomicBool::new(false),
            stats_requests: AtomicU64::new(0),
        }
    }
}

impl ColumnStatsProvider for Provider<'_> {
    fn column_stats(&self, table: &str, column: &str) -> Option<Arc<ColumnStats>> {
        if self.panic_next.swap(false, Ordering::SeqCst) {
            panic!("injected: statistics of {table}.{column}");
        }
        self.stats_requests.fetch_add(1, Ordering::Relaxed);
        self.stats.column_stats(table, column)
    }

    fn read_share(&self) -> Option<&ReadShare> {
        self.share.as_ref()
    }
}

/// Everything of a preparation but its timings, as text: `Debug` prints a
/// float by its shortest round-trip form, so equal text is equal bits
/// (relevance is compared as bits besides).
fn fingerprint(p: &PreparedApt) -> String {
    assert!(!p.truncated);
    let relevance: Vec<u64> = p.fs.relevance.iter().map(|r| r.to_bits()).collect();
    format!(
        "{:?}",
        (
            (&p.fs.num_fields, &p.fs.cat_fields, &p.fs.clusters),
            relevance,
            p.index.order(),
            (&p.index, &p.exact),
            (&p.pool, &p.frag, &p.bank),
        )
    )
}

fn scopes(pt: &ProvenanceTable) -> [Option<Question>; 2] {
    assert!(pt.rows_of_group.len() >= 2);
    [None, Some(Question::TwoPoint { t1: 0, t2: 1 })]
}

/// The unshared preparations, in APT order.
fn unshared(c: &Corpus, params: &MiningParams, q: Option<&Question>) -> Vec<String> {
    let provider = Provider::new(c, params, None);
    let one = |apt| fingerprint(&prepare(apt, &c.pt, params, &provider, q));
    c.apts.iter().map(one).collect()
}

#[test]
fn shared_preparations_equal_unshared_ones_in_any_order() {
    let params = MiningParams::default();
    assert!(params.lambda_f1_samp < 1.0, "both scans are exercised");
    for c in corpora() {
        let n = c.apts.len();
        let vectors = |apt: &Apt| -> Vec<usize> {
            let per_column = apt.columns.iter().map(|col| col.rows().addr());
            per_column.chain([apt.pt_row.addr()]).collect()
        };
        let mut distinct: Vec<usize> = c.apts.iter().flat_map(vectors).collect();
        let total = distinct.len();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            n > 10 && distinct.len() * 4 < total,
            "{n} graphs share too little to test: {} vectors behind {total} columns",
            distinct.len()
        );

        for q in scopes(&c.pt) {
            let q = q.as_ref();
            let want = unshared(&c, &params, q);
            let forwards: Vec<usize> = (0..n).collect();
            let backwards: Vec<usize> = (0..n).rev().collect();
            for order in [forwards, backwards] {
                let provider = Provider::new(&c, &params, Some(ReadShare::plan(&c.apts)));
                for &i in &order {
                    let got = prepare(&c.apts[i], &c.pt, &params, &provider, q);
                    assert_eq!(fingerprint(&got), want[i], "graph {i}, scope {q:?}");
                }
                // Sequential readers compute a planned column exactly once,
                // and every planned reader came: the plan is used up, so a
                // late reader shares nothing and still agrees.
                let (reads, computed) = provider.share.as_ref().unwrap().column_reads();
                assert!(computed * 2 < reads, "{computed} of {reads} reads computed");
                let late = prepare(&c.apts[0], &c.pt, &params, &provider, q);
                assert_eq!(fingerprint(&late), want[0]);
                let (reads_after, computed_after) = provider.share.as_ref().unwrap().column_reads();
                assert_eq!(computed_after - computed, reads_after - reads);
            }

            // Two threads, opposite ends, meeting in the middle and
            // crossing: every graph is prepared twice, by both.
            let both = c.apts.iter().chain(&c.apts);
            let provider = Provider::new(&c, &params, Some(ReadShare::plan(both)));
            std::thread::scope(|s| {
                let run = |order: Vec<usize>| {
                    let (c, params, provider, want) = (&c, &params, &provider, &want);
                    s.spawn(move || {
                        for i in order {
                            let got = prepare(&c.apts[i], &c.pt, params, provider, q);
                            assert_eq!(fingerprint(&got), want[i], "graph {i}, scope {q:?}");
                        }
                    })
                };
                let (up, down) = (run((0..n).collect()), run((0..n).rev().collect()));
                up.join().unwrap();
                down.join().unwrap();
            });
        }
    }
}

/// The share answers before the provider is asked: a column another graph
/// binned costs no statistics request.
#[test]
fn a_shared_column_is_not_asked_statistics_for_again() {
    let params = MiningParams::default();
    let [_, c] = corpora();
    let requests = |share: Option<ReadShare>| {
        let provider = Provider::new(&c, &params, share);
        for apt in &c.apts {
            prepare(apt, &c.pt, &params, &provider, None);
        }
        provider.stats_requests.load(Ordering::Relaxed)
    };
    let (alone, shared) = (requests(None), requests(Some(ReadShare::plan(&c.apts))));
    assert!(
        shared * 2 < alone,
        "{shared} requests shared, {alone} alone"
    );
}

#[test]
fn a_panicking_reader_leaves_its_keys_to_the_next() {
    // The failpoint plan is process-wide.
    let _guard = cajade_obs::faults::test_guard();
    let params = MiningParams::default();
    let [_, c] = corpora();
    let want = unshared(&c, &params, None);
    let shares_its_pt_row = |apt: &&Apt| RowIds::ptr_eq(&apt.pt_row, &c.apts[0].pt_row);
    assert!(c.apts.iter().filter(shares_its_pt_row).count() > 2);
    let quietly = |f: &dyn Fn() -> PreparedApt| {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        std::panic::set_hook(hook);
        outcome
    };
    let provider = Provider::new(&c, &params, Some(ReadShare::plan(&c.apts)));

    // A reader dies before it read anything (the failpoint at the top of
    // `prepare`): its planned reads never come, nothing waits for them.
    cajade_obs::faults::set_plan("mine.prepare=panic@1").unwrap();
    let died = quietly(&|| prepare(&c.apts[0], &c.pt, &params, &provider, None));
    cajade_obs::faults::clear();
    assert!(died.is_err());
    assert_eq!(provider.share.as_ref().unwrap().column_reads(), (0, 0));

    // A reader dies inside a shared computation: binning the first context
    // column it gathered. The cell stays empty ...
    let context = (1..c.apts.len())
        .find(|&i| c.apts[i].fields.iter().any(|f| !f.from_pt))
        .expect("a graph with a context table");
    provider.panic_next.store(true, Ordering::SeqCst);
    let died = quietly(&|| prepare(&c.apts[context], &c.pt, &params, &provider, None));
    assert!(died.is_err());
    assert!(!provider.panic_next.load(Ordering::SeqCst), "it was hit");

    // ... and every later reader — the same graph again, from two threads
    // at once, then all the others — finds or computes what it needs.
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let got = prepare(&c.apts[context], &c.pt, &params, &provider, None);
                assert_eq!(fingerprint(&got), want[context]);
            });
        }
    });
    for (i, apt) in c.apts.iter().enumerate() {
        let got = prepare(apt, &c.pt, &params, &provider, None);
        assert_eq!(fingerprint(&got), want[i], "graph {i}");
    }
}
