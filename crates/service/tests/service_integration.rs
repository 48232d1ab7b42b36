//! End-to-end tests of the interactive explanation service: cross-question
//! stage reuse, cache-vs-cold result identity, whole-query eviction under
//! a small byte budget, invalidation on database re-registration, warm-vs-cold
//! latency, and concurrent sessions on different databases.

use std::time::Duration;

use cajade_core::{Params, UserQuestion};
use cajade_datagen::mimic::{self, MimicConfig};
use cajade_datagen::nba::{self, NbaConfig};
use cajade_datagen::synth::{self, SynthConfig};
use cajade_service::json::Json;
use cajade_service::protocol::handle_line;
use cajade_service::{ExplanationService, ServiceConfig};

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

fn q(t1_season: &str, t2_season: &str) -> UserQuestion {
    UserQuestion::two_point(&[("season_name", t1_season)], &[("season_name", t2_season)])
}

/// Explanations rendered comparably (pattern + graph + primary + score).
fn rendered(explanations: &[cajade_core::Explanation]) -> Vec<String> {
    explanations
        .iter()
        .map(|e| {
            format!(
                "{}|{}|{}|{:.12}",
                e.pattern_desc, e.graph_structure, e.primary, e.metrics.f_score
            )
        })
        .collect()
}

fn tiny_service(config: ServiceConfig) -> ExplanationService {
    let service = ExplanationService::new(config);
    let gen = nba::generate(NbaConfig::tiny());
    service.register_database("nba", gen.db, gen.schema_graph);
    service
}

fn fast_config() -> ServiceConfig {
    ServiceConfig {
        params: Params::fast(),
        ..ServiceConfig::default()
    }
}

#[test]
fn question_2_skips_preparation_and_matches_a_cold_run() {
    let service = tiny_service(fast_config());
    let session = service.open_session("nba", GSW_SQL).unwrap();

    // Question 1: everything cold.
    let q1 = q("2015-16", "2012-13");
    let a1 = session.ask(&q1).unwrap();
    assert!(!a1.answer_cache_hit);
    assert!(!a1.provenance_cache_hit);
    assert_eq!(a1.apt_cache_hits, 0);
    assert!(a1.apt_cache_misses > 0);

    // Question 2 (a *different* question): provenance, enumeration, and
    // every APT come from cache; only mining runs.
    let q2 = q("2016-17", "2012-13");
    let a2 = session.ask(&q2).unwrap();
    assert!(
        !a2.answer_cache_hit,
        "different question, so mining must run"
    );
    assert!(a2.provenance_cache_hit, "provenance + enumeration skipped");
    assert_eq!(a2.apt_cache_misses, 0, "materialization skipped");
    assert_eq!(a2.apt_cache_hits, a1.apt_cache_misses);
    assert_eq!(a2.result.timings.provenance, Duration::ZERO);
    assert_eq!(a2.result.timings.jg_enum, Duration::ZERO);
    assert_eq!(a2.result.timings.materialize_apts, Duration::ZERO);

    // The warm question-2 answer is identical to a cold run on a fresh
    // service with the same parameters. (The interactive path mines
    // through the cached question-independent preparation — global
    // feature selection and an unscoped LCA pool — so the one-shot
    // `ExplanationSession`, which prepares per question, is not the
    // reference; a cold *service* run is.)
    let cold_service = tiny_service(fast_config());
    let cold = cold_service
        .open_session("nba", GSW_SQL)
        .unwrap()
        .ask(&q2)
        .unwrap();
    assert!(!cold.result.explanations.is_empty());
    assert_eq!(
        rendered(&a2.result.explanations),
        rendered(&cold.result.explanations)
    );
    // Warm mining skipped every question-independent phase.
    assert_eq!(a2.result.timings.mining.feature_selection, Duration::ZERO);
    assert_eq!(a2.result.timings.mining.gen_pat_cand, Duration::ZERO);
    assert_eq!(a2.result.timings.mining.sampling_for_f1, Duration::ZERO);
    assert_eq!(a2.result.timings.mining.prepare, Duration::ZERO);

    // Repeating question 1 verbatim is an answer-cache hit with the
    // identical ranked list.
    let a1_again = session.ask(&q1).unwrap();
    assert!(a1_again.answer_cache_hit);
    assert_eq!(
        rendered(&a1.result.explanations),
        rendered(&a1_again.result.explanations)
    );
    // No stage ran on the answer hit, so no stage time may be reported.
    assert_eq!(a1_again.result.timings.total(), Duration::ZERO);

    let stats = service.stats();
    assert_eq!(stats.questions_answered, 3);
    assert_eq!(stats.provenance_cache.misses, 1);
    assert_eq!(stats.provenance_cache.hits, 1); // q2 (q1-again hit answers)
    assert_eq!(stats.answer_cache.hits, 1);
}

#[test]
fn warm_prepared_apt_skips_question_independent_phases() {
    // Acceptance check for question-independent preparation: a *new*
    // question on a warm `PreparedApt` skips feature extraction, LCA
    // candidate generation, and fragment/bitmap preparation entirely —
    // verified through both `MiningTimings` and the service counters.
    let service = tiny_service(fast_config());
    let session = service.open_session("nba", GSW_SQL).unwrap();

    let a1 = session.ask(&q("2015-16", "2012-13")).unwrap();
    let s1 = service.stats();
    assert_eq!(s1.prepared_apt_hits(), 0);
    assert!(s1.prepared_apt_misses() > 0, "cold ask prepares every APT");
    // The cold ask reports the preparation it paid for.
    assert!(a1.result.timings.mining.feature_selection > Duration::ZERO);

    let a2 = session.ask(&q("2016-17", "2012-13")).unwrap();
    let s2 = service.stats();
    assert!(!a2.answer_cache_hit && a2.provenance_cache_hit);
    assert_eq!(a2.apt_cache_misses, 0);
    assert_eq!(
        s2.prepared_apt_hits(),
        s1.prepared_apt_misses(),
        "every prepared APT is reused"
    );
    assert_eq!(s2.prepared_apt_misses(), s1.prepared_apt_misses());
    // Question-independent phases report zero on the warm ask; only
    // scoring and refinement ran.
    let m = a2.result.timings.mining;
    assert_eq!(m.feature_selection, Duration::ZERO);
    assert_eq!(m.gen_pat_cand, Duration::ZERO);
    assert_eq!(m.sampling_for_f1, Duration::ZERO);
    assert_eq!(m.prepare, Duration::ZERO);
    assert!(m.fscore_calc > Duration::ZERO);
    assert!(!a2.result.explanations.is_empty());
}

#[test]
fn a_zero_byte_answer_cache_re_mines_every_repeat_to_the_same_answer() {
    let service = tiny_service(ServiceConfig {
        answer_cache_bytes: 0,
        ..ServiceConfig::default()
    });
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let question = q("2015-16", "2012-13");
    let first = session.ask(&question).unwrap();
    assert_eq!(service.stats().answer_cache.rejected, 1);

    // The repeat misses the answer cache and mines against the cached
    // provenance and prepared graphs.
    let repeat = session.ask(&question).unwrap();
    assert!(!repeat.answer_cache_hit && repeat.provenance_cache_hit);
    assert_eq!(repeat.apt_cache_misses, 0);
    assert_eq!(service.stats().answer_cache.rejected, 2);

    let reference = tiny_service(ServiceConfig::default())
        .open_session("nba", GSW_SQL)
        .unwrap()
        .ask(&question)
        .unwrap();
    assert!(!reference.result.explanations.is_empty());
    let fields = |a: &cajade_service::AskResult| format!("{:#?}", a.result.explanations);
    assert_eq!(fields(&first), fields(&reference));
    assert_eq!(fields(&repeat), fields(&reference));
}

#[test]
fn concurrent_cold_asks_single_flight_provenance() {
    // Satellite: two concurrent cold asks on the same (db, query) must
    // not both compute provenance. With the per-key in-flight latch, the
    // prepared query is computed and inserted exactly once regardless of
    // interleaving; without it, both threads would insert.
    let config = ServiceConfig {
        answer_cache_bytes: 0, // force both asks through the pipeline
        ..fast_config()
    };
    let service = tiny_service(config);
    let question = q("2015-16", "2012-13");

    let ((r1, r1_graphs), (r2, r2_graphs)) = std::thread::scope(|scope| {
        let svc_a = service.clone();
        let svc_b = service.clone();
        let qa = &question;
        let qb = &question;
        let ask = |service: ExplanationService, question| {
            let session = service.open_session("nba", GSW_SQL).unwrap();
            let answer = session.ask(question).unwrap().result;
            (rendered(&answer.explanations), answer.num_graphs_mined)
        };
        let a = scope.spawn(move || ask(svc_a, qa));
        let b = scope.spawn(move || ask(svc_b, qb));
        (a.join().expect("ask 1"), b.join().expect("ask 2"))
    });

    assert!(!r1.is_empty());
    assert_eq!(r1, r2, "both asks see the same answer");
    assert_eq!(r1_graphs, r2_graphs);
    let stats = service.stats();
    let prov = stats.provenance_cache;
    assert_eq!(
        prov.inserts, 1,
        "single-flight: provenance computed once, not per thread: {prov:?}"
    );
    // Mining preparation — the expensive half of a cold graph — is
    // deduplicated too, by the lock of the graph's slot in the one query
    // entry: across both asks every graph is prepared once and retained
    // once, and the other ask's lookup is a hit or coalesces, whether or
    // not the threads overlapped.
    assert_eq!(
        stats.prepared_apt_hits(),
        stats.prepared_apt_misses(),
        "each graph prepared once across both asks: {stats:?}"
    );
    let apt = stats.apt_cache;
    assert_eq!(
        (apt.inserts, apt.entries),
        (r1_graphs as u64, r1_graphs),
        "one stored graph per graph mined: {apt:?}"
    );
    // Not asserted: one *view* per graph. The view is derived before the
    // latch is taken — it is the cheap half and needs the ask's one
    // builder — so two asks that both missed a graph both derive it, and
    // the loser of the latch drops its copy.
}

#[test]
fn sessions_share_caches_for_the_same_query() {
    let service = tiny_service(fast_config());
    let s1 = service.open_session("nba", GSW_SQL).unwrap();
    let s2 = service.open_session("nba", GSW_SQL).unwrap();
    assert_ne!(s1.id(), s2.id());

    let a1 = s1.ask(&q("2015-16", "2012-13")).unwrap();
    // A different session, different question, same query: reuses the
    // first session's prepared stages.
    let a2 = s2.ask(&q("2014-15", "2012-13")).unwrap();
    assert!(!a1.provenance_cache_hit);
    assert!(a2.provenance_cache_hit);
    assert_eq!(a2.apt_cache_misses, 0);
}

#[test]
fn query_over_the_provenance_budget_is_dropped_whole_and_recomputed() {
    // The eviction unit is the query: its provenance fits the budget, its
    // provenance plus every prepared graph does not.
    let (fresh, prepared) = {
        let probe = tiny_service(fast_config());
        let session = probe.open_session("nba", GSW_SQL).unwrap();
        session.preview().unwrap();
        let fresh = probe.stats().provenance_cache.bytes;
        session.ask(&q("2015-16", "2012-13")).unwrap();
        (fresh, probe.stats().provenance_cache.bytes)
    };
    assert!(prepared > 2 * fresh, "graphs outweigh provenance here");

    let config = ServiceConfig {
        prov_cache_bytes: prepared / 2,
        ..fast_config()
    };
    let service = tiny_service(config);
    let within_budget = |at: &str| {
        let prov = service.stats().provenance_cache;
        assert!(prov.bytes <= prov.budget_bytes, "{at}: {prov:?}");
        prov
    };
    let session = service.open_session("nba", GSW_SQL).unwrap();
    session.preview().unwrap();
    assert_eq!(within_budget("previewed").entries, 1);

    let a1 = session.ask(&q("2015-16", "2012-13")).unwrap();
    assert!(a1.provenance_cache_hit && a1.apt_cache_misses > 0);
    let prov = within_budget("asked");
    let apt = service.stats().apt_cache;
    assert_eq!((prov.entries, prov.evictions), (0, 1), "{prov:?}");
    assert_eq!(
        (apt.entries, apt.bytes, apt.evictions),
        (0, 0, a1.apt_cache_misses as u64),
        "its graphs went with it: {apt:?}"
    );

    // A different question recomputes from provenance — and still
    // produces exactly the answer a fresh cold service computes.
    let q2 = q("2016-17", "2012-13");
    let a2 = session.ask(&q2).unwrap();
    assert!(!a2.provenance_cache_hit);
    assert_eq!(
        (a2.apt_cache_hits, a2.apt_cache_misses),
        (0, a1.apt_cache_misses)
    );
    within_budget("asked again");
    let cold = tiny_service(fast_config())
        .open_session("nba", GSW_SQL)
        .unwrap()
        .ask(&q2)
        .unwrap();
    assert_eq!(
        rendered(&a2.result.explanations),
        rendered(&cold.result.explanations)
    );
    assert!(!a1.result.explanations.is_empty());
}

#[test]
fn reregistration_invalidates_only_on_content_change() {
    let service = tiny_service(fast_config());
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let q1 = q("2015-16", "2012-13");
    let first = session.ask(&q1).unwrap();

    // Same content (deterministic generator, same seed): caches survive.
    let same = nba::generate(NbaConfig::tiny());
    let outcome = service.register_database("nba", same.db, same.schema_graph);
    assert!(!outcome.replaced);
    assert_eq!(outcome.invalidated_entries, 0);
    let warm = session.ask(&q1).unwrap();
    assert!(warm.answer_cache_hit, "identical content keeps the caches");

    // Different content: epoch advances, every cached stage is swept, and
    // the next ask recomputes from scratch.
    let mut changed_cfg = NbaConfig::tiny();
    changed_cfg.seed = 99;
    let changed = nba::generate(changed_cfg);
    let outcome = service.register_database("nba", changed.db, changed.schema_graph);
    assert!(outcome.replaced);
    assert!(outcome.invalidated_entries > 0, "stale entries swept");
    let cold = session.ask(&q1).unwrap();
    assert!(!cold.answer_cache_hit);
    assert!(!cold.provenance_cache_hit);
    assert!(cold.apt_cache_misses > 0);
    assert!(!first.result.explanations.is_empty());
    assert!(!cold.result.explanations.is_empty());

    // Unregistering makes the session's next ask fail cleanly.
    assert!(service.unregister_database("nba"));
    let err = session.ask(&q1).unwrap_err();
    assert!(matches!(
        err,
        cajade_service::ServiceError::UnknownDatabase(_)
    ));
}

#[test]
fn warm_ask_is_at_least_5x_faster_than_cold_on_scaled_nba() {
    // The acceptance measurement: on a scaled NBA workload, a warm ask
    // (cache hit) must beat the cold path by ≥ 5×. In practice the answer
    // cache returns in microseconds against a cold path of hundreds of
    // milliseconds, so the margin is enormous; 5× is the contract.
    let service = ExplanationService::new(fast_config());
    let gen = nba::generate(NbaConfig::scaled(0.05));
    service.register_database("nba", gen.db, gen.schema_graph);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let question = q("2015-16", "2012-13");

    let cold = session.ask(&question).unwrap();
    assert!(!cold.answer_cache_hit);

    // Best of three warm asks (wall-clock measurements on shared CI boxes
    // deserve a little noise tolerance).
    let mut warm_best = Duration::MAX;
    for _ in 0..3 {
        let warm = session.ask(&question).unwrap();
        assert!(warm.answer_cache_hit);
        assert_eq!(
            rendered(&warm.result.explanations),
            rendered(&cold.result.explanations)
        );
        warm_best = warm_best.min(warm.wall);
    }
    let speedup = cold.wall.as_secs_f64() / warm_best.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 5.0,
        "warm ask must be ≥5× faster: cold={:?} warm={:?} speedup={speedup:.1}×",
        cold.wall,
        warm_best
    );
}

#[test]
fn concurrent_sessions_on_different_databases_from_threads() {
    let service = ExplanationService::new(fast_config());
    let nba_gen = nba::generate(NbaConfig::tiny());
    let mimic_gen = mimic::generate(MimicConfig::tiny());
    service.register_database("nba", nba_gen.db, nba_gen.schema_graph);
    service.register_database("mimic", mimic_gen.db, mimic_gen.schema_graph);

    const MIMIC_SQL: &str = "SELECT insurance, \
         1.0*SUM(hospital_expire_flag)/COUNT(*) AS death_rate \
         FROM admissions GROUP BY insurance";
    let mimic_q =
        UserQuestion::two_point(&[("insurance", "Medicare")], &[("insurance", "Medicaid")]);
    let nba_q = q("2015-16", "2012-13");

    // Sequential reference answers.
    let reference = {
        let reference_service = ExplanationService::new(fast_config());
        let g1 = nba::generate(NbaConfig::tiny());
        let g2 = mimic::generate(MimicConfig::tiny());
        reference_service.register_database("nba", g1.db, g1.schema_graph);
        reference_service.register_database("mimic", g2.db, g2.schema_graph);
        let nba_ref = reference_service
            .open_session("nba", GSW_SQL)
            .unwrap()
            .ask(&nba_q)
            .unwrap();
        let mimic_ref = reference_service
            .open_session("mimic", MIMIC_SQL)
            .unwrap()
            .ask(&mimic_q)
            .unwrap();
        (
            rendered(&nba_ref.result.explanations),
            rendered(&mimic_ref.result.explanations),
        )
    };

    // Two threads, one session each on different databases, asking
    // concurrently through the same shared service.
    let (nba_out, mimic_out) = std::thread::scope(|scope| {
        let svc_a = service.clone();
        let svc_b = service.clone();
        let nba_q = &nba_q;
        let mimic_q = &mimic_q;
        let a = scope.spawn(move || {
            let session = svc_a.open_session("nba", GSW_SQL).unwrap();
            let first = session.ask(nba_q).unwrap();
            let second = session.ask(nba_q).unwrap();
            assert!(second.answer_cache_hit);
            rendered(&first.result.explanations)
        });
        let b = scope.spawn(move || {
            let session = svc_b.open_session("mimic", MIMIC_SQL).unwrap();
            let first = session.ask(mimic_q).unwrap();
            let second = session.ask(mimic_q).unwrap();
            assert!(second.answer_cache_hit);
            rendered(&first.result.explanations)
        });
        (
            a.join().expect("nba thread"),
            b.join().expect("mimic thread"),
        )
    });

    assert!(!nba_out.is_empty());
    assert!(!mimic_out.is_empty());
    assert_eq!(
        nba_out, reference.0,
        "nba answers unaffected by concurrency"
    );
    assert_eq!(
        mimic_out, reference.1,
        "mimic answers unaffected by concurrency"
    );

    let stats = service.stats();
    assert_eq!(stats.databases, 2);
    assert_eq!(stats.questions_answered, 4);
    assert_eq!(stats.sessions_opened, 2);
}

#[test]
fn cold_ask_join_work_is_exact_and_a_warm_ask_does_none() {
    // The deterministic work counters behind the shared-join
    // materialization, at shipped defaults on the benchmark's NBA corpus:
    // a cold ask materializes all 202 valid graphs through one
    // `AptBuilder`, which applies one `extend` step per edge — 572 — over
    // 20 key indexes (a kernel per graph would build 572).
    // `crates/graph/tests/enumeration_tree.rs` pins the same identity and
    // the same index builds below the service.
    let service = ExplanationService::new(ServiceConfig::default());
    let gen = nba::generate(NbaConfig {
        rich_stats: true,
        seed: 42,
        ..NbaConfig::scaled(0.05)
    });
    service.register_database("nba", gen.db, gen.schema_graph);
    let session = service.open_session("nba", GSW_SQL).unwrap();
    let counter = |name: &str| -> u64 {
        service
            .metrics_snapshot()
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };
    let work = || {
        (
            counter("apt_join_steps_total"),
            counter("apt_index_builds_total"),
        )
    };

    let cold = session.ask(&q("2015-16", "2012-13")).unwrap();
    assert_eq!((cold.apt_cache_hits, cold.apt_cache_misses), (0, 202));
    assert_eq!(work(), (572, 20), "cold ask (join steps, index builds)");

    // A new question on the same query: every APT is a cache hit, so no
    // builder is made and no join runs.
    let warm = session.ask(&q("2014-15", "2012-13")).unwrap();
    assert!(!warm.answer_cache_hit);
    assert_eq!((warm.apt_cache_hits, warm.apt_cache_misses), (202, 0));
    assert_eq!(work(), (572, 20), "warm ask adds (0, 0)");
}

/// The named counters of `service`'s registry (0 for one never bumped).
fn counters<const N: usize>(service: &ExplanationService, names: [&str; N]) -> [u64; N] {
    let counters = service.metrics_snapshot().counters;
    names.map(|name| counters.iter().find(|(k, _)| k == name).map_or(0, |c| c.1))
}

#[test]
fn cold_ask_shared_work_is_exact_with_and_without_worker_threads() {
    // What the graphs of one ask have in common, as counts, on the
    // synthetic star (3 dimension tables × 4 columns, 2 000 fact rows, 20
    // valid graphs). Every join keeps each fact row exactly once, so the
    // PT's row-id vector reaches every graph unchanged: 45 `extend` steps
    // are applied — one per edge of the 20 graphs — and 3 computed, one
    // probe loop per dimension table; and
    // of the 325 candidate columns the 20 preparations train on, 20 are
    // gathered — the provenance table's 5 and each dimension's 5, once
    // per ask. Workers wait for the one that computes, so the counts do
    // not depend on `parallel`.
    let gen = synth::generate(&SynthConfig::small());
    for parallel in [true, false] {
        let mut params = Params::paper();
        params.parallel = parallel;
        let service = ExplanationService::new(ServiceConfig {
            params,
            ..ServiceConfig::default()
        });
        service.register_database("synth", gen.db.clone(), gen.schema_graph.clone());
        let session = service.open_session("synth", synth::SYNTH_SQL).unwrap();
        let work = || {
            counters(
                &service,
                [
                    "apt_join_steps_total",
                    "apt_join_steps_computed_total",
                    "prepare_column_reads_total",
                    "prepare_column_reads_computed_total",
                ],
            )
        };
        let ask = |t1: &str, t2: &str| {
            session
                .ask(&UserQuestion::two_point(&[("grp", t1)], &[("grp", t2)]))
                .unwrap()
        };

        let cold = ask("g0", "g1");
        assert_eq!((cold.apt_cache_hits, cold.apt_cache_misses), (0, 20));
        assert_eq!(work(), [45, 3, 325, 20], "cold ask, parallel {parallel}");
        // What enumeration went through to get those 20: 66 one-edge
        // extensions visited, 33 of them last-round graphs whose keys
        // nothing can cover any more and so never keyed; 23 graphs listed
        // — the 20 valid ones and 3 invalid ones the last round extended.
        let [visited, rejected] = counters(
            &service,
            [
                "jg_extensions_visited_total",
                "jg_extensions_rejected_total",
            ],
        );
        assert_eq!(
            (
                cold.result.num_graphs_enumerated,
                cold.result.num_graphs_mined,
                visited,
                rejected,
            ),
            (23, 20, 66, 33),
            "(listed, valid, visited, rejected), parallel {parallel}"
        );

        // A new question: every preparation is cached, nothing is planned.
        let warm = ask("g2", "g1");
        assert!(!warm.answer_cache_hit);
        assert_eq!(work(), [45, 3, 325, 20], "warm ask adds nothing");
    }
}

#[test]
fn exact_masks_are_filled_once_per_graph_and_predicate() {
    // The winners' exact re-scores read one all-rows mask per predicate,
    // and fill the ones no earlier read filled. On the synthetic star (20
    // valid graphs), the cold ask reads 202 masks and fills 166 — a
    // predicate can sit in several winners of one graph; a second
    // question reads 203 and fills only 5 — most of its winners'
    // predicates were the first one's — and a repeat, an answer-cache
    // hit, reads none. A mask is filled once whichever worker reads it
    // first, so the counts do not depend on `parallel`. The refinement
    // BFS's two pruning counters ride along: 202 children cut by the
    // F-score upper bound and 577 subtrees by the recall bound on the
    // cold ask, 225 and 574 more on the second question, none on the
    // repeat — each graph's BFS is sequential, so they are exact too.
    let gen = synth::generate(&SynthConfig::small());
    for parallel in [true, false] {
        let mut params = Params::paper();
        params.parallel = parallel;
        let service = ExplanationService::new(ServiceConfig {
            params,
            ..ServiceConfig::default()
        });
        service.register_database("synth", gen.db.clone(), gen.schema_graph.clone());
        let session = service.open_session("synth", synth::SYNTH_SQL).unwrap();
        let masks = || {
            counters(
                &service,
                [
                    "mine_exact_masks_total",
                    "mine_exact_masks_computed_total",
                    "mine_ub_pruned_children_total",
                    "mine_recall_pruned_subtrees_total",
                ],
            )
        };
        let ask = |t1: &str, t2: &str| {
            session
                .ask(&UserQuestion::two_point(&[("grp", t1)], &[("grp", t2)]))
                .unwrap()
        };

        ask("g0", "g1");
        assert_eq!(
            masks(),
            [202, 166, 202, 577],
            "cold ask, parallel {parallel}"
        );
        ask("g2", "g1");
        assert_eq!(
            masks(),
            [405, 171, 427, 1151],
            "second question, parallel {parallel}"
        );
        assert!(ask("g2", "g1").answer_cache_hit);
        assert_eq!(
            masks(),
            [405, 171, 427, 1151],
            "a repeat adds 0, parallel {parallel}"
        );
    }
}

#[test]
fn without_the_tracking_allocator_heap_surfaces_read_disabled() {
    // This binary does not install `TrackingAlloc`: the heap surfaces say
    // "tracking disabled" instead of reporting zeros as measurements —
    // except a span's byte deltas, which read 0 — and RSS, read from the
    // kernel, is still there.
    let service = tiny_service(fast_config());
    let query = format!(r#"{{"op":"query","db":"nba","sql":"{GSW_SQL}","preview":false}}"#);
    let session = handle_line(&service, &query)
        .get("session")
        .and_then(Json::as_u64)
        .unwrap();
    let ask = handle_line(
        &service,
        &format!(
            r#"{{"op":"ask","session":{session},"trace":true,"t1":{{"season_name":"2015-16"}},"t2":{{"season_name":"2012-13"}}}}"#
        ),
    );
    let spans = ask.get("trace").and_then(Json::as_array).unwrap();
    assert!(spans.len() > 5, "{ask:?}");
    for span in spans {
        for field in ["alloc_bytes", "peak_bytes"] {
            assert_eq!(span.get(field).and_then(Json::as_u64), Some(0), "{span:?}");
        }
    }

    let metrics = handle_line(&service, r#"{"op":"metrics"}"#);
    let memory = metrics.get("memory").unwrap();
    assert_eq!(memory.get("tracking").and_then(Json::as_bool), Some(false));
    assert!(memory.get("heap").is_none(), "{memory:?}");
    assert!(memory.get("scopes").is_none(), "{memory:?}");
    let rss = memory.get("rss").and_then(Json::as_object).unwrap();
    assert!(rss.contains_key("peak_bytes") && rss.contains_key("current_bytes"));
    let gauges = metrics.get("gauges").and_then(Json::as_object).unwrap();
    assert!(gauges.contains_key("open_sessions"), "{gauges:?}");
    assert!(
        !gauges
            .keys()
            .any(|g| g.starts_with("heap_") || g.starts_with("mem_scope_")),
        "{gauges:?}"
    );
}

#[test]
fn concurrent_warm_asks_fill_masks_to_the_sequential_answers() {
    // Two threads ask disjoint questions against one warm query entry,
    // filling the graphs' all-rows masks concurrently, workers and all;
    // every answer is the one a sequential run on a fresh service gives.
    let parallel = || {
        let mut params = Params::paper();
        params.parallel = true;
        tiny_service(ServiceConfig {
            params,
            ..ServiceConfig::default()
        })
    };
    let lists: [Vec<UserQuestion>; 2] = [
        vec![
            q("2016-17", "2013-14"),
            q("2014-15", "2012-13"),
            q("2011-12", "2014-15"),
        ],
        vec![
            q("2015-16", "2010-11"),
            q("2013-14", "2016-17"),
            q("2012-13", "2015-16"),
        ],
    ];
    let answer = |session: &cajade_service::SessionHandle, question: &UserQuestion| {
        let asked = session.ask(question).unwrap();
        assert!(!asked.answer_cache_hit);
        format!("{:?}", asked.result.explanations)
    };

    let fresh = parallel();
    let session = fresh.open_session("nba", GSW_SQL).unwrap();
    let sequential: Vec<Vec<String>> = (lists.iter())
        .map(|list| {
            list.iter()
                .map(|question| answer(&session, question))
                .collect()
        })
        .collect();

    let warm = parallel();
    let session = warm.open_session("nba", GSW_SQL).unwrap();
    session.ask(&q("2015-16", "2012-13")).unwrap();
    let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (lists.iter())
            .map(|list| {
                let session = &session;
                scope.spawn(move || {
                    list.iter()
                        .map(|question| answer(session, question))
                        .collect()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    assert_eq!(concurrent, sequential);
}
