//! Golden digests of whole ranked answers, per `filterAttrs` scope.
//!
//! Algorithm 1 runs in two scopes here: the library's one-shot `explain`
//! trains feature selection and samples LCA rows on the *questioned*
//! tuples' provenance, the service prepares each APT once over *all*
//! output groups and reuses that for every question. Each scope's full
//! ranked output — pattern, join graph, primary tuple, supports and the
//! F-score's bits — is pinned as an FNV digest for the Table 4/6 case
//! questions (with their ban lists) and the synthetic corpus's planted
//! stories, under `Params::paper()` at λ#edges 2.
//!
//! Beside the digests: `explain` must equal `mine_apt` composed per join
//! graph, and the two scopes must *differ* on the planted synth story — a
//! run-level check that notices if one scope is silently swapped for the
//! other.
//!
//! Recording: run with `-- --nocapture`; every test prints its actual
//! lines before comparing them.

use cajade_bench::workloads::{
    mimic_case_questions, mimic_db, mimic_queries, nba_case_questions, nba_db, nba_queries,
    CaseQuestion, Workload,
};
use cajade_core::{pipeline, Explanation, ExplanationSession, Params, UserQuestion};
use cajade_datagen::synth::{self, SynthConfig, SYNTH_SQL};
use cajade_datagen::GeneratedDb;
use cajade_graph::Apt;
use cajade_mining::mine_apt;
use cajade_query::parse_sql;
use cajade_service::{ExplanationService, ServiceConfig};

/// One pinned call: a name for the golden line, the SQL, the question and
/// the case's ban list.
struct Case {
    name: String,
    sql: &'static str,
    question: UserQuestion,
    banned: &'static [&'static str],
}

/// The five case questions of one dataset, the `single`-th of them also
/// asked as a single-point question about its `t1`.
fn paper_cases(cases: Vec<CaseQuestion>, queries: Vec<Workload>, single: usize) -> Vec<Case> {
    let mut out = Vec::new();
    for (i, cq) in cases.iter().enumerate() {
        let sql = queries.iter().find(|w| w.id == cq.query_id).unwrap().sql;
        out.push(Case {
            name: cq.query_id.to_string(),
            sql,
            question: UserQuestion::two_point(&[cq.t1], &[cq.t2]),
            banned: cq.banned,
        });
        if i == single {
            out.push(Case {
                name: format!("{}/single", cq.query_id),
                sql,
                question: UserQuestion::single_point(&[cq.t1]),
                banned: cq.banned,
            });
        }
    }
    out
}

/// The synthetic corpus's stories: `g0` is the planted group.
fn synth_cases() -> Vec<Case> {
    let case = |name: &str, question| Case {
        name: name.to_string(),
        sql: SYNTH_SQL,
        question,
        banned: &[],
    };
    vec![
        case(
            "synth/g0-g1",
            UserQuestion::two_point(&[("grp", "g0")], &[("grp", "g1")]),
        ),
        case(
            "synth/g1-g2",
            UserQuestion::two_point(&[("grp", "g1")], &[("grp", "g2")]),
        ),
        case(
            "synth/g0/single",
            UserQuestion::single_point(&[("grp", "g0")]),
        ),
    ]
}

fn params_for(case: &Case) -> Params {
    let mut p = Params::paper().with_max_edges(2);
    p.mining.banned_attrs = case.banned.iter().map(|s| s.to_string()).collect();
    p
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
}

/// FNV-1a over the full ranked output, in rank order.
fn digest(explanations: &[Explanation]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for e in explanations {
        for s in [&e.pattern_desc, &e.graph_structure, &e.primary] {
            fnv(&mut h, s.as_bytes());
            fnv(&mut h, &[0]);
        }
        let m = &e.metrics;
        for n in [m.tp, m.a1, m.fp, m.a2] {
            fnv(&mut h, &(n as u64).to_le_bytes());
        }
        fnv(&mut h, &m.f_score.to_bits().to_le_bytes());
    }
    h
}

/// `explain` spelled out: `mine_apt` over each valid join graph's APT,
/// rendered and globally ranked.
fn composed(gen: &GeneratedDb, case: &Case, params: &Params) -> Vec<Explanation> {
    let query = parse_sql(case.sql).unwrap();
    let prepared = pipeline::prepare(&gen.db, &gen.schema_graph, &query, params).unwrap();
    let pt = &prepared.pt;
    let question = pipeline::resolve_question(&gen.db, &query, pt, &case.question).unwrap();
    let mut all = Vec::new();
    for gi in prepared.valid_graph_indices() {
        let apt = Apt::materialize(&gen.db, pt, &prepared.graphs[gi].graph).unwrap();
        let outcome = mine_apt(&apt, pt, &question, &params.mining);
        all.extend(outcome.explanations.iter().map(|m| {
            let primary = pipeline::group_label(&gen.db, &query, pt, m.primary_group);
            Explanation::from_mined(m, &apt, gen.db.pool(), primary, gi)
        }));
    }
    pipeline::rank(all, params)
}

/// Runs every case through both scopes and returns one golden line per
/// case plus the `(library, service)` digests.
fn run(gen: &GeneratedDb, cases: &[Case]) -> (String, Vec<(u64, u64)>) {
    let mut lines = String::new();
    let mut digests = Vec::new();
    for case in cases {
        let params = params_for(case);
        assert!(!params.parallel);
        let query = parse_sql(case.sql).unwrap();
        let library = ExplanationSession::new(&gen.db, &gen.schema_graph, params.clone())
            .explain(&query, &case.question)
            .unwrap()
            .explanations;
        assert!(!library.is_empty(), "{}: no explanation", case.name);
        assert_eq!(
            digest(&library),
            digest(&composed(gen, case, &params)),
            "{}: explain is not mine_apt composed per graph",
            case.name
        );
        // The case's parameters are its service's.
        let service = ExplanationService::new(ServiceConfig {
            params,
            ..ServiceConfig::default()
        });
        service.register_database("db", gen.db.clone(), gen.schema_graph.clone());
        let served = service
            .open_session("db", case.sql)
            .unwrap()
            .ask(&case.question)
            .unwrap()
            .result
            .explanations;
        let (lib, svc) = (digest(&library), digest(&served));
        lines.push_str(&format!(
            "{} library={lib:016x}/{} service={svc:016x}/{}\n",
            case.name,
            library.len(),
            served.len()
        ));
        digests.push((lib, svc));
    }
    println!("{lines}");
    (lines, digests)
}

const NBA_GOLDEN: &str = "\
Q_nba1 library=6f0d7026f91b0ccd/20 service=095a2168fa73d144/20\n\
Q_nba2 library=32c8de2414664147/20 service=8f96b683b5e30801/20\n\
Q_nba3 library=b7631d9fc46fe5b2/20 service=35df62ca2593c67d/20\n\
Q_nba4 library=48214c14fb2c5013/18 service=3811dc734acb6ed0/9\n\
Q_nba4/single library=7c151286a0218e3f/20 service=3fdf9985fb72a8b7/4\n\
Q_nba5 library=fca9a437a277d643/20 service=f820cb173d108d65/20\n\
";

const MIMIC_GOLDEN: &str = "\
Q_mimic1 library=3f2261d16bd6eb94/20 service=0e342a7e808bdce7/19\n\
Q_mimic2 library=c8644f364a8a2124/8 service=3f00658f32f2c21c/14\n\
Q_mimic3 library=a418066c421d98bb/7 service=5b02c0e9c635230e/11\n\
Q_mimic4 library=7ff02d9c6ca73f7a/13 service=4ee23e85a8865ad3/14\n\
Q_mimic4/single library=607eba78206e89cc/10 service=9e767962ec944129/12\n\
Q_mimic5 library=b66bd085adf609aa/20 service=ff1f611bc0a4f625/19\n\
";

const SYNTH_GOLDEN: &str = "\
synth/g0-g1 library=b0dac189ea7d3d38/20 service=960b739297dece0e/6\n\
synth/g1-g2 library=600705d1b8d14dca/2 service=d3729208c16d964b/6\n\
synth/g0/single library=f73462540e1a2979/20 service=d872da8765dc76ac/7\n\
";

#[test]
fn nba_case_questions_reproduce_the_recorded_answers() {
    let cases = paper_cases(nba_case_questions(), nba_queries(), 3);
    let (lines, _) = run(&nba_db(0.05), &cases);
    assert_eq!(lines, NBA_GOLDEN);
}

#[test]
fn mimic_case_questions_reproduce_the_recorded_answers() {
    let cases = paper_cases(mimic_case_questions(), mimic_queries(), 3);
    let (lines, _) = run(&mimic_db(0.1), &cases);
    assert_eq!(lines, MIMIC_GOLDEN);
}

#[test]
fn synth_stories_reproduce_the_recorded_answers_and_the_scopes_differ() {
    let (lines, digests) = run(&synth::generate(&SynthConfig::small()), &synth_cases());
    assert_eq!(lines, SYNTH_GOLDEN);
    let (library, service) = digests[0];
    assert_ne!(
        library, service,
        "question-scoped and group-global filterAttrs agree on the planted g0/g1 story"
    );
}
