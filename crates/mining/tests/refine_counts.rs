//! What the refinement BFS evaluates, prunes and keeps, pinned on every
//! valid join graph of NBA tiny's `GSW` query (the graphs
//! `mine_allocs.rs` mines), for a two-point and a single-point question,
//! under three runs: the defaults, `top_k = 1` (the F-score floor of the
//! upper-bound prune), and a `max_patterns` cap that stops the busiest
//! graph's BFS part way through.
//!
//! Per run and question the record holds the summed `patterns_evaluated`,
//! `ub_pruned_children` and `recall_pruned_subtrees`, and an FNV digest of
//! every graph's three counts and every explanation's predicates, groups,
//! sampled F-score bits and exact metrics. A change to the order the BFS
//! scores in, to what it queues or skips, or to a single bit of a score
//! fails here. Re-record deliberately with `-- --nocapture`: a mismatch
//! prints the lines to paste.

use cajade_datagen::nba;
use cajade_graph::{enumerate_join_graphs, AptBuilder, EnumConfig};
use cajade_mining::{mine_prepared, prepare_apt, MiningOutcome, MiningParams, Question};
use cajade_query::{parse_sql, ProvenanceTable};

const NBA_SQL: &str = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
    WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
    GROUP BY s.season_name";

/// The cap of the third run: below what the busiest graph evaluates
/// uncapped, above what its seeds alone count.
const CAP: usize = 600;

/// `run question patterns_evaluated ub_pruned_children
/// recall_pruned_subtrees digest`, as the test prints them.
const RECORD: &[&str] = &[
    "default two_point 19159 3734 3413 248ba83286037291",
    "default single_point 14652 2853 3414 c9dc533ef86062be",
    "top1 two_point 8969 10456 1825 20936d839c46a779",
    "top1 single_point 9875 6778 2451 520eb08211e2ddab",
    "capped two_point 18073 3734 3241 3ff7f4e7b0f345cb",
    "capped single_point 13834 2853 3222 b67850cec6a5b834",
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One graph's outcome into the digest: its counts, then each
/// explanation in order.
fn digest_outcome(h: &mut u64, gi: usize, out: &MiningOutcome) {
    let t = &out.timings;
    let counts = [
        gi as u64,
        out.patterns_evaluated as u64,
        t.ub_pruned_children,
        t.recall_pruned_subtrees,
    ];
    fnv(h, format!("{counts:?}").as_bytes());
    for e in &out.explanations {
        let m = &e.metrics;
        let line = format!(
            "{:?}|{}|{:?}|{:016x}|{} {} {} {} {:016x} {:016x} {:016x}",
            e.pattern.preds(),
            e.primary_group,
            e.secondary_group,
            e.sampled_f_score.to_bits(),
            m.tp,
            m.a1,
            m.fp,
            m.a2,
            m.precision.to_bits(),
            m.recall.to_bits(),
            m.f_score.to_bits(),
        );
        fnv(h, line.as_bytes());
    }
}

#[test]
fn refinement_counts_and_explanations_match_the_record() {
    let gen = nba::generate(nba::NbaConfig::tiny());
    let query = parse_sql(NBA_SQL).unwrap();
    let pt = ProvenanceTable::compute(&gen.db, &query).unwrap();
    let graphs = enumerate_join_graphs(
        &gen.schema_graph,
        &gen.db,
        &query,
        pt.num_rows,
        &EnumConfig::default(),
    )
    .unwrap();
    let builder = AptBuilder::new(&gen.db, &pt, &graphs, f64::INFINITY);
    let defaults = MiningParams::default();
    let runs = [
        ("default", defaults.clone()),
        (
            "top1",
            MiningParams {
                top_k: 1,
                ..defaults.clone()
            },
        ),
        (
            "capped",
            MiningParams {
                max_patterns: CAP,
                ..defaults.clone()
            },
        ),
    ];
    let questions = [
        ("two_point", Question::TwoPoint { t1: 0, t2: 1 }),
        ("single_point", Question::SinglePoint { t: 0 }),
    ];

    // Per run and question: summed counts and the digest.
    let mut acc = [[(0u64, 0u64, 0u64, 0xcbf2_9ce4_8422_2325u64); 2]; 3];
    // The busiest graph's two-point count, uncapped and capped.
    let mut busiest = (0usize, 0usize);
    let mut valid = 0;
    for gi in (0..graphs.len()).filter(|&gi| graphs[gi].valid) {
        valid += 1;
        let apt = builder.materialize(gi).unwrap().unwrap();
        // Every run shares the preparation: only `top_k` and
        // `max_patterns` differ, and neither is read before mining.
        let prepared = prepare_apt(&apt, &pt, &defaults);
        for (r, (_, params)) in runs.iter().enumerate() {
            for (q, (_, question)) in questions.iter().enumerate() {
                let out = mine_prepared(&prepared, &apt, &pt, question, params);
                let a = &mut acc[r][q];
                a.0 += out.patterns_evaluated as u64;
                a.1 += out.timings.ub_pruned_children;
                a.2 += out.timings.recall_pruned_subtrees;
                digest_outcome(&mut a.3, gi, &out);
                if q == 0 && r == 0 && out.patterns_evaluated > busiest.0 {
                    busiest.0 = out.patterns_evaluated;
                    let capped = mine_prepared(&prepared, &apt, &pt, question, &runs[2].1);
                    busiest.1 = capped.patterns_evaluated;
                }
            }
        }
    }
    assert!(valid > 100, "{valid} valid graphs");
    assert!(
        busiest.0 > CAP && busiest.1 == CAP,
        "the cap must bind on the busiest graph: {busiest:?}"
    );

    let mut lines = Vec::new();
    for (r, (run, _)) in runs.iter().enumerate() {
        for (q, (question, _)) in questions.iter().enumerate() {
            let (evaluated, ub, recall, digest) = acc[r][q];
            lines.push(format!(
                "{run} {question} {evaluated} {ub} {recall} {digest:016x}"
            ));
        }
    }
    let printed: Vec<String> = lines.iter().map(|l| format!("    \"{l}\",")).collect();
    println!("{}", printed.join("\n"));
    assert_eq!(lines, RECORD, "re-record with -- --nocapture");
}
