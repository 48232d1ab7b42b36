//! The exact re-score on the preparation's write-once all-rows masks
//! ([`ExactMasks`](cajade_mining::ExactMasks)) against the row scan of the
//! all-rows index it replaced. On every valid graph of three corpora
//! (NBA tiny, MIMIC tiny, the small synthetic star), prepared once for
//! every question as the service prepares them, a cold question and five
//! warm ones:
//!
//! * every explanation's exact metrics equal [`ScoreIndex::score`] of its
//!   pattern on the all-rows index;
//! * a slot is filled once: the questions fill masks into the
//!   preparation, and asking one of them again fills nothing and leaves
//!   what the filled slots weigh unchanged.

use cajade_datagen::{mimic, nba, synth, GeneratedDb};
use cajade_graph::{enumerate_join_graphs, Apt, AptBuilder, EnumConfig};
use cajade_mining::{mine_prepared, prepare_apt, MiningParams, Question};
use cajade_query::{parse_sql, ProvenanceTable};

const NBA_SQL: &str = "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
    WHERE t.team_id = g.winner_id AND g.season_id = s.season_id AND t.team = 'GSW' \
    GROUP BY s.season_name";

const MIMIC_SQL: &str = "SELECT 1.0*SUM(a.hospital_expire_flag)/COUNT(*) AS death_rate, \
    d.chapter FROM admissions a, diagnoses d WHERE a.hadm_id = d.hadm_id GROUP BY d.chapter";

/// One enumeration's valid APTs and the provenance table they extend.
fn corpus(gen: &GeneratedDb, sql: &str) -> (ProvenanceTable, Vec<Apt>) {
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
    let builder = AptBuilder::new(&gen.db, &pt, &graphs, f64::INFINITY);
    let apts = (0..graphs.len())
        .filter(|&gi| graphs[gi].valid)
        .map(|gi| builder.materialize(gi).unwrap().unwrap())
        .collect();
    (pt, apts)
}

/// A cold question and five warm ones, two-point and single-point.
fn questions(groups: usize) -> Vec<Question> {
    assert!(groups >= 3, "{groups} output groups");
    let two_point = |t1: usize, t2: usize| Question::TwoPoint { t1, t2 };
    vec![
        two_point(0, 1),
        two_point(1, 2),
        Question::SinglePoint { t: 2 },
        two_point(2, 0),
        Question::SinglePoint { t: groups - 1 },
        two_point(groups - 1, 1),
    ]
}

#[test]
fn exact_masks_rescore_as_the_all_rows_index_scores() {
    let params = MiningParams::default();
    assert!(params.lambda_f1_samp < 1.0, "an all-rows index is kept");
    let corpora = [
        (nba::generate(nba::NbaConfig::tiny()), NBA_SQL),
        (mimic::generate(mimic::MimicConfig::tiny()), MIMIC_SQL),
        (
            synth::generate(&synth::SynthConfig::small()),
            synth::SYNTH_SQL,
        ),
    ];
    for (gen, sql) in &corpora {
        let (pt, apts) = corpus(gen, sql);
        let questions = questions(pt.rows_of_group.len());
        let (mut explanations, mut filled) = (0, 0);
        for apt in &apts {
            let prep = prepare_apt(apt, &pt, &params);
            let Some(exact) = &prep.exact else {
                continue; // a sample of every row: nothing is re-scored
            };
            let mut computed = 0;
            for question in &questions {
                let outcome = mine_prepared(&prep, apt, &pt, question, &params);
                for e in &outcome.explanations {
                    let scanned = exact.score(&e.pattern, e.primary_group, e.secondary_group);
                    assert_eq!(e.metrics, scanned, "{sql}: {:?}", e.pattern);
                }
                explanations += outcome.explanations.len();
                let asked = outcome.exact_masks;
                assert!(asked.computed <= asked.reads, "{asked:?}");
                computed += asked.computed;
            }
            // The preparation holds masks exactly when the questions filled some.
            let bytes = prep.exact_masks.filled_bytes();
            assert_eq!(
                bytes > 0,
                computed > 0,
                "{sql}: {computed} fills, {bytes} bytes"
            );
            // The cold question again: every mask it reads is filled.
            let again = mine_prepared(&prep, apt, &pt, &questions[0], &params).exact_masks;
            assert_eq!(again.computed, 0, "{sql}: {again:?}");
            assert_eq!(prep.exact_masks.filled_bytes(), bytes, "{sql}");
            filled += bytes;
        }
        assert!(
            explanations > 0 && filled > 0,
            "{sql}: nothing was re-scored"
        );
    }
}
