//! User-study harness (paper §6.3, Tables 7–9).
//!
//! The study's *mechanical* parts are regenerated faithfully: the two
//! explanation sets (5 provenance-based + 5 CaJaDE, Table 7), their
//! F-score / precision / recall rows (bottom of Table 8), and the entire
//! ranking-quality machinery of Table 9 (Kendall-tau pairwise error and
//! NDCG against per-participant rankings).
//!
//! The *human* part — 20 graduate students' 1–5 ratings — cannot be
//! reproduced computationally. Ratings are **simulated** with a documented
//! rater model: a noisy affine function of the explanation's precision and
//! recall (the paper found user preference correlates with precision /
//! F-score), plus a domain-knowledge bonus for raters flagged as NBA fans
//! on player-related explanations, plus per-rater noise. Every number
//! derived from these ratings is simulated (README § "Paper experiment
//! harness").

use cajade_core::{Explanation, ExplanationSession, Params, UserQuestion};
use cajade_datagen::GeneratedDb;
use cajade_metrics::{kendall_tau_pairs, mean, ndcg, sample_stddev};
use cajade_mining::{Question, SelAttr};
use cajade_query::{ProvenanceTable, Query};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// One explanation presented to the simulated raters.
#[derive(Debug, Clone)]
pub struct StudyExplanation {
    /// Table-7 label, e.g. `Expl3`.
    pub label: String,
    /// Rendered description.
    pub description: String,
    /// True for the CaJaDE arm, false for provenance-based.
    pub cajade_arm: bool,
    /// Whether the explanation references player-level context (triggers
    /// the fan bonus).
    pub player_related: bool,
    /// F-score / precision / recall.
    pub f_score: f64,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
}

/// The Table-7 explanation sets for the user-study question
/// (Q'1: GSW wins, 2015-16 vs 2012-13).
pub fn build_study_explanations(gen: &GeneratedDb, query: &Query) -> Vec<StudyExplanation> {
    let pt = ProvenanceTable::compute(&gen.db, query).expect("provenance");
    let t1 = pt
        .find_group(&gen.db, query, &[("season_name", "2015-16")])
        .expect("t1");
    let t2 = pt
        .find_group(&gen.db, query, &[("season_name", "2012-13")])
        .expect("t2");

    // Provenance-based arm: PT-only mining, top-5.
    let mut prov_params = Params::case_study().mining;
    prov_params.sel_attr = SelAttr::Count(6);
    prov_params.top_k = 5;
    prov_params.banned_attrs = vec!["season__id".into(), "season_name".into()];
    let (prov, apt0) = cajade_baselines::provenance_only_explanations(
        &gen.db,
        &pt,
        &Question::TwoPoint { t1, t2 },
        &prov_params,
    )
    .expect("provenance-only mining");

    // CaJaDE arm: full session, top-5 context explanations.
    let mut params =
        Params::case_study().with_banned_attrs(&["season__id", "season_name", "season.season"]);
    params.max_edges = 2;
    params.top_k_global = 20;
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, params);
    let out = session
        .explain(
            query,
            &UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")]),
        )
        .expect("session");
    let cajade_top: Vec<&Explanation> = out
        .explanations
        .iter()
        .filter(|e| !e.from_pt_only)
        .take(5)
        .collect();

    let mut study = Vec::new();
    for (i, e) in prov.iter().enumerate() {
        study.push(StudyExplanation {
            label: format!("Expl{}", i + 1),
            description: format!(
                "{} {}",
                e.pattern.render(&apt0, gen.db.pool()),
                e.metrics.support_string()
            ),
            cajade_arm: false,
            player_related: false,
            f_score: e.metrics.f_score,
            precision: e.metrics.precision,
            recall: e.metrics.recall,
        });
    }
    for (i, e) in cajade_top.iter().enumerate() {
        let player_related = e.preds.iter().any(|(a, _, _)| {
            a.contains("player")
                || a.contains("salary")
                || a.contains("minutes")
                || a.contains("usage")
        });
        study.push(StudyExplanation {
            label: format!("Expl{}", i + 6),
            description: e.render_line(),
            cajade_arm: true,
            player_related,
            f_score: e.metrics.f_score,
            precision: e.metrics.precision,
            recall: e.metrics.recall,
        });
    }
    study
}

/// Simulated ratings: `ratings[rater][explanation] ∈ 1..=5`.
///
/// Rater model (documented substitution for the human study):
/// `r = 1 + 4·(0.55·precision + 0.45·recall) + fan_bonus + ε`,
/// `ε ~ N(0, 0.55)`, rounded and clamped to 1..=5. Raters 0..num_fans are
/// "NBA fans" and add +0.4 to player-related explanations (the paper
/// found fans preferred CaJaDE's player-level context more strongly).
pub fn simulate_ratings(
    explanations: &[StudyExplanation],
    num_raters: usize,
    num_fans: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_raters)
        .map(|rater| {
            explanations
                .iter()
                .map(|e| {
                    let base = 1.0 + 4.0 * (0.55 * e.precision + 0.45 * e.recall);
                    let fan_bonus = if rater < num_fans && e.player_related {
                        0.4
                    } else {
                        0.0
                    };
                    let noise = {
                        // Box–Muller.
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen::<f64>();
                        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos() * 0.55
                    };
                    (base + fan_bonus + noise).round().clamp(1.0, 5.0)
                })
                .collect()
        })
        .collect()
}

/// Table-8 rows: average rating and standard deviation per explanation,
/// for all raters and for the fan subset.
pub struct Table8 {
    /// Per explanation: (mean all, stddev all, mean fans, mean non-fans).
    pub rows: Vec<(f64, f64, f64, f64)>,
}

/// Computes Table 8 from simulated ratings.
pub fn table8(ratings: &[Vec<f64>], num_fans: usize) -> Table8 {
    let num_expl = ratings.first().map_or(0, Vec::len);
    let rows = (0..num_expl)
        .map(|e| {
            let all: Vec<f64> = ratings.iter().map(|r| r[e]).collect();
            let fans: Vec<f64> = ratings[..num_fans].iter().map(|r| r[e]).collect();
            let non: Vec<f64> = ratings[num_fans..].iter().map(|r| r[e]).collect();
            (mean(&all), sample_stddev(&all), mean(&fans), mean(&non))
        })
        .collect();
    Table8 { rows }
}

/// Table-9 ranking-quality numbers for one explanation arm.
#[derive(Debug, Clone, Copy)]
pub struct RankQuality {
    /// Average Kendall-tau pairwise error vs. each rater.
    pub kendall_pairs: f64,
    /// Average NDCG vs. each rater's rating as relevance.
    pub ndcg: f64,
}

/// Evaluates ranking by `scores` against every rater's ratings restricted
/// to the explanation indices in `subset`.
pub fn rank_quality(ratings: &[Vec<f64>], scores: &[f64], subset: &[usize]) -> RankQuality {
    let sub_scores: Vec<f64> = subset.iter().map(|&i| scores[i]).collect();
    let mut kendall_sum = 0.0;
    let mut ndcg_sum = 0.0;
    for rater in ratings {
        let sub_ratings: Vec<f64> = subset.iter().map(|&i| rater[i]).collect();
        kendall_sum += kendall_tau_pairs(&sub_scores, &sub_ratings) as f64;
        // NDCG: order items by the metric, gains = the rater's ratings.
        let mut order: Vec<usize> = (0..subset.len()).collect();
        order.sort_by(|&a, &b| sub_scores[b].total_cmp(&sub_scores[a]));
        let gains: Vec<f64> = order.iter().map(|&i| sub_ratings[i]).collect();
        ndcg_sum += ndcg(&gains);
    }
    let n = ratings.len() as f64;
    RankQuality {
        kendall_pairs: kendall_sum / n,
        ndcg: ndcg_sum / n,
    }
}

/// Index of the most controversial explanation (largest rating stddev) —
/// the `-1` column of Table 9 drops it.
pub fn most_controversial(ratings: &[Vec<f64>], subset: &[usize]) -> usize {
    *subset
        .iter()
        .max_by(|&&a, &&b| {
            let sa = sample_stddev(&ratings.iter().map(|r| r[a]).collect::<Vec<_>>());
            let sb = sample_stddev(&ratings.iter().map(|r| r[b]).collect::<Vec<_>>());
            sa.total_cmp(&sb)
        })
        .expect("non-empty subset")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_explanations() -> Vec<StudyExplanation> {
        (0..10)
            .map(|i| {
                let p = 0.4 + 0.06 * i as f64;
                StudyExplanation {
                    label: format!("Expl{}", i + 1),
                    description: format!("expl {i}"),
                    cajade_arm: i >= 5,
                    player_related: i >= 5,
                    f_score: p,
                    precision: p,
                    recall: p * 0.9,
                }
            })
            .collect()
    }

    #[test]
    fn ratings_in_range_and_deterministic() {
        let ex = fake_explanations();
        let r1 = simulate_ratings(&ex, 20, 5, 42);
        let r2 = simulate_ratings(&ex, 20, 5, 42);
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 20);
        for rater in &r1 {
            assert_eq!(rater.len(), 10);
            assert!(rater.iter().all(|&x| (1.0..=5.0).contains(&x)));
        }
    }

    #[test]
    fn higher_precision_earns_higher_average_rating() {
        let ex = fake_explanations();
        let ratings = simulate_ratings(&ex, 40, 10, 7);
        let t8 = table8(&ratings, 10);
        // Explanation 9 (precision .94) beats explanation 0 (.4).
        assert!(t8.rows[9].0 > t8.rows[0].0 + 0.5);
    }

    #[test]
    fn fans_prefer_player_related() {
        let ex = fake_explanations();
        let ratings = simulate_ratings(&ex, 200, 100, 3);
        let t8 = table8(&ratings, 100);
        // Player-related explanations: fan mean > non-fan mean on average.
        let fan_delta: f64 = (5..10).map(|i| t8.rows[i].2 - t8.rows[i].3).sum::<f64>() / 5.0;
        assert!(fan_delta > 0.1, "fan delta {fan_delta}");
    }

    #[test]
    fn rank_quality_perfect_when_metric_matches_ratings() {
        // Ratings exactly equal to the metric → zero pairwise error, NDCG 1.
        let ratings = vec![vec![5.0, 4.0, 3.0, 2.0]];
        let scores = vec![5.0, 4.0, 3.0, 2.0];
        let q = rank_quality(&ratings, &scores, &[0, 1, 2, 3]);
        assert_eq!(q.kendall_pairs, 0.0);
        assert!((q.ndcg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controversial_is_max_stddev() {
        let ratings = vec![
            vec![5.0, 1.0, 3.0],
            vec![5.0, 5.0, 3.0],
            vec![5.0, 1.0, 3.0],
        ];
        assert_eq!(most_controversial(&ratings, &[0, 1, 2]), 1);
    }
}
