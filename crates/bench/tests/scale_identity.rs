//! Cross-scale answer-identity regression (ISSUE 8 satellite): §5
//! duplicate-up must not change *what* the miner finds, only how much
//! evidence supports it — otherwise the scale sweep's per-phase curves
//! would measure changing workloads, not growing ones.
//!
//! What is pinned, and on which corpus:
//!
//! * **Synthetic corpus, ×1 vs ×2 duplicate** — ranked top-k is
//!   shape-identical (same predicates, join graphs, primary roles, and
//!   F-scores to 12 decimals) and every support count (`tp`, `a1`, `fp`,
//!   `a2`) scales by exactly the factor, on both the provenance-only
//!   pipeline and a full join-mining pipeline. The corpora are sized so
//!   every table stays at or below the 512-row statistics sample cap
//!   even after duplication: column statistics and fragment boundaries
//!   then read the duplicated value multiset exhaustively — exactly the
//!   base multiset repeated — so thresholds cannot drift.
//! * **NBA tiny, each scale separately** — the warm path (provenance
//!   cache hit, APTs reused) returns the cold answer verbatim.
//!
//! Three structural reasons full cross-scale identity cannot be pinned
//! on arbitrary corpora (each observed empirically while building this
//! test, all by design rather than by bug):
//!
//! 1. **Identifier remapping.** `duplicate_scale` remaps PK/FK columns
//!    per copy precisely so the copies do not cross-join. The tiny NBA
//!    top-k saturates at F = 1.0 with surrogate-key predicates
//!    (`prov_season_season__id=4`, `prov_team_team__id=1`, …); such a
//!    pattern keeps only `1/factor` of its recall after duplication and
//!    falls out of the top-k.
//! 2. **Strided statistics above the sample cap.** The ≤512-position
//!    stride reads a different row subset from a duplicated table than
//!    from its base, so numeric refinement thresholds may shift by one
//!    sample step. Capping every table at 512 rows (as here) removes
//!    this source.
//! 3. **Feature-selection near-ties.** The forest trainers' split gains
//!    are ratio-identical on duplicated data but not bit-identical, so
//!    which of several *near-tied* correlated columns gets selected can
//!    flip with the row count (the default synthetic corpus plants
//!    near-duplicate numeric columns, which tickles exactly this). The
//!    join-pipeline case below uses one dimension with one numeric
//!    column so every candidate feature is well separated.

use cajade_core::{Params, UserQuestion};
use cajade_datagen::nba::{self, NbaConfig};
use cajade_datagen::scale::duplicate_scale;
use cajade_datagen::synth::{self, SynthConfig};
use cajade_datagen::GeneratedDb;
use cajade_service::{ExplanationService, ServiceConfig};

const GSW_SQL: &str = "SELECT COUNT(*) AS win, s.season_name \
     FROM team t, game g, season s \
     WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
       AND t.team = 'GSW' GROUP BY s.season_name";

/// Scale-invariant fingerprint of one ranked explanation: everything but
/// the support counts.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Shape {
    pattern: String,
    graph: String,
    primary: String,
    f_score: String,
}

/// One ask's answer: ranked shapes, raw support counts, and fully
/// rendered lines (shape + supports) for byte-level comparisons.
struct Answer {
    shapes: Vec<Shape>,
    supports: Vec<(u64, u64, u64, u64)>,
    rendered: Vec<String>,
}

fn ask(
    gen: &GeneratedDb,
    sql: &str,
    question: &UserQuestion,
    warm_with: Option<&UserQuestion>,
) -> Answer {
    ask_with(gen, sql, question, warm_with, Params::fast())
}

fn ask_with(
    gen: &GeneratedDb,
    sql: &str,
    question: &UserQuestion,
    warm_with: Option<&UserQuestion>,
    params: Params,
) -> Answer {
    let service = ExplanationService::new(ServiceConfig {
        params,
        ..ServiceConfig::default()
    });
    service.register_database("db", gen.db.clone(), gen.schema_graph.clone());
    let session = service.open_session("db", sql).unwrap();
    if let Some(other) = warm_with {
        // Prime provenance + APT caches with a different question, then
        // assert the ask under test takes the warm path.
        session.ask(other).unwrap();
    }
    let a = session.ask(question).unwrap();
    if warm_with.is_some() {
        assert!(
            a.provenance_cache_hit,
            "warm ask missed the provenance cache"
        );
        assert_eq!(a.apt_cache_misses, 0, "warm ask re-materialized APTs");
    }
    let explanations = &a.result.explanations;
    assert!(!explanations.is_empty(), "no explanations mined");
    Answer {
        shapes: explanations
            .iter()
            .map(|e| Shape {
                pattern: e.pattern_desc.clone(),
                graph: e.graph_structure.clone(),
                primary: format!("{:?}", e.primary),
                f_score: format!("{:.12}", e.metrics.f_score),
            })
            .collect(),
        supports: explanations
            .iter()
            .map(|e| {
                (
                    e.metrics.tp as u64,
                    e.metrics.a1 as u64,
                    e.metrics.fp as u64,
                    e.metrics.a2 as u64,
                )
            })
            .collect(),
        rendered: explanations
            .iter()
            .map(|e| {
                format!(
                    "{}|{}|{:?}|{:?}|{:.12}",
                    e.pattern_desc,
                    e.graph_structure,
                    e.primary,
                    (e.metrics.tp, e.metrics.a1, e.metrics.fp, e.metrics.a2),
                    e.metrics.f_score
                )
            })
            .collect(),
    }
}

/// Synth corpus sized to keep every table ≤ 512 rows after a ×2
/// duplicate: fact 240 → 480, dims 120 → 240.
fn capped_synth() -> GeneratedDb {
    synth::generate(&SynthConfig {
        rows: 240,
        fanout: 2,
        ..SynthConfig::small()
    })
}

fn synth_question() -> UserQuestion {
    UserQuestion::two_point(&[("grp", "g0")], &[("grp", "g1")])
}

/// Asserts shape identity and exact ×`factor` support scaling between a
/// base corpus and its duplicate under `params`.
fn assert_scale_invariant(base: &GeneratedDb, factor: usize, params: Params) {
    let duplicated = duplicate_scale(base, factor);
    let q = synth_question();
    let cold_1 = ask_with(base, synth::SYNTH_SQL, &q, None, params.clone());
    let cold_n = ask_with(&duplicated, synth::SYNTH_SQL, &q, None, params);

    // Ranked shapes identical across scales: same patterns, same graphs,
    // same roles, same F-scores, same order.
    assert_eq!(
        cold_1.shapes, cold_n.shapes,
        "duplication changed the ranked explanations"
    );
    // Support counts scale by exactly the duplication factor.
    let f = factor as u64;
    for (i, (s1, sn)) in cold_1.supports.iter().zip(&cold_n.supports).enumerate() {
        assert_eq!(
            (s1.0 * f, s1.1 * f, s1.2 * f, s1.3 * f),
            *sn,
            "rank {i}: supports did not scale by exactly {factor}"
        );
    }
}

/// Provenance-only pipeline (λ#edges = 0): no join-graph selection, no
/// cross-dimension feature competition — the duplicate must reproduce
/// the ranked list verbatim.
#[test]
fn duplication_preserves_the_ranked_top_k_pt_only() {
    let mut params = Params::fast();
    params.max_edges = 0;
    assert_scale_invariant(&capped_synth(), 2, params);
}

/// Full join pipeline: join-graph enumeration, APT materialization,
/// fragments, candidate generation, refinement, and global ranking must
/// all be scale-invariant together. Identifier attributes are banned
/// (they are remapped per copy — variance source 1) and feature
/// selection is disabled (its forest importance ranking is the one
/// data-dependent choice that is not exactly scale-invariant — variance
/// source 3); everything that remains is deterministic arithmetic over
/// exhaustive ≤512-row statistics and must reproduce verbatim.
#[test]
fn duplication_preserves_the_ranked_top_k_with_joins() {
    let gen = synth::generate(&SynthConfig {
        rows: 240,
        fanout: 2,
        tables: 1,
        columns: 1,
        ..SynthConfig::small()
    });
    let params = Params::fast()
        .with_feature_selection(false)
        .with_banned_attrs(&["_id"]);
    assert_scale_invariant(&gen, 2, params);
}

#[test]
fn warm_asks_match_cold_asks_across_scales() {
    let base = nba::generate(NbaConfig::tiny());
    let q = UserQuestion::two_point(&[("season_name", "2015-16")], &[("season_name", "2012-13")]);
    let other =
        UserQuestion::two_point(&[("season_name", "2014-15")], &[("season_name", "2012-13")]);
    for gen in [&base, &duplicate_scale(&base, 2)] {
        let cold = ask(gen, GSW_SQL, &q, None);
        let warm = ask(gen, GSW_SQL, &q, Some(&other));
        assert_eq!(cold.rendered, warm.rendered, "warm path changed the answer");
    }
}
