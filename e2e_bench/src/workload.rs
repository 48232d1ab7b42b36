//! The four workloads: which corpus each registers, which queries open
//! its sessions, and how many questions each session asks. Everything a
//! run does is derived from `--seed`; the server only ever sees the CSV
//! directories and protocol lines that come out of here.
//!
//! Every workload is the same cycle, `register` → per session `query`,
//! cold `ask`, warm new-question `ask`s, repeat `ask`s, `close` — so each
//! one emits every end-to-end metric — in a different mix over a
//! different corpus, which is what moves the load between layers.

use std::path::{Path, PathBuf};

use cajade_datagen::names::TEAMS as NBA_TEAMS;
use cajade_datagen::synth::{SynthConfig, SYNTH_SQL};
use cajade_datagen::{mimic, nba, GeneratedDb};
use cajade_ingest::{export_csv_dir, ExportOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const MIMIC2_SQL: &str = "SELECT insurance, 1.0*SUM(hospital_expire_flag)/COUNT(*) AS death_rate \
                          FROM admissions GROUP BY insurance";
const MIMIC3_SQL: &str = "SELECT COUNT(*) AS cnt, los_group FROM icustays GROUP BY los_group";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    /// NBA `rich_stats` at scale 0.05: ≈17 k rows over 11 tables.
    Nba,
    /// MIMIC at scale 0.1: ≈16 k rows, categorical-heavy.
    Mimic,
    /// `datagen::synth`: 4 dimensions × 6 numeric columns, 20 000 fact rows.
    Synth,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub corpus: CorpusKind,
    /// Warm new-question asks per session.
    pub warm_asks: usize,
    /// Repeats of already-answered questions per session.
    pub repeats: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    // One short session per register, so every cache misses: enumeration
    // (3 906 graphs for 202 valid ones), 202 small APT materializations
    // and per-graph featsel fixed costs do the work. The regime that
    // incremental materialization, enumeration pruning and cache-layer
    // removal must move.
    Workload {
        name: "nba_cold",
        corpus: CorpusKind::Nba,
        warm_asks: 1,
        repeats: 1,
    },
    // The same corpus, question-heavy: after the cold ask, materialize and
    // featsel are bypassed (`apt_misses = 0`), so `mine_prepared`, rank,
    // JSON render and the cache hit path are all that is left. A featsel
    // or materialize change must not move its warm asks; a change that
    // speeds cold asks by caching less shows its cost here.
    Workload {
        name: "nba_warm",
        corpus: CorpusKind::Nba,
        warm_asks: 20,
        repeats: 100,
    },
    // The same layers used differently: ingest and invalidation ("writes")
    // beside asks ("reads"), and forest training on 2 k-row categorical
    // APTs is most of the cold ask, so work moved into registration, or a
    // cache that is expensive to sweep, shows up here.
    Workload {
        name: "mimic_churn",
        corpus: CorpusKind::Mimic,
        warm_asks: 6,
        repeats: 2,
    },
    // The width wall: 35 graphs whose APTs are 20 000 rows of wide numeric
    // columns, so featsel, materialize and `ScoreIndex` bytes dominate and
    // memory peaks; its warm asks are the only ones where bitmap mining
    // runs over large APTs.
    Workload {
        name: "synth_wide",
        corpus: CorpusKind::Synth,
        warm_asks: 5,
        repeats: 2,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One session of a cycle: the query that opens it and the seed its
/// questions are drawn with once the answer relation is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    pub sql: String,
    /// The query's GROUP BY column, the one questions select tuples by.
    pub group_col: &'static str,
    pub question_seed: u64,
}

/// One cycle: which of the two corpora to register, then its sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclePlan {
    /// 0 or 1: the A or B corpus. Alternating them makes every register
    /// replace different content, which bumps the epoch and sweeps all
    /// four caches.
    pub corpus: usize,
    pub sessions: Vec<SessionPlan>,
}

fn nba_wins_sql(team: &str) -> String {
    format!(
        "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s \
         WHERE t.team_id = g.winner_id AND g.season_id = s.season_id \
         AND t.team = '{team}' GROUP BY s.season_name"
    )
}

impl Workload {
    /// The seeds of the A and B corpora of a run.
    pub fn corpus_seeds(&self, seed: u64) -> [u64; 2] {
        let base = seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(self.corpus as u64 * 1000);
        [base, base.wrapping_add(1)]
    }

    pub fn generate(&self, corpus_seed: u64) -> GeneratedDb {
        match self.corpus {
            CorpusKind::Nba => nba::generate(nba::NbaConfig {
                rich_stats: true,
                seed: corpus_seed,
                ..nba::NbaConfig::scaled(0.05)
            }),
            CorpusKind::Mimic => mimic::generate(mimic::MimicConfig {
                seed: corpus_seed,
                ..mimic::MimicConfig::scaled(0.1)
            }),
            CorpusKind::Synth => cajade_datagen::synth::generate(&SynthConfig {
                seed: corpus_seed,
                ..SynthConfig::small().with_rows(20_000).with_width(4, 6)
            }),
        }
    }

    /// Generates both corpora and exports them as CSV directories under `dir`.
    pub fn export_corpora(&self, seed: u64, dir: &Path) -> Result<[PathBuf; 2], String> {
        let mut out = [dir.join("a"), dir.join("b")];
        for (path, corpus_seed) in out.iter_mut().zip(self.corpus_seeds(seed)) {
            let gen = self.generate(corpus_seed);
            export_csv_dir(
                &gen.db,
                &gen.schema_graph,
                &*path,
                &ExportOptions::default(),
            )
            .map_err(|e| format!("export {}: {e}", path.display()))?;
        }
        Ok(out)
    }

    /// The plan of cycle `cycle` (0-based). A pure function of `(seed,
    /// cycle)`, so a run of any length is a prefix of a longer one.
    pub fn cycle_plan(&self, seed: u64, cycle: usize) -> CyclePlan {
        let question_seed =
            |session: u64| seed ^ ((cycle as u64 + 1) << 20) ^ ((session + 1) << 8) ^ 0xCA1A;
        let sessions = match self.corpus {
            CorpusKind::Nba => {
                let mut teams = NBA_TEAMS;
                teams.shuffle(&mut StdRng::seed_from_u64(seed));
                vec![SessionPlan {
                    sql: nba_wins_sql(teams[cycle % teams.len()]),
                    group_col: "season_name",
                    question_seed: question_seed(0),
                }]
            }
            CorpusKind::Mimic => vec![
                SessionPlan {
                    sql: MIMIC2_SQL.to_string(),
                    group_col: "insurance",
                    question_seed: question_seed(0),
                },
                SessionPlan {
                    sql: MIMIC3_SQL.to_string(),
                    group_col: "los_group",
                    question_seed: question_seed(1),
                },
            ],
            CorpusKind::Synth => vec![SessionPlan {
                sql: SYNTH_SQL.to_string(),
                group_col: "grp",
                question_seed: question_seed(0),
            }],
        };
        CyclePlan {
            corpus: cycle % 2,
            sessions,
        }
    }
}

/// A user question over one group-by column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Question {
    TwoPoint(String, String),
    SinglePoint(String),
}

impl Question {
    pub fn involves(&self, value: &str) -> bool {
        match self {
            Question::TwoPoint(a, b) => a == value || b == value,
            Question::SinglePoint(a) => a == value,
        }
    }

    /// The question's fields of an `ask` request.
    pub fn render(&self, col: &str) -> String {
        match self {
            Question::TwoPoint(a, b) => {
                format!("\"t1\":{{\"{col}\":\"{a}\"}},\"t2\":{{\"{col}\":\"{b}\"}}")
            }
            Question::SinglePoint(a) => format!("\"t\":{{\"{col}\":\"{a}\"}}"),
        }
    }
}

/// Every ordered two-point pair and every single-point question over the
/// answer relation's group values, in seeded order.
pub fn questions(group_values: &[String], seed: u64) -> Vec<Question> {
    let mut out = Vec::with_capacity(group_values.len() * group_values.len());
    for a in group_values {
        for b in group_values {
            if a != b {
                out.push(Question::TwoPoint(a.clone(), b.clone()));
            }
        }
        out.push(Question::SinglePoint(a.clone()));
    }
    out.shuffle(&mut StdRng::seed_from_u64(seed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_under_a_seed_and_differ_across_seeds() {
        for w in &WORKLOADS {
            let a: Vec<CyclePlan> = (0..8).map(|c| w.cycle_plan(3, c)).collect();
            let b: Vec<CyclePlan> = (0..8).map(|c| w.cycle_plan(3, c)).collect();
            assert_eq!(a, b, "{}", w.name);
            assert_eq!(a[0].corpus, 0);
            assert_eq!(a[1].corpus, 1);
            let other: Vec<CyclePlan> = (0..8).map(|c| w.cycle_plan(4, c)).collect();
            assert_ne!(a, other, "{}", w.name);
            assert_ne!(w.corpus_seeds(3), w.corpus_seeds(4));
        }
    }

    #[test]
    fn nba_sessions_walk_the_teams_in_seeded_order() {
        let w = find("nba_cold").unwrap();
        let sqls: std::collections::BTreeSet<String> = (0..30)
            .map(|c| w.cycle_plan(1, c).sessions[0].sql.clone())
            .collect();
        assert_eq!(sqls.len(), 30);
    }

    #[test]
    fn questions_cover_all_pairs_and_singles_in_seeded_order() {
        let values: Vec<String> = ["g0", "g1", "g2", "g3"].map(String::from).to_vec();
        let q = questions(&values, 9);
        assert_eq!(q.len(), 16);
        assert_eq!(q, questions(&values, 9));
        assert_ne!(q, questions(&values, 10));
        assert_eq!(q.iter().filter(|q| q.involves("g0")).count(), 7);
        let two = Question::TwoPoint("a".into(), "b".into());
        assert_eq!(two.render("grp"), r#""t1":{"grp":"a"},"t2":{"grp":"b"}"#);
        let one = Question::SinglePoint("a".into());
        assert_eq!(one.render("grp"), r#""t":{"grp":"a"}"#);
    }
}
