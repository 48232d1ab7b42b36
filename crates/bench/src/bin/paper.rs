//! `paper` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p cajade-bench --release --bin paper -- <experiment> [flags]
//!
//! experiments:
//!   table1   parameter defaults (Table 1)
//!   fig7     feature-selection runtime breakdown (Fig. 7 / 7a)
//!   fig8     runtime vs λ#edges × λ_F1-samp (Fig. 8)
//!   fig9     scalability in database size (Fig. 9a–d)
//!   fig10a   join-graph APT sizes (Fig. 10a)
//!   fig10be  LCA sample rate vs runtime & top-10 match (Fig. 10b–e)
//!   fig10fg  NDCG / recall vs λ_F1-samp (Fig. 10f–g)
//!   fig11    comparison with Explanation Tables (Fig. 11 + App. A.1)
//!   fig12    runtime across the 10 workload queries (Fig. 12)
//!   fig13    CAPE counterbalances (Fig. 13)
//!   table4   NBA case study (Table 4; --top20 for App. A.2 detail)
//!   table6   MIMIC case study (Table 6; --top20 for App. A.2 detail)
//!   table7   user-study explanation sets (Table 7)
//!   table8   simulated ratings + quality metrics (Table 8; SIMULATED)
//!   table9   ranking quality vs ratings (Table 9; SIMULATED ratings)
//!   ablation design-choice ablations (§3/§4 optimizations)
//!   all      everything above
//!   scope    the library's question-scoped `explain` vs the server's
//!            group-global ask, side by side (docs/ARCHITECTURE.md "Two
//!            scopes, one body"; not in `all`)
//!
//! flags:
//!   --scale <f>   harness scale relative to the paper's scale-1.0
//!                 datasets (default 0.25)
//!   --edges <n>   λ#edges (default 2; paper default 3)
//!   --full        paper-scale: --scale 1.0 --edges 3 + full sweeps
//!   --top20       case studies print top-20 with join-graph detail
//! ```
//!
//! Absolute runtimes will differ from the paper's hardware; the *shape*
//! (which phase dominates, scaling slopes, who wins by how much) is the
//! reproduction target. README § "Paper experiment harness" has the
//! breakdown rows' caveats.

use std::time::Instant;

use cajade_baselines::{explain_outlier, CapeQuestion, Direction, EtConfig, ExplanationTables};
use cajade_bench::tablefmt::{secs, Table};
use cajade_bench::user_study::{
    build_study_explanations, most_controversial, rank_quality, simulate_ratings, table8,
    StudyExplanation,
};
use cajade_bench::workloads::{
    mimic_case_questions, mimic_db, mimic_queries, nba_case_questions, nba_db, nba_queries,
    CaseQuestion, Workload,
};
use cajade_core::{
    pipeline, Explanation, ExplanationSession, Params, SessionResult, SessionTimings, UserQuestion,
};
use cajade_datagen::synth::{self, SynthConfig, SYNTH_SQL};
use cajade_datagen::{scale::duplicate_scale, GeneratedDb};
use cajade_graph::{Apt, AptBuilder};
use cajade_metrics::{dcg, mean, top_k_overlap};
use cajade_mining::{lca_candidates, mine_apt, Question, Scorer, SelAttr};
use cajade_query::{parse_sql, ProvenanceTable};
use cajade_service::{ExplanationService, ServiceConfig};

#[derive(Debug, Clone)]
struct Args {
    experiment: String,
    scale: f64,
    edges: usize,
    full: bool,
    top20: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        experiment: argv.first().cloned().unwrap_or_else(|| "all".into()),
        scale: 0.25,
        edges: 2,
        full: false,
        top20: false,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                args.scale = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(0.25);
            }
            "--edges" => {
                i += 1;
                args.edges = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(2);
            }
            "--full" => {
                args.full = true;
                args.scale = 1.0;
                args.edges = 3;
            }
            "--top20" => args.top20 = true,
            other => eprintln!("ignoring unknown flag `{other}`"),
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    if cfg!(debug_assertions) {
        eprintln!("WARNING: debug build — run with --release for meaningful timings\n");
    }
    println!(
        "# CaJaDE evaluation harness — experiment `{}` (scale {}, λ#edges {})\n",
        args.experiment, args.scale, args.edges
    );
    match args.experiment.as_str() {
        "table1" => table1(&args),
        "fig7" => fig7(&args),
        "fig8" => fig8(&args),
        "fig9" => fig9(&args),
        "fig10a" => fig10a(&args),
        "fig10be" => fig10be(&args),
        "fig10fg" => fig10fg(&args),
        "fig11" => fig11(&args),
        "fig12" => fig12(&args),
        "fig13" => fig13(&args),
        "table4" => table4(&args),
        "table6" => table6(&args),
        "table7" => table7(&args),
        "table8" => table8_cmd(&args),
        "table9" => table9_cmd(&args),
        "ablation" => ablation(&args),
        "scope" => scope(&args),
        "all" => {
            table1(&args);
            fig7(&args);
            fig8(&args);
            fig9(&args);
            fig10a(&args);
            fig10be(&args);
            fig10fg(&args);
            fig11(&args);
            fig12(&args);
            fig13(&args);
            table4(&args);
            table6(&args);
            table7(&args);
            table8_cmd(&args);
            table9_cmd(&args);
            ablation(&args);
        }
        other => {
            eprintln!("unknown experiment `{other}` — see the module docs");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------- helpers

fn harness_params(args: &Args) -> Params {
    let mut p = Params::paper();
    p.max_edges = args.edges;
    p.mining.forest_trees = 10;
    // Bound per-APT pattern evaluations: the timing experiments mine
    // dozens of graphs per query and the paper's own λ's keep the search
    // bounded through feature selection.
    p.mining.max_patterns = 30_000;
    p
}

fn find_workload(id: &str) -> Workload {
    nba_queries()
        .into_iter()
        .chain(mimic_queries())
        .find(|w| w.id == id)
        .unwrap_or_else(|| panic!("unknown workload {id}"))
}

fn find_case(id: &str) -> CaseQuestion {
    nba_case_questions()
        .into_iter()
        .chain(mimic_case_questions())
        .find(|c| c.query_id == id)
        .unwrap_or_else(|| panic!("no case question for {id}"))
}

fn run_case(gen: &GeneratedDb, cq: &CaseQuestion, params: Params) -> SessionResult {
    let w = find_workload(cq.query_id);
    let session = ExplanationSession::new(&gen.db, &gen.schema_graph, params);
    session
        .explain(&w.query(), &UserQuestion::two_point(&[cq.t1], &[cq.t2]))
        .unwrap_or_else(|e| panic!("{}: {e}", cq.query_id))
}

// ------------------------------------------------------------ experiments

fn table1(_args: &Args) {
    println!("## Table 1 — parameters and defaults\n");
    let mut t = Table::new(&["parameter", "default"]);
    for (k, v) in Params::paper().table1_rows() {
        t.row(vec![k, v]);
    }
    println!("{}", t.render());
}

/// Fig. 7 / 7a: runtime breakdown with feature selection at λ_F1-samp ∈
/// {0.1, 0.3, 0.5, 1.0} vs. without feature selection.
fn fig7(args: &Args) {
    for (name, gen, cq) in [
        (
            "NBA (Fig. 7a shape)",
            nba_db(args.scale),
            find_case("Q_nba4"),
        ),
        (
            "MIMIC (Fig. 7 shape)",
            mimic_db(args.scale),
            find_case("Q_mimic4"),
        ),
    ] {
        println!("## Figure 7 — feature selection, {name}\n");
        let rates = [0.1, 0.3, 0.5, 1.0];
        let mut columns: Vec<(String, SessionTimings)> = Vec::new();
        for rate in rates {
            let p = harness_params(args).with_f1_sample_rate(rate);
            let r = run_case(&gen, &cq, p);
            columns.push((format!("FS, λF1={rate}"), r.timings));
        }
        let p = harness_params(args)
            .with_f1_sample_rate(0.3)
            .with_feature_selection(false);
        let r = run_case(&gen, &cq, p);
        columns.push(("w/o FS".into(), r.timings));

        let mut header: Vec<String> = vec!["step".into()];
        header.extend(columns.iter().map(|(n, _)| n.clone()));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(&header_refs);
        for (i, (step, _)) in columns[0].1.breakdown_rows().iter().enumerate() {
            let mut row = vec![step.to_string()];
            for (_, timings) in &columns {
                row.push(secs(timings.breakdown_rows()[i].1));
            }
            t.row(row);
        }
        let mut total = vec!["total".to_string()];
        for (_, timings) in &columns {
            total.push(secs(timings.total()));
        }
        t.row(total);
        println!("{}", t.render());
    }
}

/// Fig. 8: total runtime varying λ#edges × λ_F1-samp (NBA, Q1).
fn fig8(args: &Args) {
    println!("## Figure 8 — varying λ#edges and λ_F1-samp (NBA Q1)\n");
    let gen = nba_db(args.scale);
    let cq = find_case("Q_nba4");
    let rates = [0.1, 0.3, 0.5, 1.0];
    let max_edges = if args.full { 3 } else { args.edges.max(2) };
    let mut t = Table::new(&[
        "λ#edges",
        "graphs mined",
        "λF1=0.1",
        "λF1=0.3",
        "λF1=0.5",
        "λF1=1.0",
    ]);
    for edges in 1..=max_edges {
        let mut row = vec![edges.to_string(), String::new()];
        for rate in rates {
            let mut p = harness_params(args).with_f1_sample_rate(rate);
            p.max_edges = edges;
            let r = run_case(&gen, &cq, p);
            row[1] = r.num_graphs_mined.to_string();
            row.push(secs(r.timings.total()));
        }
        t.row(row);
    }
    println!("{}", t.render());
}

/// Fig. 9: scalability in database size.
fn fig9(args: &Args) {
    let scales: Vec<f64> = if args.full {
        vec![0.1, 0.5, 1.0, 2.0, 4.0, 8.0]
    } else {
        vec![0.25, 0.5, 1.0, 2.0]
            .into_iter()
            .map(|s| s * args.scale)
            .collect()
    };
    let rates = [0.1, 0.3, 0.7];
    for dataset in ["NBA", "MIMIC"] {
        println!("## Figure 9 — scalability, {dataset}\n");
        let mut t = {
            let mut header = vec!["scale".to_string(), "total rows".to_string()];
            header.extend(rates.iter().map(|r| format!("λF1={r}")));
            let refs: Vec<&str> = header.iter().map(String::as_str).collect();
            Table::new(&refs)
        };
        let mut last_breakdown: Option<SessionTimings> = None;
        for &s in &scales {
            let gen = build_scaled(dataset, s);
            let cq = find_case(if dataset == "NBA" {
                "Q_nba4"
            } else {
                "Q_mimic4"
            });
            let mut row = vec![format!("{s}"), gen.db.total_rows().to_string()];
            for &rate in &rates {
                let p = harness_params(args).with_f1_sample_rate(rate);
                let r = run_case(&gen, &cq, p);
                row.push(secs(r.timings.total()));
                if (rate - 0.7).abs() < 1e-9 {
                    last_breakdown = Some(r.timings);
                }
            }
            t.row(row);
        }
        println!("{}", t.render());
        if let Some(b) = last_breakdown {
            println!(
                "breakdown at the largest scale, λF1=0.7 (Fig. 9c/9d shape):\n{}",
                b.render()
            );
        }
    }
}

/// Integer up-scales ≥ 2 use the paper's duplicate-with-remapped-keys
/// procedure; fractional scales regenerate at size.
fn build_scaled(dataset: &str, s: f64) -> GeneratedDb {
    let near_int = (s - s.round()).abs() < 1e-9 && s >= 2.0;
    if near_int {
        let base = if dataset == "NBA" {
            nba_db(1.0)
        } else {
            mimic_db(1.0)
        };
        duplicate_scale(&base, s.round() as usize)
    } else if dataset == "NBA" {
        nba_db(s)
    } else {
        mimic_db(s)
    }
}

/// Fig. 10a: APT sizes for representative join graphs — the first four
/// valid graphs of each case query's enumeration that λ_qcost admits,
/// materialized and not mined.
fn fig10a(args: &Args) {
    println!("## Figure 10a — join-graph APT sizes\n");
    let mut t = Table::new(&["dataset", "join graph", "APT rows", "# attributes"]);
    let params = harness_params(args);
    for (name, gen, id) in [
        ("NBA", nba_db(args.scale), "Q_nba4"),
        ("MIMIC", mimic_db(args.scale), "Q_mimic4"),
    ] {
        let query = find_workload(id).query();
        let prepared = pipeline::prepare(&gen.db, &gen.schema_graph, &query, &params)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let builder = AptBuilder::new(&gen.db, &prepared.pt, &prepared.graphs, params.max_cost);
        let apts = (prepared.valid_graph_indices().into_iter()).filter_map(|gi| {
            builder
                .materialize(gi)
                .unwrap_or_else(|e| panic!("{id}: {e}"))
        });
        for apt in apts.take(4) {
            t.row(vec![
                name.to_string(),
                apt.graph.structure_string(),
                apt.num_rows.to_string(),
                apt.fields.len().to_string(),
            ]);
        }
    }
    println!("{}", t.render());
}

/// Fig. 10b–e: LCA sample rate vs runtime and top-10 pattern match.
fn fig10be(args: &Args) {
    println!("## Figure 10b–e — LCA sampling (runtime quadratic in sample size)\n");
    for (name, gen, cq, want_graph) in [
        (
            "Ω1 (NBA, PT only)",
            nba_db(args.scale),
            find_case("Q_nba4"),
            "PT",
        ),
        (
            "Ω2 (NBA, PT - player_salary - player)",
            nba_db(args.scale),
            find_case("Q_nba4"),
            "player_salary",
        ),
        (
            "Ω3 (MIMIC, PT only)",
            mimic_db(args.scale),
            find_case("Q_mimic4"),
            "PT",
        ),
        (
            "Ω4 (MIMIC, PT - patients_admit_info - patients)",
            mimic_db(args.scale),
            find_case("Q_mimic4"),
            "patients_admit_info",
        ),
    ] {
        let w = find_workload(cq.query_id);
        let query = w.query();
        let pt = ProvenanceTable::compute(&gen.db, &query).unwrap();
        let graphs = cajade_graph::enumerate_join_graphs(
            &gen.schema_graph,
            &gen.db,
            &query,
            pt.num_rows,
            &cajade_graph::EnumConfig {
                max_edges: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let target = graphs
            .iter()
            .filter(|g| g.valid)
            .find(|g| {
                if want_graph == "PT" {
                    g.graph.num_edges() == 0
                } else {
                    g.graph.structure_string().contains(want_graph)
                }
            })
            .map(|g| g.graph.clone());
        let Some(graph) = target else {
            println!("({name}: target join graph not found — skipped)\n");
            continue;
        };
        let apt = Apt::materialize(&gen.db, &pt, &graph).unwrap();
        println!(
            "### {name}: APT {} rows × {} attrs",
            apt.num_rows,
            apt.fields.len()
        );

        let cat_fields: Vec<usize> = apt
            .pattern_fields()
            .into_iter()
            .filter(|&f| apt.fields[f].kind == cajade_storage::AttrKind::Categorical)
            .collect();
        let scorer = Scorer::exact(&apt, &pt);
        let t1 = pt.find_group(&gen.db, &query, &[cq.t1]).unwrap();
        let t2 = pt.find_group(&gen.db, &query, &[cq.t2]).unwrap();
        let top10 = |rows: &[u32]| -> Vec<String> {
            let mut scored: Vec<(String, f64)> = lca_candidates(&apt, rows, &cat_fields)
                .into_iter()
                .map(|p| {
                    let recall = scorer
                        .score(&p, t1, Some(t2))
                        .recall
                        .max(scorer.score(&p, t2, Some(t1)).recall);
                    (p.render(&apt, gen.db.pool()), recall)
                })
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            scored.into_iter().take(10).map(|(s, _)| s).collect()
        };

        let all_rows: Vec<u32> = (0..apt.num_rows as u32).collect();
        let cap = 2000.min(all_rows.len());
        let truth = top10(&all_rows[..cap]);

        let mut t = Table::new(&["sample rate", "rows", "time (s)", "top-10 match"]);
        for rate in [0.03, 0.05, 0.1, 0.2, 0.4] {
            let rows = cajade_ml::sampling::bernoulli_sample(cap, rate, 0xF16);
            let sample: Vec<u32> = rows.iter().map(|&i| all_rows[i]).collect();
            let t0 = Instant::now();
            let predicted = top10(&sample);
            let elapsed = t0.elapsed();
            t.row(vec![
                rate.to_string(),
                sample.len().to_string(),
                secs(elapsed),
                top_k_overlap(&truth, &predicted, 10).to_string(),
            ]);
        }
        println!("{}", t.render());
    }
}

/// Fig. 10f–g: NDCG and top-10 recall of sampled F-score ranking vs the
/// full-data ranking, per λ#edges, beside the mean exact F of the truth's
/// top-10 and of each sampled top-10 (every returned explanation's F is
/// re-scored over all rows): the identity key counts a threshold one
/// fragment away as a miss, the mean F shows what such a miss costs.
fn fig10fg(args: &Args) {
    println!("## Figure 10f–g — ranking quality under λ_F1-samp\n");
    for (name, gen, cq) in [
        ("NBA", nba_db(args.scale), find_case("Q_nba4")),
        ("MIMIC", mimic_db(args.scale), find_case("Q_mimic4")),
    ] {
        let max_edges = if args.full { 3 } else { 2 };
        for edges in 1..=max_edges {
            let key_list = |r: &SessionResult| -> Vec<String> {
                r.explanations
                    .iter()
                    .map(|e| format!("{}|{}", e.pattern_desc, e.primary))
                    .take(10)
                    .collect()
            };
            // An empty top-10 has no mean F: "—", not a 0 it did not score.
            let mean_f = |r: &SessionResult| -> String {
                let top: Vec<f64> = (r.explanations.iter().take(10))
                    .map(|e| e.metrics.f_score)
                    .collect();
                match top.len() {
                    0 => "—".to_string(),
                    n => format!("{:.3}", top.iter().sum::<f64>() / n as f64),
                }
            };
            let mut p = harness_params(args).with_f1_sample_rate(1.0);
            p.max_edges = edges;
            let full = run_case(&gen, &cq, p);
            let (truth, truth_f) = (key_list(&full), mean_f(&full));

            let mut t = Table::new(&[
                "λF1-samp",
                "NDCG",
                "top-10 recall",
                "truth mean F",
                "mean F",
            ]);
            for rate in [0.1, 0.3, 0.5, 0.7] {
                let mut p = harness_params(args).with_f1_sample_rate(rate);
                p.max_edges = edges;
                let sampled = run_case(&gen, &cq, p);
                let predicted = key_list(&sampled);
                t.row(vec![
                    rate.to_string(),
                    format!("{:.3}", ndcg_against(&truth, &predicted)),
                    format!("{:.2}", top_k_overlap(&truth, &predicted, 10) as f64 / 10.0),
                    truth_f.clone(),
                    mean_f(&sampled),
                ]);
            }
            println!("### {name}, λ#edges={edges}\n{}", t.render());
        }
    }
}

/// NDCG of a sampled top-k against the full-data top-k: a pattern at
/// position `pos` of `truth` is worth `k − pos`, one outside it 0, and
/// the ideal is `truth` itself, so a list sharing nothing with the
/// truth (or an empty one) scores 0 and the truth scores 1. An empty
/// truth scores 1.
fn ndcg_against(truth: &[String], predicted: &[String]) -> f64 {
    let k = truth.len();
    let worth = |pos: usize| (k - pos) as f64;
    let ideal = dcg(&(0..k).map(worth).collect::<Vec<_>>());
    if ideal <= 0.0 {
        return 1.0;
    }
    let gains: Vec<f64> = predicted
        .iter()
        .map(|p| truth.iter().position(|t| t == p).map_or(0.0, worth))
        .collect();
    let found = dcg(&gains);
    if found <= 0.0 {
        return 0.0;
    }
    (found / ideal).min(1.0)
}

/// Fig. 11 + App. A.1: Explanation Tables comparison.
fn fig11(args: &Args) {
    println!("## Figure 11 — comparison with Explanation Tables (ET)\n");
    let gen = nba_db(args.scale);
    let cq = find_case("Q_nba4");
    let w = find_workload(cq.query_id);
    let query = w.query();
    let pt = ProvenanceTable::compute(&gen.db, &query).unwrap();
    let t1 = pt.find_group(&gen.db, &query, &[cq.t1]).unwrap();
    let t2 = pt.find_group(&gen.db, &query, &[cq.t2]).unwrap();

    // The paper's comparison APT: PT - player_game_stats - player.
    let graphs = cajade_graph::enumerate_join_graphs(
        &gen.schema_graph,
        &gen.db,
        &query,
        pt.num_rows,
        &cajade_graph::EnumConfig {
            max_edges: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let graph = graphs
        .iter()
        .filter(|g| g.valid)
        .find(|g| {
            let s = g.graph.structure_string();
            s.contains("player_game_stats") && s.contains("player")
        })
        .map(|g| g.graph.clone())
        .expect("PT - player_game_stats - player graph");
    let apt = Apt::materialize(&gen.db, &pt, &graph).unwrap();
    println!(
        "APT: {} ({} rows × {} attrs)\n",
        graph.structure_string(),
        apt.num_rows,
        apt.fields.len()
    );
    let outcome: Vec<bool> = (0..apt.num_rows)
        .map(|r| pt.group_of[apt.pt_row[r] as usize] as usize == t1)
        .collect();

    let mut t = Table::new(&["sample size", "CaJaDE (s)", "ET (s)"]);
    let mut last_et = None;
    for sample_size in [16usize, 64, 256, 512] {
        let mut mp = harness_params(args).mining;
        mp.lambda_pat_samp = 1.0;
        mp.pat_samp_cap = sample_size;
        mp.lambda_f1_samp = 0.3;
        let t0 = Instant::now();
        let _ = mine_apt(&apt, &pt, &Question::TwoPoint { t1, t2 }, &mp);
        let cajade_time = t0.elapsed();

        let cfg = EtConfig {
            sample_size,
            num_patterns: 20,
            ..Default::default()
        };
        let t0 = Instant::now();
        let et = ExplanationTables::fit(&apt, &outcome, &cfg);
        let et_time = t0.elapsed();
        t.row(vec![
            sample_size.to_string(),
            secs(cajade_time),
            secs(et_time),
        ]);
        last_et = Some((et, cfg));
    }
    println!("{}", t.render());

    if let Some((et, cfg)) = last_et {
        println!("first ET patterns at sample 512 (App. A.1 shape):");
        for (i, desc) in et
            .render(&apt, gen.db.pool(), &cfg)
            .iter()
            .take(10)
            .enumerate()
        {
            println!("  {:>2}. {desc}", i + 1);
        }
        println!();
    }
}

/// Fig. 12: runtime across the ten workload queries.
fn fig12(args: &Args) {
    println!(
        "## Figure 12 — varying queries (λF1=0.3, λ#edges={})\n",
        args.edges
    );
    let nba = nba_db(args.scale);
    let mimic = mimic_db(args.scale);
    let mut t = Table::new(&["query", "join graphs", "mined", "runtime (s)"]);
    for cq in nba_case_questions() {
        let r = run_case(&nba, &cq, harness_params(args).with_f1_sample_rate(0.3));
        t.row(vec![
            cq.query_id.to_string(),
            r.num_graphs_enumerated.to_string(),
            r.num_graphs_mined.to_string(),
            secs(r.timings.total()),
        ]);
    }
    for cq in mimic_case_questions() {
        let r = run_case(&mimic, &cq, harness_params(args).with_f1_sample_rate(0.3));
        t.row(vec![
            cq.query_id.to_string(),
            r.num_graphs_enumerated.to_string(),
            r.num_graphs_mined.to_string(),
            secs(r.timings.total()),
        ]);
    }
    println!("{}", t.render());
}

/// Fig. 13: CAPE's counterbalance explanations.
fn fig13(args: &Args) {
    println!("## Figure 13 — CAPE explanations (counterbalances)\n");
    let gen = nba_db(args.scale);
    for (uq, wid, col, sel, dir) in [
        (
            "UQ_cape1: why was GSW's win count HIGH in 2015-16?",
            "Q_nba4",
            "win",
            ("season_name", "2015-16"),
            Direction::High,
        ),
        (
            "UQ_cape2: why were LeBron's average points LOW in 2010-11?",
            "Q_nba3",
            "avg_pts",
            ("season_name", "2010-11"),
            Direction::Low,
        ),
    ] {
        let w = find_workload(wid);
        let result = cajade_query::execute(&gen.db, &w.query()).unwrap();
        let row = result.find_row(&gen.db, &[sel]).expect("question tuple");
        let expl = explain_outlier(
            &gen.db,
            &result,
            col,
            &CapeQuestion {
                row,
                direction: dir,
            },
            3,
        );
        println!("### {uq}");
        for (i, e) in expl.iter().enumerate() {
            println!("  {}. {} (residual {:+.2})", i + 1, e.rendered, e.residual);
        }
        println!();
    }
    println!(
        "CAPE returns opposite-direction outliers — orthogonal to CaJaDE's\n\
         context explanations (the paper's §5.6 takeaway).\n"
    );
}

fn case_params(args: &Args, cq: &CaseQuestion) -> Params {
    let mut p = Params::case_study();
    p.max_edges = args.edges;
    p.mining.forest_trees = 10;
    p.mining.lambda_f1_samp = 1.0; // exact metrics for the quality tables
    p.mining.banned_attrs = cq.banned.iter().map(|s| s.to_string()).collect();
    // Keep the per-graph search bounded: the wider λ#sel-attr=8 budget
    // explodes refinement otherwise.
    p.mining.num_frags = 4;
    p.mining.k_cat_patterns = 15;
    p.mining.max_patterns = 20_000;
    p.mining.top_k = 10;
    p
}

fn print_case_study(args: &Args, name: &str, gen: &GeneratedDb, cases: Vec<CaseQuestion>) {
    println!("## {name}\n");
    for cq in cases {
        let r = run_case(gen, &cq, case_params(args, &cq));
        println!("### {} — {}", cq.query_id, cq.description);
        let take = if args.top20 { 20 } else { 3 };
        for (i, e) in r.explanations.iter().take(take).enumerate() {
            println!("  {:>2}. {}", i + 1, e.render_line());
            if args.top20 {
                for edge in &e.graph_edges {
                    println!("      ⋈ {edge}");
                }
            }
        }
        println!();
    }
}

/// Table 4 (+ App. Figures 17–21 with --top20).
fn table4(args: &Args) {
    let gen = nba_db(args.scale);
    print_case_study(args, "Table 4 — NBA case study", &gen, nba_case_questions());
}

/// Table 6 (+ App. Figures 22–24 with --top20).
fn table6(args: &Args) {
    let gen = mimic_db(args.scale);
    print_case_study(
        args,
        "Table 6 — MIMIC case study",
        &gen,
        mimic_case_questions(),
    );
}

fn study_inputs(args: &Args) -> (Vec<StudyExplanation>, Vec<Vec<f64>>) {
    let gen = nba_db(args.scale);
    let w = find_workload("Q_nba4");
    let explanations = build_study_explanations(&gen, &w.query());
    let ratings = simulate_ratings(&explanations, 20, 5, 0x57D);
    (explanations, ratings)
}

/// Table 7: the ten explanations shown to raters.
fn table7(args: &Args) {
    println!("## Table 7 — user-study explanation sets (UQ1)\n");
    let (explanations, _) = study_inputs(args);
    println!("Provenance-based explanations:");
    for e in explanations.iter().filter(|e| !e.cajade_arm) {
        println!("  {}: {}", e.label, e.description);
    }
    println!("\nCaJaDE explanations:");
    for e in explanations.iter().filter(|e| e.cajade_arm) {
        println!("  {}: {}", e.label, e.description);
    }
    println!();
}

/// Table 8: simulated ratings + the explanations' quality metrics.
fn table8_cmd(args: &Args) {
    println!("## Table 8 — ratings (SIMULATED raters; see user_study docs) + metrics\n");
    let (explanations, ratings) = study_inputs(args);
    let t8 = table8(&ratings, 5);
    let mut t = Table::new(&[
        "",
        "mean(all)",
        "stdev",
        "mean(fans)",
        "mean(other)",
        "F-score",
        "recall",
        "precision",
    ]);
    for (e, row) in explanations.iter().zip(&t8.rows) {
        t.row(vec![
            e.label.clone(),
            format!("{:.2}", row.0),
            format!("{:.2}", row.1),
            format!("{:.2}", row.2),
            format!("{:.2}", row.3),
            format!("{:.2}", e.f_score),
            format!("{:.2}", e.recall),
            format!("{:.2}", e.precision),
        ]);
    }
    println!("{}", t.render());
    let cajade_mean = arm_mean(&t8.rows, &explanations, true);
    let prov_mean = arm_mean(&t8.rows, &explanations, false);
    println!(
        "arm means: CaJaDE {:.2} vs provenance-based {:.2}\n",
        cajade_mean, prov_mean
    );
}

fn arm_mean(rows: &[(f64, f64, f64, f64)], expl: &[StudyExplanation], cajade_arm: bool) -> f64 {
    let v: Vec<f64> = rows
        .iter()
        .zip(expl)
        .filter(|(_, e)| e.cajade_arm == cajade_arm)
        .map(|(r, _)| r.0)
        .collect();
    mean(&v)
}

/// Table 9: Kendall-tau / NDCG of metric-based rankings vs ratings.
fn table9_cmd(args: &Args) {
    println!("## Table 9 — ranking quality vs (SIMULATED) ratings\n");
    let (explanations, ratings) = study_inputs(args);
    let prov_idx: Vec<usize> = (0..explanations.len())
        .filter(|&i| !explanations[i].cajade_arm)
        .collect();
    let caj_idx: Vec<usize> = (0..explanations.len())
        .filter(|&i| explanations[i].cajade_arm)
        .collect();

    let metric =
        |f: fn(&StudyExplanation) -> f64| -> Vec<f64> { explanations.iter().map(f).collect() };
    let metrics: [(&str, Vec<f64>); 3] = [
        ("F-score", metric(|e| e.f_score)),
        ("recall", metric(|e| e.recall)),
        ("precision", metric(|e| e.precision)),
    ];

    let mut t = Table::new(&["metric", "arm", "Kendall pairs (All/-1)", "NDCG (All/-1)"]);
    for (name, scores) in &metrics {
        for (arm, idx) in [("prov", &prov_idx), ("CaJaDE", &caj_idx)] {
            let all = rank_quality(&ratings, scores, idx);
            let drop = most_controversial(&ratings, idx);
            let reduced: Vec<usize> = idx.iter().copied().filter(|&i| i != drop).collect();
            let minus1 = rank_quality(&ratings, scores, &reduced);
            t.row(vec![
                name.to_string(),
                arm.to_string(),
                format!("{:.2} / {:.2}", all.kendall_pairs, minus1.kendall_pairs),
                format!("{:.3} / {:.3}", all.ndcg, minus1.ndcg),
            ]);
        }
    }
    println!("{}", t.render());
}

/// Design-choice ablations: the §3/§4 optimizations toggled one at a time.
fn ablation(args: &Args) {
    println!("## Ablations — design choices (NBA Q1)\n");
    let gen = nba_db(args.scale);
    let cq = find_case("Q_nba4");

    let baseline = harness_params(args).with_f1_sample_rate(0.3);
    let base_run = run_case(&gen, &cq, baseline.clone());
    let truth: Vec<String> = base_run
        .explanations
        .iter()
        .take(10)
        .map(|e| format!("{}|{}", e.pattern_desc, e.primary))
        .collect();

    let mut variants: Vec<(&str, Params)> = vec![("baseline", baseline.clone())];
    variants.push((
        "no feature selection",
        baseline.clone().with_feature_selection(false),
    ));
    variants.push((
        "no F1 sampling (λF1=1)",
        baseline.clone().with_f1_sample_rate(1.0),
    ));
    let mut v = baseline.clone();
    v.mining.lambda_recall = 0.0;
    variants.push(("no recall pruning", v));
    let mut v = baseline.clone();
    v.check_pk_coverage = false;
    variants.push(("no PK-coverage check", v));
    let mut v = baseline.clone();
    v.collapse_near_duplicates = false;
    variants.push(("no duplicate collapse", v));
    let mut v = baseline.clone();
    v.mining.sel_attr = SelAttr::Count(6);
    variants.push(("λ#sel-attr = 6", v));

    let mut t = Table::new(&[
        "variant",
        "graphs mined",
        "patterns eval.",
        "runtime (s)",
        "top-10 overlap vs baseline",
    ]);
    for (name, params) in variants {
        let r = run_case(&gen, &cq, params);
        let predicted: Vec<String> = r
            .explanations
            .iter()
            .take(10)
            .map(|e| format!("{}|{}", e.pattern_desc, e.primary))
            .collect();
        t.row(vec![
            name.to_string(),
            r.num_graphs_mined.to_string(),
            r.patterns_evaluated.to_string(),
            secs(r.timings.total()),
            top_k_overlap(&truth, &predicted, 10).to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// Algorithm 1's two preparation scopes on the same questions: the
/// library's `ExplanationSession::explain` (feature selection and LCA
/// sample on the question's rows) against a cold ask of an
/// `ExplanationService` under the same `Params` (each graph prepared once
/// for every output group, with the registration's base-column
/// statistics — the server's answer). `Params::paper()` at `--edges`, the
/// case questions with their ban lists plus the synthetic corpus's
/// planted `g0` story.
fn scope(args: &Args) {
    println!("## Scope — question-scoped (q) vs group-global (g) preparation\n");
    let mut t = Table::new(&[
        "question",
        "shared top-1/5/20",
        "mean F@1/5/20 (q)",
        "mean F@1/5/20 (g)",
        "returned q/g",
        "patterns evaluated q/g",
    ]);
    let mut compare = |name: String, gen: &GeneratedDb, sql: &str, asked, banned: &[&str]| {
        let mut params = Params::paper().with_max_edges(args.edges);
        params.mining.banned_attrs = banned.iter().map(|s| s.to_string()).collect();
        let library = ExplanationSession::new(&gen.db, &gen.schema_graph, params.clone());
        let q = library.explain(&parse_sql(sql).unwrap(), &asked).unwrap();
        let service = ExplanationService::new(ServiceConfig {
            params,
            ..ServiceConfig::default()
        });
        service.register_database("db", gen.db.clone(), gen.schema_graph.clone());
        let session = service.open_session("db", sql).unwrap();
        let g = session.ask(&asked).unwrap().result;
        let keys = |ranked: &[Explanation]| -> Vec<String> {
            let parts = ranked
                .iter()
                .map(|e| [&e.pattern_desc, &e.graph_structure, &e.primary]);
            parts.map(|p| format!("{p:?}")).collect()
        };
        let at = |f: &dyn Fn(usize) -> String| [1, 5, 20].map(f).join(" / ");
        let mean_f = |ranked: &[Explanation], k: usize| {
            let top: Vec<f64> = ranked.iter().take(k).map(|e| e.metrics.f_score).collect();
            format!("{:.3}", mean(&top))
        };
        let (qe, ge) = (&q.explanations, &g.explanations);
        t.row(vec![
            name,
            at(&|k| top_k_overlap(&keys(qe), &keys(ge), k).to_string()),
            at(&|k| mean_f(qe, k)),
            at(&|k| mean_f(ge, k)),
            format!("{} / {}", qe.len(), ge.len()),
            format!("{} / {}", q.patterns_evaluated, g.patterns_evaluated),
        ]);
    };

    let (nba, mimic) = (nba_db(args.scale), mimic_db(args.scale));
    let paper_cases = nba_case_questions().into_iter().map(|cq| (&nba, cq));
    for (gen, cq) in paper_cases.chain(mimic_case_questions().into_iter().map(|cq| (&mimic, cq))) {
        let asked = UserQuestion::two_point(&[cq.t1], &[cq.t2]);
        let sql = find_workload(cq.query_id).sql;
        compare(cq.query_id.to_string(), gen, sql, asked, cq.banned);
    }
    for (tables, columns) in [(3, 4), (4, 6)] {
        let gen = synth::generate(&SynthConfig::small().with_width(tables, columns));
        let (g0, g1) = ([("grp", "g0")], [("grp", "g1")]);
        let name = format!("synth {tables}x{columns} g0");
        let two_point = UserQuestion::two_point(&g0, &g1);
        compare(format!("{name}/g1"), &gen, SYNTH_SQL, two_point, &[]);
        compare(name, &gen, SYNTH_SQL, UserQuestion::single_point(&g0), &[]);
    }
    println!("{}", t.render());
}

#[cfg(test)]
mod tests {
    use super::ndcg_against;

    fn keys(ks: &[&str]) -> Vec<String> {
        ks.iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn ndcg_is_normalized_by_the_truth_list() {
        let truth = keys(&["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"]);
        assert_eq!(ndcg_against(&truth, &truth), 1.0);
        let disjoint = keys(&["k", "l", "m", "n", "o", "p", "q", "r", "s", "t"]);
        assert_eq!(ndcg_against(&truth, &disjoint), 0.0);
        assert_eq!(
            ndcg_against(&truth, &[]).to_string(),
            "0",
            "no negative zero"
        );
        // The truth's tail alone is worth little, not a perfect 1.
        let tail = keys(&["j", "i"]);
        let partial = ndcg_against(&truth, &tail);
        assert!(partial > 0.0 && partial < 0.1, "{partial}");
        assert_eq!(ndcg_against(&[], &disjoint), 1.0);
    }
}
