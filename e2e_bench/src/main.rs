//! `e2e_bench`: one end-to-end benchmark over the shipped `cajade-serve`
//! binary, with per-layer attribution. See `e2e_bench/README.md`.
//!
//! ```text
//! e2e_bench --server BIN --out DIR --workload W --seed N --seconds S --trace 0|1
//! e2e_bench --server BIN --out DIR [--seed N] [--seconds S] [--rounds R]
//! e2e_bench --server BIN --out DIR --check | --smoke
//! ```
//!
//! The first form is the benchmark contract: one workload, one pass, one
//! JSON object as the last line of standard output. The second runs the
//! full set — every workload, both passes, rounds interleaved — prints
//! `workload metric value unit` lines and writes `DIR/results.json`.

mod calib;
mod check;
mod client;
mod cycle;
mod piped;
mod report;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use calib::Calibrator;
use piped::{Budget, Env, Round};
use report::{Reported, WorkloadResult};
use workload::{Workload, WORKLOADS};

// The in-process passes run the service under the allocator the shipped
// binary installs, so their times are comparable with the piped ones.
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;

/// Set-ups a contract run performs, so `setup_s` is a median.
const SETUPS_PER_RUN: usize = 3;

/// Cycle index distance between rounds, so rounds replay disjoint plans.
const ROUND_STRIDE: usize = 500;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One workload, one pass, contract output.
    Contract,
    FullSet,
    Check,
    Smoke,
}

struct Args {
    mode: Mode,
    server: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    rounds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::FullSet,
        server: PathBuf::from("target/release/cajade-serve"),
        out: PathBuf::from("e2e_bench/out"),
        workload: None,
        seed: 1,
        seconds: 20.0,
        rounds: 2,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => args.server = value()?.into(),
            "--out" => args.out = value()?.into(),
            "--workload" => {
                args.workload = Some(value()?);
                args.mode = Mode::Contract;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--rounds" => args.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--trace" => args.trace = value()? == "1",
            "--check" => args.mode = Mode::Check,
            "--smoke" => args.mode = Mode::Smoke,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.rounds == 0 {
        return Err("--seconds and --rounds must be positive".to_string());
    }
    Ok(args)
}

fn report_failures(name: &str, failures: &[String]) {
    for f in failures {
        eprintln!("[{name}] check failed: {f}");
    }
}

/// The contract run: `--trace 0` measures the end-to-end metrics over
/// pipes, `--trace 1` the per-layer ones.
fn run_contract(args: &Args, w: &Workload, env: &Env, trace_out: &Path) -> Result<(), String> {
    let (metrics, attempted, failed): (Vec<Reported>, usize, usize) = if args.trace {
        let pass = traced::run(w, args.seed, env, trace_out)?;
        report_failures(w.name, &pass.failures);
        (report::per_layer(&pass), pass.attempted, pass.failed)
    } else {
        let mut calibrator = Calibrator::new();
        let mut setups = Vec::new();
        for _ in 1..SETUPS_PER_RUN {
            setups.push(piped::time_set_up(w, args.seed, env, &mut calibrator)?);
        }
        let budget = Budget::Seconds(args.seconds);
        let mut round = piped::run_round(w, args.seed, 1, budget, env, &mut calibrator)?;
        round.setup_s.extend(setups);
        report_failures(w.name, &round.log.failures);
        eprintln!(
            "{} speed_factor {:.4} ratio",
            w.name,
            stats::median(&round.speed_factors)
        );
        (
            report::end_to_end(&round)?,
            round.log.attempted,
            round.log.failed,
        )
    };
    for m in &metrics {
        eprintln!("{} {} {:.4} {}", w.name, m.name, m.value, m.unit);
    }
    println!("{}", report::contract_line(&metrics, attempted, failed));
    Ok(())
}

/// One full set: every workload's rounds, interleaved so machine drift
/// spreads over all of them, then every workload's traced pass.
fn run_set(args: &Args, env: &Env, trace_out: &Path) -> Result<Vec<WorkloadResult>, String> {
    let smoke = args.mode == Mode::Smoke;
    let rounds = if smoke { 1 } else { args.rounds };
    let budget = if smoke {
        Budget::Cycles(2)
    } else {
        Budget::Seconds(args.seconds / rounds as f64)
    };
    let mut calibrator = Calibrator::new();
    let mut pooled: Vec<Round> = WORKLOADS.iter().map(|_| Round::default()).collect();
    for r in 0..rounds {
        for (w, pool) in WORKLOADS.iter().zip(&mut pooled) {
            eprintln!("[{}] round {} of {rounds}", w.name, r + 1);
            let first_cycle = 1 + r * ROUND_STRIDE;
            let round = piped::run_round(w, args.seed, first_cycle, budget, env, &mut calibrator)?;
            pool.merge(round);
        }
    }
    let mut results = Vec::new();
    for (w, round) in WORKLOADS.iter().zip(pooled) {
        let mut result = WorkloadResult {
            name: w.name,
            end_to_end: report::end_to_end(&round)?,
            speed_factor: stats::median(&round.speed_factors),
            per_layer: Vec::new(),
            answers_digest: round.log.digest.0,
            attempted: round.log.attempted,
            failed: round.log.failed,
            failures: round.log.failures,
        };
        // The smoke run stops at the piped pass; the traced pass alone
        // takes longer than a smoke test should.
        if !smoke {
            eprintln!("[{}] traced pass", w.name);
            let pass = traced::run(w, args.seed, env, trace_out)?;
            result.per_layer = report::per_layer(&pass);
            result.answers_digest = pass.digest;
            result.attempted += pass.attempted;
            result.failed += pass.failed;
            result.failures.extend(pass.failures);
        }
        report_failures(w.name, &result.failures);
        results.push(result);
    }
    Ok(results)
}

fn write_results(args: &Args, results: &[WorkloadResult]) -> Result<(), String> {
    print!("{}", report::table(results));
    let path = args.out.join("results.json");
    std::fs::write(
        &path,
        report::results_json(args.seed, results).render() + "\n",
    )
    .map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    if !args.server.is_file() {
        return Err(format!(
            "server binary {} is missing; build it with `cargo build --release -p cajade-service`",
            args.server.display()
        ));
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let env = Env {
        server: args.server.clone(),
        scratch: args.out.join(format!("scratch-{}", std::process::id())),
    };
    let trace_out = args.out.join("trace.jsonl");
    std::fs::remove_file(&trace_out).ok();

    let outcome = match args.mode {
        Mode::Contract => {
            let name = args.workload.as_deref().unwrap_or_default();
            match workload::find(name) {
                Some(w) => run_contract(args, w, &env, &trace_out).map(|()| true),
                None => Err(format!("unknown workload `{name}`")),
            }
        }
        Mode::FullSet | Mode::Smoke => run_set(args, &env, &trace_out).and_then(|results| {
            write_results(args, &results)?;
            Ok(results.iter().all(|r| r.failed == 0))
        }),
        Mode::Check => run_set(args, &env, &trace_out).and_then(|first| {
            let second = run_set(args, &env, &trace_out)?;
            write_results(args, &second)?;
            let problems = check::compare_sets(&check::Manifest::read()?, &first, &second);
            for p in &problems {
                eprintln!("check: {p}");
            }
            let correct = first.iter().chain(&second).all(|r| r.failed == 0);
            Ok(problems.is_empty() && correct)
        }),
    };
    piped::clean_scratch(&env.scratch);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e_bench: correctness checks failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
