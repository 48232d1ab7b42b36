//! The untraced pass: the end-to-end numbers, taken over pipes from the
//! shipped binary with tracing off.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cajade_service::json::Json;

use crate::calib::Calibrator;
use crate::client::{ProcessUsage, Server};
use crate::cycle::{run_cycle, CycleOptions, Endpoint, OpKind, RunLog};
use crate::workload::Workload;

impl Endpoint for Server {
    fn exchange(&mut self, _kind: OpKind, request: &str) -> Result<(Json, f64), String> {
        Server::exchange(self, request)
    }
}

/// How long the measured part of a round runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole cycles until the next one would overrun this many seconds
    /// (at least two, so both corpora are registered).
    Seconds(f64),
    /// A fixed number of cycles, for runs whose counters must repeat.
    Cycles(usize),
}

/// Where a run finds the server and may write.
#[derive(Debug, Clone)]
pub struct Env {
    pub server: PathBuf,
    /// Scratch directory for CSV corpora; removed when the run ends.
    pub scratch: PathBuf,
}

/// A spawned, registered and warmed server, ready for measured cycles.
pub struct Session<'a> {
    w: &'a Workload,
    seed: u64,
    server: Server,
    corpora: [PathBuf; 2],
    /// Seconds from the start of set-up to the first measured op, at
    /// reference speed.
    pub setup_s: f64,
    /// Ops and check failures of the warm-up cycle.
    pub warm_up: RunLog,
}

impl<'a> Session<'a> {
    /// Set-up: generate both corpora, export them to CSV, spawn the
    /// server and run one unmeasured warm-up cycle (with a single warm
    /// ask and repeat), so the measured cycles all replace a registered
    /// database and run on touched memory.
    pub fn start(
        w: &'a Workload,
        seed: u64,
        first_cycle: usize,
        env: &Env,
        calibrator: &mut Calibrator,
    ) -> Result<Session<'a>, String> {
        let (started, timed) = calibrator.timed(|| {
            let dir = env.scratch.join(format!("{}-{seed}", w.name));
            let corpora = w.export_corpora(seed, &dir)?;
            let mut server = Server::spawn(&env.server)?;
            let warm_up_w = Workload {
                warm_asks: 1,
                repeats: 1,
                ..*w
            };
            // The warm-up registers the corpus the first measured cycle
            // does not.
            let mut plan = warm_up_w.cycle_plan(seed, first_cycle);
            plan.corpus = 1 - plan.corpus;
            let mut warm_up = RunLog::default();
            let opts = CycleOptions::default();
            run_cycle(&mut server, &warm_up_w, &plan, &corpora, opts, &mut warm_up)?;
            Ok::<_, String>((server, corpora, warm_up))
        });
        let (server, corpora, warm_up) = started?;
        Ok(Session {
            w,
            seed,
            server,
            corpora,
            setup_s: timed.seconds(),
            warm_up,
        })
    }

    pub fn run_cycle(
        &mut self,
        cycle: usize,
        opts: CycleOptions,
        log: &mut RunLog,
    ) -> Result<(), String> {
        let plan = self.w.cycle_plan(self.seed, cycle);
        run_cycle(&mut self.server, self.w, &plan, &self.corpora, opts, log)
    }

    /// The server's `stats` response.
    pub fn stats(&mut self) -> Result<Json, String> {
        Ok(self.server.exchange("{\"op\":\"stats\"}")?.0)
    }

    /// Reads the process usage and shuts the server down.
    pub fn finish(self) -> Result<ProcessUsage, String> {
        let usage = self.server.usage();
        self.server.shutdown()?;
        Ok(usage)
    }
}

/// One round against one fresh server.
#[derive(Debug, Default)]
pub struct Round {
    pub log: RunLog,
    pub cycles: usize,
    /// Wall seconds of the measured cycles, at reference speed.
    pub wall_s: f64,
    /// Ops in the measured cycles (the warm-up's are not counted).
    pub measured_ops: usize,
    /// One value per set-up performed.
    pub setup_s: Vec<f64>,
    /// The machine-speed factor of every measured cycle; the samples in
    /// `log` are already divided by it.
    pub speed_factors: Vec<f64>,
}

impl Round {
    pub fn merge(&mut self, other: Round) {
        self.log.merge(other.log);
        self.cycles += other.cycles;
        self.wall_s += other.wall_s;
        self.measured_ops += other.measured_ops;
        self.setup_s.extend(other.setup_s);
        self.speed_factors.extend(other.speed_factors);
    }
}

/// Sets up, runs measured cycles `first_cycle..` under `budget`, and
/// shuts the server down. Every cycle's latencies are brought to
/// reference speed with the factor measured around that cycle.
pub fn run_round(
    w: &Workload,
    seed: u64,
    first_cycle: usize,
    budget: Budget,
    env: &Env,
    calibrator: &mut Calibrator,
) -> Result<Round, String> {
    let mut session = Session::start(w, seed, first_cycle, env, calibrator)?;
    let mut round = Round {
        setup_s: vec![session.setup_s],
        ..Round::default()
    };
    let t0 = Instant::now();
    loop {
        let mut cycle_log = RunLog::default();
        let cycle = first_cycle + round.cycles;
        let (ran, timed) =
            calibrator.timed(|| session.run_cycle(cycle, CycleOptions::default(), &mut cycle_log));
        ran?;
        cycle_log.scale_samples(1.0 / timed.factor);
        round.log.merge(cycle_log);
        round.wall_s += timed.seconds();
        round.speed_factors.push(timed.factor);
        round.cycles += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        let done = match budget {
            Budget::Cycles(n) => round.cycles >= n,
            Budget::Seconds(s) => round.cycles >= 2 && elapsed + elapsed / round.cycles as f64 > s,
        };
        if done {
            break;
        }
    }
    round.measured_ops = round.log.attempted;
    // Warm-up check failures count; its ops are not part of the measured mix.
    round.log.merge_counts(&session.warm_up);
    session.finish()?;
    Ok(round)
}

/// One more set-up, timed and torn down, so a run can report the median
/// of several.
pub fn time_set_up(
    w: &Workload,
    seed: u64,
    env: &Env,
    calibrator: &mut Calibrator,
) -> Result<f64, String> {
    let session = Session::start(w, seed, 1, env, calibrator)?;
    let setup_s = session.setup_s;
    session.finish()?;
    Ok(setup_s)
}

/// Removes a run's scratch directory.
pub fn clean_scratch(scratch: &Path) {
    std::fs::remove_dir_all(scratch).ok();
}
