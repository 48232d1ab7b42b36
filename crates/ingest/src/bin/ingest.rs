//! `cajade-ingest` — one-shot command line for the ingestion subsystem:
//! point it at a CSV directory, get the inferred schema, discovered
//! joins, and (optionally) ranked explanations for a question.
//!
//! ```text
//! cajade-ingest <dir>                          # ingest + report
//! cajade-ingest <dir> --sql "SELECT ..."       # + run the query
//! cajade-ingest <dir> --sql "..." \
//!     --t1 channel=online --t2 channel=in_person   # + explain
//! ```
//!
//! Flags: `--strict` (error on post-sample type contradictions instead
//! of coercing to NULL), `--max-joins <n>`, `--name <db>`, `--top <k>`.

#![deny(clippy::disallowed_methods)]

use std::process::ExitCode;

use cajade_core::{ExplanationSession, Params, UserQuestion};

// Heap attribution for the ingest stages (scan/infer/load/discover get
// per-scope byte ledgers); see docs/OBSERVABILITY.md § Memory attribution.
#[global_allocator]
static ALLOC: cajade_obs::TrackingAlloc = cajade_obs::TrackingAlloc;
use cajade_ingest::{ingest_dir, IngestOptions};
use cajade_query::parse_sql;

struct Args {
    dir: String,
    sql: Option<String>,
    t1: Vec<(String, String)>,
    t2: Vec<(String, String)>,
    top: usize,
    options: IngestOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: cajade-ingest <csv-dir> [--sql <query>] [--t1 col=value ...] \
         [--t2 col=value ...] [--top <k>] [--name <db>] [--max-joins <n>] [--strict]"
    );
    std::process::exit(2);
}

fn parse_pair(spec: &str) -> (String, String) {
    match spec.split_once('=') {
        Some((c, v)) if !c.is_empty() => (c.to_string(), v.to_string()),
        _ => {
            eprintln!("bad tuple spec `{spec}` (expected col=value)");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: String::new(),
        sql: None,
        t1: Vec::new(),
        t2: Vec::new(),
        top: 5,
        options: IngestOptions::default(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--sql" => args.sql = Some(value()),
            "--t1" => args.t1.push(parse_pair(&value())),
            "--t2" => args.t2.push(parse_pair(&value())),
            "--top" => args.top = value().parse().unwrap_or_else(|_| usage()),
            "--name" => args.options.name = Some(value()),
            "--max-joins" => {
                args.options.max_discovered_joins =
                    Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--strict" => args.options.strict_types = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other if args.dir.is_empty() => args.dir = other.to_string(),
            _ => usage(),
        }
    }
    if args.dir.is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let ingested = match ingest_dir(&args.dir, &args.options) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("ingest failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", ingested.report.render());

    let Some(sql) = &args.sql else {
        return ExitCode::SUCCESS;
    };
    let query = match parse_sql(sql) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cajade_query::execute(&ingested.db, &query) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("query failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("\n{}", result.render(&ingested.db));

    if args.t1.is_empty() && args.t2.is_empty() {
        return ExitCode::SUCCESS;
    }
    let question = match UserQuestion::from_specs(&args.t1, &args.t2) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let session = ExplanationSession::new(&ingested.db, &ingested.schema_graph, Params::fast());
    let outcome = match session.explain(&query, &question) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("explanation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("top explanations:");
    for (i, e) in outcome.explanations.iter().take(args.top).enumerate() {
        println!("  {:>2}. {}", i + 1, e.render_line());
    }
    println!("\n{}", outcome.timings.render());
    ExitCode::SUCCESS
}
