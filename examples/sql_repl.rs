//! A tiny SQL REPL over the synthetic NBA database — demonstrates the
//! query substrate on its own (parser + executor + provenance counts).
//!
//! Run with: `cargo run --release --example sql_repl`
//! then type single-block aggregate SQL, e.g.:
//!
//! ```sql
//! SELECT COUNT(*) AS win, s.season_name FROM team t, game g, season s
//! WHERE t.team_id = g.winner_id AND g.season_id = s.season_id
//!   AND t.team = 'GSW' GROUP BY s.season_name
//! ```
//!
//! Commands: `\tables`, `\schema <table>`, `\quit`.

#![deny(clippy::disallowed_methods)]

use std::io::{BufRead, Write};

use cajade::prelude::*;
use cajade::query::ProvenanceTable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nba = cajade::datagen::nba::generate(NbaConfig::tiny());
    println!(
        "NBA database loaded ({} tables, {} rows). Type \\tables, \\schema <t>, \\quit.",
        nba.db.tables().len(),
        nba.db.total_rows()
    );

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("sql> ");
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        if line == "\\tables" {
            for t in nba.db.tables() {
                println!("  {} ({} rows)", t.name(), t.num_rows());
            }
            continue;
        }
        if let Some(name) = line.strip_prefix("\\schema ") {
            match nba.db.table(name.trim()) {
                Ok(t) => {
                    for f in &t.schema().fields {
                        println!(
                            "  {:<28} {:<6} {:?}{}",
                            f.name,
                            f.dtype.name(),
                            f.kind,
                            if f.is_pk { "  PK" } else { "" }
                        );
                    }
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }

        match parse_sql(line) {
            Ok(query) => match cajade::query::execute(&nba.db, &query) {
                Ok(result) => {
                    print!("{}", result.render(&nba.db));
                    if let Ok(pt) = ProvenanceTable::compute(&nba.db, &query) {
                        println!(
                            "({} output tuples, provenance: {} rows × {} attrs)",
                            result.num_rows(),
                            pt.num_rows,
                            pt.fields.len()
                        );
                    }
                }
                Err(e) => println!("execution error: {e}"),
            },
            Err(e) => println!("parse error: {e}"),
        }
    }
    Ok(())
}
