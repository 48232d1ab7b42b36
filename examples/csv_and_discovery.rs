//! Bring-your-own-data quickstart: drop CSV files in a directory, point
//! [`cajade::ingest`] at it, and explain a query result — no
//! hand-written schema, no declared foreign keys. Ingestion infers
//! column types and keys, a containment scan discovers the join graph,
//! and the explanation pipeline does the rest (the paper's §8
//! "automatically find datasets to be used as context" direction, end to
//! end).
//!
//! Run with: `cargo run --release --example csv_and_discovery`

#![deny(clippy::disallowed_methods)]

use cajade::core::ExplanationSession;
use cajade::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. A "user-provided" CSV directory (generated for the demo). --
    // Urban stores sell mostly online; rural/suburban mostly in person.
    // Online sales are larger. That correlation — reachable only through
    // a join ingestion must discover by itself — is the planted context.
    let dir = std::env::temp_dir().join(format!("cajade_quickstart_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let stores_csv = "\
store_id,city,segment
101,Springfield,urban
102,Shelbyville,suburban
103,Ogdenville,urban
104,North Haverbrook,rural
105,Capital City,urban
";
    let mut sales_csv = String::from("sale_id,store_id,channel,amount\n");
    for i in 0..600 {
        let store = 101 + (i % 5);
        let urban = matches!(store, 101 | 103 | 105);
        let online = if urban { i % 4 != 0 } else { i % 4 == 0 };
        let channel = if online { "online" } else { "in_person" };
        let amount = if online {
            220 + (i % 60)
        } else {
            90 + (i % 40)
        };
        sales_csv.push_str(&format!("{i},{store},{channel},{amount}\n"));
    }
    std::fs::write(dir.join("stores.csv"), stores_csv)?;
    std::fs::write(dir.join("sales.csv"), sales_csv)?;

    // ---- 2. Ingest: schema inference + join discovery, zero config. ----
    let ingested = ingest_dir(&dir, &IngestOptions::default())?;
    print!("{}", ingested.report.render());
    for t in ingested.db.tables() {
        let fields: Vec<String> = t
            .schema()
            .fields
            .iter()
            .map(|f| {
                format!(
                    "{}: {:?} {:?}{}",
                    f.name,
                    f.dtype,
                    f.kind,
                    if f.is_pk { " pk" } else { "" }
                )
            })
            .collect();
        println!("inferred schema {}({})", t.name(), fields.join(", "));
    }

    // ---- 3. Query + question + explanations. ---------------------------
    let query = parse_sql("SELECT AVG(amount) AS avg_amount, channel FROM sales GROUP BY channel")?;
    let result = cajade::query::execute(&ingested.db, &query)?;
    println!(
        "\naverage sale amount by channel:\n{}",
        result.render(&ingested.db)
    );

    let mut params = Params::fast().with_fd_exclusion(true);
    params.mining.sel_attr = SelAttr::All;
    let session = ExplanationSession::new(&ingested.db, &ingested.schema_graph, params);
    let outcome = session.explain_between(
        &query,
        &[("channel", "online")],
        &[("channel", "in_person")],
    )?;

    println!("why are online sales larger than in-person sales?");
    for (i, e) in outcome.explanations.iter().take(5).enumerate() {
        println!("  {:>2}. {}", i + 1, e.render_line());
    }
    assert!(
        !outcome.explanations.is_empty(),
        "ingested data must yield ranked explanations"
    );
    if let Some(best) = outcome.explanations.iter().find(|e| !e.from_pt_only) {
        println!("\nnarrative: {}", best.narrate("sale amounts"));
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
