//! MIMIC case study (paper §6.2, Example 6 / Q_mimi4): why do patients
//! with Medicare insurance die at more than twice the rate of patients
//! with Private insurance?
//!
//! Run with: `cargo run --release --example mimic_insurance`

#![deny(clippy::disallowed_methods)]

use cajade::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mimic = cajade::datagen::mimic::generate(MimicConfig {
        admissions: 3000,
        ..MimicConfig::tiny()
    });
    println!(
        "generated MIMIC database: {} tables, {} rows total\n",
        mimic.db.tables().len(),
        mimic.db.total_rows()
    );

    // Q_mimi4: death rate by insurance.
    let query = parse_sql(
        "SELECT insurance, 1.0*SUM(hospital_expire_flag)/COUNT(*) AS death_rate \
         FROM admissions GROUP BY insurance",
    )?;
    let r = cajade::query::execute(&mimic.db, &query)?;
    println!("death rate by insurance:\n{}", r.render(&mimic.db));

    let mut params = Params::case_study();
    params.max_edges = 2;
    params.mining.lambda_pat_samp = 1.0;
    let session = ExplanationSession::new(&mimic.db, &mimic.schema_graph, params);

    println!("UQ2: why Medicare (t1, ~14%) vs Private (t2, ~6%)?\n");
    let outcome = session.explain_between(
        &query,
        &[("insurance", "Medicare")],
        &[("insurance", "Private")],
    )?;
    for (i, e) in outcome.explanations.iter().take(10).enumerate() {
        println!("  {:>2}. {}", i + 1, e.render_line());
    }
    println!(
        "\nThe top explanations should surface the planted context: more \
         emergency admissions,\nolder patients (age ≥ 65 ⇒ Medicare), and \
         expire_flag/stay-length correlations —\nthe Table-6 shape."
    );
    println!("\nruntime breakdown:\n{}", outcome.timings.render());
    Ok(())
}
