//! Seeded doc-catalog-drift material: one documented and one
//! undocumented name per catalog kind. Never compiled — lexed by the
//! fixture tests only.

pub fn register(reg: &Registry) -> Result<(), Fault> {
    reg.counter("documented_total").inc(1);
    reg.gauge("undocumented_gauge").set(1); // fires: metric not in doc
    failpoint("site.documented")?;
    failpoint_infallible("site.undocumented"); // fires: site not in doc
    let _a = AllocScope::enter("scope.documented");
    let _b = AllocScope::enter("scope.undocumented"); // fires: scope not in doc
    // The stage guard's forms declare scopes too — all documented here,
    // so an extractor that missed one would report it doc-only.
    let _c = Stage::open("scope.stage");
    let _d = Stage::detail("scope.stage_detail");
    let _e = Stage::open_as("span_not_a_scope", "scope.stage_as");
    let _f = Stage::span_only("span_only_not_a_scope"); // opens no scope
    Ok(())
}
