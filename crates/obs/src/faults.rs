//! Deterministic fault injection for robustness tests.
//!
//! A *failpoint* is a named site in production code (`cache.
//! provenance_compute`, `ingest.load`, `mine.refine`, … — the closed
//! list is [`Site`]) that normally does nothing: with no plan armed,
//! [`failpoint`] is one relaxed atomic load. Arming a plan — from the `CAJADE_FAULTS` environment
//! variable at binary startup ([`init_from_env`]) or programmatically
//! from tests ([`set_plan`]) — makes named sites misbehave on purpose:
//!
//! ```text
//! CAJADE_FAULTS="site=action[:arg][@count][,site=action…]"
//!
//! actions:  panic            panic! at the site
//!           error            the site returns Err (sites that cannot
//!                            fail escalate this to a panic)
//!           sleep:<ms>       block <ms> milliseconds, then continue
//! @count:   fire at most <count> times, then the site goes quiet
//! ```
//!
//! A plan naming a site that is not a [`Site`], an empty site or the
//! same site twice is refused: it would arm nothing and test nothing.
//!
//! Example: `CAJADE_FAULTS=cache.provenance_compute=panic@1` panics the
//! first cached provenance computation and leaves every later request
//! untouched — the shape the CI panic-recovery smoke drives.
//!
//! Every fire increments `fault_<site>_fired_total` (dots mapped to
//! underscores) in the [global registry](crate::global), so injected
//! faults are visible through the serve `metrics` op.
//!
//! The armed plan is process-global; tests that arm one must serialize
//! themselves (see [`test_guard`]) and [`clear`] it afterwards.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Duration;

/// What an armed site does when reached.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FaultAction {
    /// `panic!` at the site.
    Panic,
    /// Return an error from the site (escalated to a panic at sites
    /// with no error path).
    Error,
    /// Sleep for the given duration, then proceed normally.
    Sleep(Duration),
}

/// Every failpoint in the workspace. A call site names one of these, so
/// the list of sites a plan can arm is the compiler's, not a convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Top of every protocol request.
    ServeRequest,
    /// Inside the single-flighted provenance computation.
    CacheProvenanceCompute,
    /// Inside the computation of one prepared join graph.
    CacheAptCompute,
    /// Before profiling one CSV file.
    IngestProfile,
    /// Before loading one CSV file.
    IngestLoad,
    /// Top of mining preparation.
    MinePrepare,
    /// Top of the refinement BFS.
    MineRefine,
}

impl Site {
    /// Every site, in `docs/ROBUSTNESS.md`'s catalog order.
    pub const ALL: [Site; 7] = [
        Site::ServeRequest,
        Site::CacheProvenanceCompute,
        Site::CacheAptCompute,
        Site::IngestProfile,
        Site::IngestLoad,
        Site::MinePrepare,
        Site::MineRefine,
    ];

    /// The name a `CAJADE_FAULTS` plan arms the site by.
    pub fn name(self) -> &'static str {
        match self {
            Site::ServeRequest => "serve.request",
            Site::CacheProvenanceCompute => "cache.provenance_compute",
            Site::CacheAptCompute => "cache.apt_compute",
            Site::IngestProfile => "ingest.profile",
            Site::IngestLoad => "ingest.load",
            Site::MinePrepare => "mine.prepare",
            Site::MineRefine => "mine.refine",
        }
    }
}

#[derive(Debug)]
struct ArmedSite {
    site: Site,
    action: FaultAction,
    /// Remaining fires; `u64::MAX` means unlimited.
    remaining: AtomicU64,
}

fn plan() -> &'static RwLock<Vec<ArmedSite>> {
    static PLAN: OnceLock<RwLock<Vec<ArmedSite>>> = OnceLock::new();
    PLAN.get_or_init(|| RwLock::new(Vec::new()))
}

/// Fast gate checked by every failpoint before touching the plan.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Parses a `CAJADE_FAULTS`-grammar spec into site entries.
fn parse(spec: &str) -> Result<Vec<ArmedSite>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (site, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("fault entry `{entry}` missing `=`"))?;
        let (action_part, count) = match rest.split_once('@') {
            Some((a, n)) => (
                a,
                n.parse::<u64>()
                    .map_err(|_| format!("bad fire count in `{entry}`"))?,
            ),
            None => (rest, u64::MAX),
        };
        let action = match action_part.split_once(':') {
            Some(("sleep", ms)) => FaultAction::Sleep(Duration::from_millis(
                ms.parse::<u64>()
                    .map_err(|_| format!("bad sleep millis in `{entry}`"))?,
            )),
            None if action_part == "panic" => FaultAction::Panic,
            None if action_part == "error" => FaultAction::Error,
            _ => return Err(format!("unknown fault action in `{entry}`")),
        };
        let site = site.trim();
        let site = Site::ALL
            .into_iter()
            .find(|s| s.name() == site)
            .ok_or_else(|| format!("unknown fault site `{site}` in `{entry}`"))?;
        if out.iter().any(|a: &ArmedSite| a.site == site) {
            return Err(format!("fault site `{}` armed twice", site.name()));
        }
        out.push(ArmedSite {
            site,
            action,
            remaining: AtomicU64::new(count),
        });
    }
    Ok(out)
}

/// Arms a fault plan from a `CAJADE_FAULTS`-grammar spec, replacing
/// any previous plan. An empty spec disarms everything; an unknown,
/// empty or repeated site refuses the plan and leaves the armed one.
pub fn set_plan(spec: &str) -> Result<(), String> {
    let sites = parse(spec)?;
    let enabled = !sites.is_empty();
    *plan().write().unwrap_or_else(|e| e.into_inner()) = sites;
    ENABLED.store(enabled, Ordering::Release);
    Ok(())
}

/// Disarms every failpoint.
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    plan().write().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Reads `CAJADE_FAULTS` and arms the described plan. Call once at
/// binary startup; a malformed spec aborts startup loudly rather than
/// silently testing nothing.
pub fn init_from_env() {
    if let Ok(spec) = std::env::var("CAJADE_FAULTS") {
        if let Err(e) = set_plan(&spec) {
            panic!("invalid CAJADE_FAULTS: {e}");
        }
    }
}

/// Serializes tests that arm the global plan. Hold the guard for the
/// whole test and call [`clear`] before dropping it.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Looks up `site` in the armed plan and consumes one fire if it
/// matches. Returns the action to perform, if any.
fn fire(site: Site) -> Option<FaultAction> {
    let plan = plan().read().unwrap_or_else(|e| e.into_inner());
    let armed = plan.iter().find(|s| s.site == site)?;
    // Consume one fire; a site at 0 stays quiet (enables "@1 then the
    // next request succeeds" smokes).
    let mut left = armed.remaining.load(Ordering::Relaxed);
    loop {
        if left == 0 {
            return None;
        }
        let next = if left == u64::MAX { left } else { left - 1 };
        match armed.remaining.compare_exchange_weak(
            left,
            next,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => break,
            Err(observed) => left = observed,
        }
    }
    crate::global()
        .counter(&format!(
            "fault_{}_fired_total",
            site.name().replace('.', "_")
        ))
        .inc();
    Some(armed.action.clone())
}

/// The failpoint for sites with an error path. Disarmed: one relaxed
/// atomic load, `Ok`. Armed `panic` panics; `error` returns `Err`
/// with a recognizable message; `sleep` blocks then returns `Ok`.
pub fn failpoint(site: Site) -> Result<(), String> {
    if !ENABLED.load(Ordering::Acquire) {
        return Ok(());
    }
    match fire(site) {
        None => Ok(()),
        Some(FaultAction::Sleep(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(FaultAction::Error) => Err(format!("injected fault at {}", site.name())),
        Some(FaultAction::Panic) => panic!("injected panic at {}", site.name()),
    }
}

/// The failpoint for infallible sites (mining phases): `error`
/// escalates to a panic because there is no error path to return
/// through. Disarmed: one relaxed atomic load.
pub fn failpoint_infallible(site: Site) {
    if !ENABLED.load(Ordering::Acquire) {
        return;
    }
    match fire(site) {
        None => {}
        Some(FaultAction::Sleep(d)) => std::thread::sleep(d),
        Some(FaultAction::Error) | Some(FaultAction::Panic) => {
            panic!("injected panic at {}", site.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_failpoints_are_inert() {
        let _g = test_guard();
        clear();
        assert_eq!(failpoint(Site::IngestLoad), Ok(()));
        failpoint_infallible(Site::MineRefine);
    }

    #[test]
    fn parse_rejects_garbage_and_accepts_the_grammar() {
        assert!(parse("no_equals").is_err());
        assert!(parse("mine.refine=explode").is_err());
        assert!(parse("mine.refine=sleep:abc").is_err());
        assert!(parse("mine.refine=panic@x").is_err());
        let sites = parse("ingest.load=panic@1, mine.prepare=error ,mine.refine=sleep:25").unwrap();
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].site, Site::IngestLoad);
        assert_eq!(sites[0].action, FaultAction::Panic);
        assert_eq!(sites[0].remaining.load(Ordering::Relaxed), 1);
        assert_eq!(sites[1].action, FaultAction::Error);
        assert_eq!(sites[1].remaining.load(Ordering::Relaxed), u64::MAX);
        assert_eq!(
            sites[2].action,
            FaultAction::Sleep(Duration::from_millis(25))
        );
    }

    #[test]
    fn plans_naming_no_site_are_refused_and_leave_the_armed_plan() {
        let _g = test_guard();
        set_plan("ingest.profile=error").unwrap();
        for spec in [
            "cache.provnance_compute=panic",
            "=panic",
            " =error@1",
            "mine.refine=panic,mine.refine=error",
        ] {
            assert!(set_plan(spec).is_err(), "`{spec}` was accepted");
        }
        assert!(failpoint(Site::IngestProfile).is_err(), "plan kept");
        clear();
        for site in Site::ALL {
            assert!(parse(&format!("{}=error", site.name())).is_ok());
        }
    }

    #[test]
    fn error_action_fires_counts_down_and_goes_quiet() {
        let _g = test_guard();
        set_plan("ingest.load=error@2").unwrap();
        assert!(failpoint(Site::IngestLoad).is_err());
        assert!(failpoint(Site::IngestProfile).is_ok(), "unarmed site");
        assert!(failpoint(Site::IngestLoad).is_err());
        assert!(failpoint(Site::IngestLoad).is_ok(), "count exhausted");
        let fired = crate::global()
            .counter("fault_ingest_load_fired_total")
            .get();
        assert!(fired >= 2, "fire counter recorded: {fired}");
        clear();
        assert!(failpoint(Site::IngestLoad).is_ok());
    }

    #[test]
    fn panic_action_panics_at_fallible_and_infallible_sites() {
        let _g = test_guard();
        set_plan("ingest.profile=panic,mine.refine=error").unwrap();
        let r = std::panic::catch_unwind(|| failpoint(Site::IngestProfile));
        assert!(r.is_err());
        // `error` at an infallible site escalates to a panic.
        let r = std::panic::catch_unwind(|| failpoint_infallible(Site::MineRefine));
        assert!(r.is_err());
        clear();
    }

    #[test]
    fn sleep_action_delays_then_continues() {
        let _g = test_guard();
        set_plan("mine.prepare=sleep:30@1").unwrap();
        let start = std::time::Instant::now();
        assert!(failpoint(Site::MinePrepare).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(30));
        clear();
    }
}
