//! Deterministic fault injection for robustness tests.
//!
//! A *failpoint* is a named site in production code (`cache.
//! provenance_compute`, `ingest.load`, `mine.refine`, … — the closed
//! list is [`Site`]) that normally does nothing: with no plan installed,
//! [`failpoint`] is one thread-local load. A [`Plan`], installed around a
//! request like a [`Budget`](crate::Budget) and carried onto its workers
//! by [`Ctx`](crate::Ctx), makes named sites misbehave on purpose —
//! `cajade-serve` installs the one `CAJADE_FAULTS` names ([`init_from_env`]):
//!
//! ```text
//! CAJADE_FAULTS="site=action[:arg][@count][,site=action…]"
//!
//! actions:  panic            panic! at the site
//!           error            the site returns Err (sites that cannot
//!                            fail escalate this to a panic)
//!           sleep:<ms>       block <ms> milliseconds, then continue
//! @count:   fire at most <count> (≥ 1) times, then the site goes quiet
//! ```
//!
//! A plan naming a site that is not a [`Site`], an empty site, the same
//! site twice or a count of 0 is refused: it would test nothing.
//!
//! Example: `CAJADE_FAULTS=cache.provenance_compute=panic@1` panics the
//! first cached provenance computation and leaves every later request
//! untouched — the shape the CI panic-recovery smoke drives.
//!
//! Every fire is counted by its plan ([`Plan::fired`]) and increments
//! `fault_<site>_fired_total` (dots mapped to underscores) in the
//! [global registry](crate::global), so injected faults are visible
//! through the serve `metrics` op.

use std::cell::{Cell, RefCell};
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::local::Slot;

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
    fired: AtomicU64,
}

/// A fault plan: which sites misbehave, how, and how often. Clones
/// share the armed sites and their counts, so two threads under one plan
/// share one `@1` fire.
#[derive(Debug, Clone)]
pub struct Plan(Arc<Vec<ArmedSite>>);

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<Arc<Vec<ArmedSite>>>> = const { RefCell::new(None) };
}
static SLOT: Slot<Vec<ArmedSite>> = Slot(&ACTIVE, &CURRENT);

impl Plan {
    /// Parses a `CAJADE_FAULTS`-grammar spec (empty: a plan arming nothing).
    pub fn parse(spec: &str) -> Result<Plan, String> {
        let mut out = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (site, rest) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault entry `{entry}` missing `=`"))?;
            let (action_part, count) = match rest.split_once('@') {
                Some((a, n)) => (
                    a,
                    n.parse::<NonZeroU64>()
                        .map_err(|_| format!("bad fire count in `{entry}`"))?
                        .get(),
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
                fired: AtomicU64::new(0),
            });
        }
        Ok(Plan(Arc::new(out)))
    }

    /// Runs `f` with this plan as the thread's plan (an empty plan: with
    /// none), restoring the previous one afterwards, also on panic.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        SLOT.install((!self.0.is_empty()).then(|| Arc::clone(&self.0)), f)
    }

    /// How many times `site` has fired under this plan, on any thread.
    pub fn fired(&self, site: Site) -> u64 {
        let armed = self.0.iter().find(|a| a.site == site);
        armed.map_or(0, |a| a.fired.load(Ordering::Relaxed))
    }

    /// Quiets every site of this plan, on every thread it is installed on.
    pub fn disarm(&self) {
        for armed in self.0.iter() {
            armed.remaining.store(0, Ordering::Relaxed);
        }
    }
}

/// The plan installed on this thread, if any
/// ([`Ctx::capture`](crate::Ctx::capture) takes it along to workers).
pub fn current() -> Option<Plan> {
    SLOT.with(Arc::clone).map(Plan)
}

/// Reads the plan `CAJADE_FAULTS` describes (unset: an empty plan) at
/// binary startup; a malformed spec, or one that is not UTF-8, aborts
/// startup loudly rather than silently testing nothing.
pub fn init_from_env() -> Plan {
    let spec = std::env::var_os("CAJADE_FAULTS").unwrap_or_default();
    Plan::parse(&spec.to_string_lossy()).unwrap_or_else(|e| panic!("invalid CAJADE_FAULTS: {e}"))
}

/// Looks up `site` in the installed plan and consumes one fire if it
/// matches. Returns the action to perform, if any.
fn fire(site: Site) -> Option<FaultAction> {
    SLOT.with(|sites| {
        let armed = sites.iter().find(|s| s.site == site)?;
        // Consume one fire; a site at 0 stays quiet (enables "@1 then the
        // next request succeeds" smokes), one at `u64::MAX` never runs out.
        let consume = |left: u64| left.checked_sub(u64::from(left != u64::MAX));
        (armed.remaining)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, consume)
            .ok()?;
        armed.fired.fetch_add(1, Ordering::Relaxed);
        crate::global()
            .counter(&format!(
                "fault_{}_fired_total",
                site.name().replace('.', "_")
            ))
            .inc();
        Some(armed.action.clone())
    })
    .flatten()
}

/// The failpoint for sites with an error path. With no plan installed:
/// one TLS load, `Ok`. Armed `panic` panics; `error` returns `Err`
/// with a recognizable message; `sleep` blocks then returns `Ok`.
pub fn failpoint(site: Site) -> Result<(), String> {
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
/// through. With no plan installed: one TLS load.
pub fn failpoint_infallible(site: Site) {
    if failpoint(site).is_err() {
        panic!("injected panic at {}", site.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_failpoints_are_inert() {
        assert_eq!(failpoint(Site::IngestLoad), Ok(()));
        failpoint_infallible(Site::MineRefine);
    }

    #[test]
    fn parse_rejects_garbage_and_accepts_the_grammar() {
        assert!(Plan::parse("no_equals").is_err());
        assert!(Plan::parse("mine.refine=explode").is_err());
        assert!(Plan::parse("mine.refine=sleep:abc").is_err());
        assert!(Plan::parse("mine.refine=panic@x").is_err());
        assert!(Plan::parse("mine.refine=panic@0").is_err());
        // `CAJADE_FAULTS` is read lossily: bytes that are not UTF-8 refuse.
        assert!(Plan::parse(&String::from_utf8_lossy(b"mine.refine=panic@1\xff")).is_err());
        let spec = "ingest.load=panic@1, mine.prepare=error ,mine.refine=sleep:25";
        let Plan(sites) = Plan::parse(spec).unwrap();
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
        Plan::parse("ingest.profile=error").unwrap().install(|| {
            for spec in [
                "cache.provnance_compute=panic",
                "=panic",
                " =error@1",
                "mine.refine=panic,mine.refine=error",
            ] {
                assert!(Plan::parse(spec).is_err(), "`{spec}` was accepted");
            }
            assert!(failpoint(Site::IngestProfile).is_err(), "plan kept");
        });
        for site in Site::ALL {
            assert!(Plan::parse(&format!("{}=error", site.name())).is_ok());
        }
    }

    #[test]
    fn error_action_fires_counts_down_and_goes_quiet() {
        let plan = Plan::parse("ingest.load=error@2").unwrap();
        plan.install(|| {
            assert!(failpoint(Site::IngestLoad).is_err());
            assert!(failpoint(Site::IngestProfile).is_ok(), "unarmed site");
            assert!(failpoint(Site::IngestLoad).is_err());
            assert!(failpoint(Site::IngestLoad).is_ok(), "count exhausted");
        });
        assert_eq!(plan.fired(Site::IngestLoad), 2);
        let fired = crate::global()
            .counter("fault_ingest_load_fired_total")
            .get();
        assert!(fired >= 2, "fire counter recorded: {fired}");
        assert!(failpoint(Site::IngestLoad).is_ok());
    }

    #[test]
    fn panic_action_panics_at_fallible_and_infallible_sites() {
        let plan = Plan::parse("ingest.profile=panic,mine.refine=error").unwrap();
        plan.install(|| {
            let r = std::panic::catch_unwind(|| failpoint(Site::IngestProfile));
            assert!(r.is_err());
            // `error` at an infallible site escalates to a panic.
            let r = std::panic::catch_unwind(|| failpoint_infallible(Site::MineRefine));
            assert!(r.is_err());
        });
    }

    #[test]
    fn sleep_action_delays_then_continues() {
        Plan::parse("mine.prepare=sleep:30@1").unwrap().install(|| {
            let start = std::time::Instant::now();
            assert!(failpoint(Site::MinePrepare).is_ok());
            assert!(start.elapsed() >= Duration::from_millis(30));
        });
    }
}
