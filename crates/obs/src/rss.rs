//! Process-memory watermarks: current and peak resident-set size.
//!
//! The scale-sweep harness (`scale_bench`) and the service's metrics
//! surface both need to answer "how much memory did that run actually
//! take?" without a heap profiler. On Linux the kernel already tracks
//! the high-water mark: `/proc/self/status` exposes `VmRSS` (current
//! resident set) and `VmHWM` (peak resident set since start or the last
//! reset). This module parses those two lines and mirrors them into the
//! metrics [`Registry`] as gauges, so every `metrics` snapshot and
//! Prometheus scrape carries the watermark.
//!
//! Non-Linux platforms return `None`; callers treat the gauge as
//! best-effort (absent, never wrong). Zero dependencies, consistent
//! with the crate's offline policy.

use crate::registry::Registry;

/// Gauge name under which [`record_rss`] mirrors the peak RSS.
pub const PEAK_RSS_GAUGE: &str = "process_peak_rss_bytes";

/// Gauge name under which [`record_rss`] mirrors the current RSS.
pub const CURRENT_RSS_GAUGE: &str = "process_current_rss_bytes";

/// Peak resident-set size of this process in bytes (`VmHWM`), or `None`
/// when the platform does not expose it (non-Linux, or an unreadable
/// `/proc`). Monotone between [`reset_peak_rss`] calls.
pub fn peak_rss_bytes() -> Option<u64> {
    watermarks_at(status_path()).0
}

/// Current resident-set size of this process in bytes (`VmRSS`), or
/// `None` when the platform does not expose it.
pub fn current_rss_bytes() -> Option<u64> {
    watermarks_at(status_path()).1
}

/// Resets the kernel's peak-RSS watermark to the current RSS by writing
/// `5` to `/proc/self/clear_refs` (Linux ≥ 4.0). Returns `true` when the
/// reset was accepted. Best-effort: sweep harnesses call this between
/// scale points so each point's `VmHWM` attributes to that point alone;
/// when it fails (non-Linux, restricted `/proc`) the watermark simply
/// stays cumulative, which is still a valid upper bound.
pub fn reset_peak_rss() -> bool {
    reset_peak_rss_at(clear_refs_path())
}

/// The `/proc/self/status` path on Linux, a nonexistent sentinel
/// elsewhere — every read degrades to `None` instead of erroring.
fn status_path() -> &'static str {
    if cfg!(target_os = "linux") {
        "/proc/self/status"
    } else {
        "/nonexistent/proc/self/status"
    }
}

fn clear_refs_path() -> &'static str {
    if cfg!(target_os = "linux") {
        "/proc/self/clear_refs"
    } else {
        "/nonexistent/proc/self/clear_refs"
    }
}

/// [`reset_peak_rss`] against an explicit `clear_refs` path. Unreadable
/// or missing paths report `false`, never an error.
fn reset_peak_rss_at(path: &str) -> bool {
    std::fs::write(path, b"5").is_ok()
}

/// Reads both watermarks and mirrors them into `registry` as the gauges
/// [`PEAK_RSS_GAUGE`] and [`CURRENT_RSS_GAUGE`]. Returns the peak in
/// bytes when available. Platforms without `/proc` leave the gauges
/// untouched (they stay absent rather than reporting zero).
pub fn record_rss(registry: &Registry) -> Option<u64> {
    let (peak, cur) = watermarks_at(status_path());
    if let Some(cur) = cur {
        registry.gauge(CURRENT_RSS_GAUGE).set(cur);
    }
    let peak = peak?;
    registry.gauge(PEAK_RSS_GAUGE).set(peak);
    Some(peak)
}

/// `(VmHWM, VmRSS)` in bytes out of one read of the status file at
/// `path`: the kernel renders both from the same counters, so within a
/// read peak ≥ current holds, which it need not across two reads while
/// other threads allocate. Any failure — missing file, permission
/// denial, malformed content — degrades to `None`; this is what keeps
/// the RSS gauges best-effort on non-Linux hosts and locked-down `/proc`
/// mounts.
fn watermarks_at(path: &str) -> (Option<u64>, Option<u64>) {
    let status = std::fs::read_to_string(path).unwrap_or_default();
    let bytes = |key| parse_status_kb(&status, key).map(|kb| kb * 1024);
    (bytes("VmHWM:"), bytes("VmRSS:"))
}

/// Parses one `<key>   <n> kB` line out of `/proc/self/status`-shaped
/// content. Platform-independent (unit-testable everywhere).
fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb);
        }
    }
    None
}

#[cfg(test)]
mod guard_tests {
    use super::*;

    /// Satellite: an unreadable `/proc` must degrade to `None`-valued
    /// gauges, not an error — and must leave the registry untouched.
    #[test]
    fn unreadable_proc_degrades_to_none() {
        assert_eq!(watermarks_at("/nonexistent/proc/self/status"), (None, None));
        assert!(!reset_peak_rss_at("/nonexistent/proc/self/clear_refs"));
    }

    #[test]
    fn malformed_status_degrades_to_none() {
        assert_eq!(parse_status_kb("", "VmHWM:"), None);
        assert_eq!(parse_status_kb("VmHWM: not-a-number kB\n", "VmHWM:"), None);
        assert_eq!(parse_status_kb("VmRSS:\t  42 kB\n", "VmHWM:"), None);
        assert_eq!(parse_status_kb("VmHWM:\t  42 kB\n", "VmHWM:"), Some(42));
    }

    #[test]
    fn record_rss_leaves_gauges_absent_when_unreadable() {
        let reg = Registry::new();
        // Simulate the unreadable-/proc path by recording from parses
        // that return None: on such platforms record_rss must not plant
        // zero-valued gauges. We exercise the real function only where
        // /proc exists; the None contract is covered by construction.
        if peak_rss_bytes().is_none() {
            assert_eq!(record_rss(&reg), None);
            assert!(reg.snapshot().gauges.is_empty());
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn peak_is_nonzero_and_at_least_current() {
        let (peak, cur) = watermarks_at(status_path());
        let peak = peak.expect("VmHWM readable on Linux");
        let cur = cur.expect("VmRSS readable on Linux");
        assert!(peak > 0 && cur > 0);
        assert!(peak >= cur, "peak {peak} < current {cur}");
    }

    #[test]
    fn peak_is_monotone_across_a_large_allocation() {
        let _serial = crate::big_alloc_test_lock();
        let before = peak_rss_bytes().unwrap();
        // Touch every page so the allocation is actually resident.
        let mut big = vec![0u8; 64 << 20];
        for i in (0..big.len()).step_by(4096) {
            big[i] = i as u8;
        }
        let after = peak_rss_bytes().unwrap();
        assert!(
            after >= before,
            "watermark regressed: {before} -> {after} (len {})",
            big.len()
        );
        // The watermark must have seen the 64 MB: peak ≥ current-while-held.
        let held = current_rss_bytes().unwrap();
        drop(big);
        assert!(after >= held.saturating_sub(16 << 20));
    }

    #[test]
    fn record_rss_mirrors_into_gauges() {
        let reg = Registry::new();
        let peak = record_rss(&reg).expect("peak on Linux");
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get(PEAK_RSS_GAUGE), peak);
        let cur = get(CURRENT_RSS_GAUGE);
        assert!(cur > 0 && cur <= peak);
    }
}
