//! A process- or service-scoped registry of named metrics.
//!
//! Three instrument kinds, all get-or-create by name and shareable as
//! `Arc` handles (register once, record on the hot path with no map
//! lookups):
//!
//! * [`Counter`] — monotonically increasing `u64` (suffix `_total` by
//!   convention);
//! * [`Gauge`] — last-write-wins `u64` (sizes, entry counts);
//! * [`Histogram`] — latency distributions (suffix `_us`).
//!
//! [`Registry::snapshot`] produces a plain-data [`RegistrySnapshot`]
//! that the serve protocol renders to JSON, and
//! [`RegistrySnapshot::render_prometheus`] emits the Prometheus text
//! exposition format (counters/gauges verbatim, histograms as summaries
//! with `quantile` labels plus `_sum`/`_count`).

use crate::hist::{HistSnapshot, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Named counters, gauges, and histograms. Cheap to clone handles out
/// of; a `Registry` is shared as `Arc<Registry>` (see
/// [`global`](crate::global)).
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    hists: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field(
                "counters",
                &self
                    .counters
                    .read()
                    .unwrap_or_else(|e| e.into_inner())
                    .len(),
            )
            .field(
                "gauges",
                &self.gauges.read().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .field(
                "histograms",
                &self.hists.read().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.hists, name)
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let hists = self
            .hists
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            hists,
        }
    }
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(w.entry(name.to_string()).or_default())
}

/// Quantiles reported for each histogram, in both the JSON and
/// Prometheus renderings.
pub const QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Plain-data snapshot of a [`Registry`], sorted by metric name.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram.
    pub hists: Vec<(String, HistSnapshot)>,
}

impl RegistrySnapshot {
    /// Renders the Prometheus text exposition format. Histograms become
    /// `summary` metrics: `name{quantile="0.5"} …` lines plus
    /// `name_sum` / `name_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, snap) in &self.hists {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, label) in QUANTILES {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    snap.quantile(q)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", snap.sum));
            out.push_str(&format!("{name}_count {}\n", snap.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("asks_total");
        let b = r.counter("asks_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        r.gauge("open_sessions").set(4);
        assert_eq!(r.gauge("open_sessions").get(), 4);
        r.histogram("ask_total_us").record(100);
        assert_eq!(r.histogram("ask_total_us").snapshot().count, 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("zeta_total").inc();
        r.counter("alpha_total").add(5);
        r.gauge("g").set(7);
        r.histogram("h_us").record(50);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("alpha_total".into(), 5), ("zeta_total".into(), 1)]
        );
        assert_eq!(snap.gauges, vec![("g".into(), 7)]);
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists[0].1.count, 1);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("asks_total").add(21);
        r.gauge("open_sessions").set(1);
        let h = r.histogram("ask_total_us");
        for i in 1..=100u64 {
            h.record(i * 10);
        }
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE asks_total counter\nasks_total 21\n"));
        assert!(text.contains("# TYPE open_sessions gauge\nopen_sessions 1\n"));
        assert!(text.contains("# TYPE ask_total_us summary\n"));
        assert!(text.contains("ask_total_us{quantile=\"0.5\"} "));
        assert!(text.contains("ask_total_us{quantile=\"0.999\"} "));
        assert!(text.contains("ask_total_us_count 100\n"));
        assert!(text.contains("ask_total_us_sum 50500\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }
}
