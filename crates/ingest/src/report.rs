//! Per-stage ingestion reports: what was loaded, what was inferred,
//! which joins were proposed, and how long each stage took.

use std::time::Duration;

use cajade_graph::JoinCandidate;

/// Wall-clock breakdown of one ingestion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestTimings {
    /// Directory scan + manifest parse.
    pub scan: Duration,
    /// Pass 1: type/key inference, each file read whole and tokenized.
    pub infer: Duration,
    /// Pass 2: each file read and tokenized again, cells parsed into
    /// columnar tables (+ composite-key check).
    pub load: Duration,
    /// Containment-based join discovery + schema-graph assembly.
    pub discover: Duration,
}

impl IngestTimings {
    /// Total ingestion wall clock.
    pub fn total(&self) -> Duration {
        self.scan + self.infer + self.load + self.discover
    }

    /// Four `(stage, duration)` rows in pipeline order.
    pub fn rows(&self) -> [(&'static str, Duration); 4] {
        [
            ("scan", self.scan),
            ("infer", self.infer),
            ("load", self.load),
            ("discover", self.discover),
        ]
    }

    /// Renders the stage table, one `name: 12.34 ms` line per stage.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, d) in self.rows() {
            out.push_str(&format!("{name:>10}: {:>9.3} ms\n", d.as_secs_f64() * 1e3));
        }
        out.push_str(&format!(
            "{:>10}: {:>9.3} ms\n",
            "total",
            self.total().as_secs_f64() * 1e3
        ));
        out
    }
}

/// How one table's load went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableReport {
    /// Table (file stem) name.
    pub name: String,
    /// Rows loaded.
    pub rows: usize,
    /// Columns loaded.
    pub columns: usize,
    /// Primary-key columns (inferred or pinned), in key order.
    pub key: Vec<String>,
    /// True when the key came from the manifest rather than inference.
    pub key_pinned: bool,
    /// Records whose field count differed from the header's.
    pub ragged_rows: usize,
    /// Cells that contradicted the inferred type after the sampling
    /// window and were coerced to NULL (lenient mode only).
    pub coerced_nulls: usize,
}

/// Where a schema-graph join came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrigin {
    /// Pinned by the `dataset.toml` manifest.
    Pinned,
    /// Proposed by containment-based discovery.
    Discovered,
}

impl JoinOrigin {
    /// Lowercase label used in reports and the wire protocol.
    pub fn label(self) -> &'static str {
        match self {
            JoinOrigin::Pinned => "pinned",
            JoinOrigin::Discovered => "discovered",
        }
    }
}

/// One join condition in the assembled schema graph, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReport {
    /// Rendered condition, e.g. `sales.store_id = stores.store_id`.
    pub condition: String,
    /// Pinned vs discovered.
    pub origin: JoinOrigin,
    /// Discovery evidence (absent for pinned joins).
    pub evidence: Option<JoinCandidate>,
}

/// The full ingestion report returned alongside the database.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// Database name (manifest, option, or directory stem).
    pub dataset: String,
    /// Whether a `dataset.toml` manifest was found and honoured.
    pub manifest_used: bool,
    /// Per-table load reports, in load (file-name) order.
    pub tables: Vec<TableReport>,
    /// Every join in the assembled schema graph, pinned first.
    pub joins: Vec<JoinReport>,
    /// Non-fatal oddities worth surfacing (ragged rows, coerced cells,
    /// all-null columns, skipped non-CSV files…).
    pub warnings: Vec<String>,
    /// Per-stage wall clock.
    pub timings: IngestTimings,
}

impl IngestReport {
    /// Total rows loaded across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows).sum()
    }

    /// Joins proposed by discovery (vs pinned by the manifest).
    pub fn discovered_join_count(&self) -> usize {
        self.joins
            .iter()
            .filter(|j| j.origin == JoinOrigin::Discovered)
            .count()
    }

    /// Human-readable multi-line summary (the CLI's output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "dataset `{}`: {} tables, {} rows{}\n",
            self.dataset,
            self.tables.len(),
            self.total_rows(),
            if self.manifest_used {
                " (dataset.toml honoured)"
            } else {
                ""
            }
        );
        for t in &self.tables {
            out.push_str(&format!(
                "  {:<24} {:>8} rows × {:<2} cols  key [{}]{}{}\n",
                t.name,
                t.rows,
                t.columns,
                t.key.join(", "),
                if t.key_pinned { " (pinned)" } else { "" },
                if t.ragged_rows + t.coerced_nulls > 0 {
                    format!("  ({} ragged, {} coerced)", t.ragged_rows, t.coerced_nulls)
                } else {
                    String::new()
                },
            ));
        }
        out.push_str(&format!(
            "joins: {} pinned, {} discovered\n",
            self.joins.len() - self.discovered_join_count(),
            self.discovered_join_count()
        ));
        for j in &self.joins {
            out.push_str(&format!("  [{:^10}] {}\n", j.origin.label(), j.condition));
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        out.push_str(&self.timings.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_total_and_render() {
        let t = IngestTimings {
            scan: Duration::from_millis(1),
            infer: Duration::from_millis(2),
            load: Duration::from_millis(3),
            discover: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
        let s = t.render();
        assert!(s.contains("scan"));
        assert!(s.contains("discover"));
        assert!(s.contains("total"));
    }

    #[test]
    fn report_render_counts_origins() {
        let r = IngestReport {
            dataset: "d".into(),
            manifest_used: true,
            tables: vec![TableReport {
                name: "t".into(),
                rows: 5,
                columns: 2,
                key: vec!["id".into()],
                key_pinned: false,
                ragged_rows: 1,
                coerced_nulls: 0,
            }],
            joins: vec![
                JoinReport {
                    condition: "a.x = b.x".into(),
                    origin: JoinOrigin::Pinned,
                    evidence: None,
                },
                JoinReport {
                    condition: "a.y = c.y".into(),
                    origin: JoinOrigin::Discovered,
                    evidence: None,
                },
            ],
            warnings: vec!["one oddity".into()],
            timings: IngestTimings::default(),
        };
        assert_eq!(r.total_rows(), 5);
        assert_eq!(r.discovered_join_count(), 1);
        let s = r.render();
        assert!(s.contains("1 pinned, 1 discovered"));
        assert!(s.contains("one oddity"));
        assert!(s.contains("ragged"));
    }
}
