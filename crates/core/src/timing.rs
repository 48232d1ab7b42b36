//! Per-phase session timings, matching the step names of the paper's
//! runtime-breakdown tables (Fig. 7, Fig. 9c/9d).

use std::time::Duration;

use cajade_mining::MiningTimings;

/// Wall-clock breakdown of one explanation session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionTimings {
    /// Provenance-table computation (the paper folds this into query
    /// evaluation; reported separately here for transparency).
    pub provenance: Duration,
    /// `JG Enum.` row: join-graph enumeration (Algorithm 2).
    pub jg_enum: Duration,
    /// `Materialize APTs` row.
    pub materialize_apts: Duration,
    /// Per-APT mining phases, accumulated over all join graphs.
    pub mining: MiningTimings,
}

impl SessionTimings {
    /// Total wall-clock across all phases.
    pub fn total(&self) -> Duration {
        self.provenance + self.jg_enum + self.materialize_apts + self.mining.total()
    }

    /// `(step name, duration)` rows in the paper's table order, plus the
    /// scoring index's encoding/bitmap preparation step.
    pub fn breakdown_rows(&self) -> Vec<(&'static str, Duration)> {
        vec![
            ("Feature Selection", self.mining.feature_selection),
            ("Gen. Pat. Cand.", self.mining.gen_pat_cand),
            ("F-score Calc.", self.mining.fscore_calc),
            ("Materialize APTs", self.materialize_apts),
            ("Refine Patterns", self.mining.refine_patterns),
            ("Sampling for F1", self.mining.sampling_for_f1),
            ("Prepare Index", self.mining.prepare),
            ("JG Enum.", self.jg_enum),
            ("Provenance", self.provenance),
        ]
    }

    /// Renders the breakdown as aligned text (seconds, two decimals),
    /// with the refinement-BFS pruning counters appended when any fired.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, d) in self.breakdown_rows() {
            out.push_str(&format!("{name:<18} {:>9.3}s\n", d.as_secs_f64()));
        }
        out.push_str(&format!(
            "{:<18} {:>9.3}s\n",
            "total",
            self.total().as_secs_f64()
        ));
        if self.mining.ub_pruned_children > 0 || self.mining.recall_pruned_subtrees > 0 {
            out.push_str(&format!(
                "pruning: {} children ub-pruned, {} subtrees recall-pruned\n",
                self.mining.ub_pruned_children, self.mining.recall_pruned_subtrees
            ));
        }
        if self.mining.budget_stopped > 0 {
            out.push_str(&format!(
                "budget: {} mining phases stopped early\n",
                self.mining.budget_stopped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_phases() {
        let t = SessionTimings {
            provenance: Duration::from_millis(10),
            jg_enum: Duration::from_millis(20),
            materialize_apts: Duration::from_millis(30),
            mining: MiningTimings {
                feature_selection: Duration::from_millis(5),
                gen_pat_cand: Duration::from_millis(5),
                sampling_for_f1: Duration::from_millis(5),
                fscore_calc: Duration::from_millis(5),
                refine_patterns: Duration::from_millis(5),
                prepare: Duration::from_millis(5),
                ..MiningTimings::default()
            },
        };
        assert_eq!(t.total(), Duration::from_millis(90));
        assert_eq!(t.breakdown_rows().len(), 9);
        let text = t.render();
        assert!(text.contains("F-score Calc."));
        assert!(text.contains("total"));
        // Counters don't contribute to durations and only render when set.
        assert!(!text.contains("ub-pruned"));
        let mut with_counters = t;
        with_counters.mining.ub_pruned_children = 7;
        with_counters.mining.recall_pruned_subtrees = 3;
        assert_eq!(with_counters.total(), Duration::from_millis(90));
        let text = with_counters.render();
        assert!(text.contains("7 children ub-pruned"));
        assert!(text.contains("3 subtrees recall-pruned"));
        assert!(!text.contains("budget"));
        with_counters.mining.budget_stopped = 2;
        assert_eq!(with_counters.total(), Duration::from_millis(90));
        assert!(with_counters
            .render()
            .contains("2 mining phases stopped early"));
    }
}
