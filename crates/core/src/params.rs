//! Session parameters — the λ's of the paper's Table 1 plus the
//! join-graph-enumeration knobs of §4.

use cajade_mining::{MiningParams, SelAttr};

/// All CaJaDE tuning parameters.
///
/// | Paper name | Field | Table-1 default |
/// |---|---|---|
/// | λ#edges | `max_edges` | 3 |
/// | λ#sel-attr | `mining.sel_attr` | 3 |
/// | λ_attrNum | `mining.lambda_attr_num` | 3 |
/// | λ_pat-samp | `mining.lambda_pat_samp` | 0.1 (cap 1000) |
/// | λ_F1-samp | `mining.lambda_f1_samp` | 0.3 |
/// | λ_qcost | `max_cost` | (not listed; 5 000 000 rows here) |
#[derive(Debug, Clone)]
pub struct Params {
    /// λ#edges: maximum join-graph edges.
    pub max_edges: usize,
    /// λ_qcost: skip a join graph once one of its joins would output more
    /// than this many rows. The APT kernel counts each join's output as it
    /// probes and stops at the probe that passes the bound, so a skipped
    /// graph costs at most this many row ids per join; a skip is counted,
    /// never an error. Filters and the PT-only graph are not bounded.
    pub max_cost: f64,
    /// §4's primary-key-coverage validity check.
    pub check_pk_coverage: bool,
    /// Mine the PT-only graph Ω₀ too (provenance-only patterns).
    pub include_pt_only: bool,
    /// Per-APT mining parameters (Algorithm 1).
    pub mining: MiningParams,
    /// Length of the final globally-ranked explanation list (the paper's
    /// appendix reports top-20).
    pub top_k_global: usize,
    /// Collapse near-duplicate patterns (same attributes & operators,
    /// possibly different constants / join paths) in the global ranking —
    /// §6: "we removed duplicates and explanations that only differ
    /// slightly in terms of constants".
    pub collapse_near_duplicates: bool,
    /// Mine join graphs on worker threads (off by default so measured
    /// runtimes decompose the way the paper's single-threaded prototype
    /// does).
    pub parallel: bool,
}

impl Default for Params {
    fn default() -> Self {
        Self::paper()
    }
}

impl Params {
    /// Table-1 defaults.
    pub fn paper() -> Self {
        Params {
            max_edges: 3,
            max_cost: 5_000_000.0,
            check_pk_coverage: true,
            include_pt_only: true,
            mining: MiningParams::default(),
            top_k_global: 20,
            collapse_near_duplicates: true,
            parallel: false,
        }
    }

    /// Reduced configuration for examples, doctests, and smoke tests:
    /// two-edge graphs, smaller forests, full sampling (tiny data makes
    /// sampling noise dominate otherwise).
    pub fn fast() -> Self {
        let mut p = Params::paper();
        p.max_edges = 2;
        p.mining.forest_trees = 8;
        p.mining.k_cat_patterns = 15;
        p.mining.lambda_pat_samp = 1.0;
        p.mining.lambda_f1_samp = 1.0;
        p.mining.sel_attr = SelAttr::Count(4);
        p
    }

    /// Case-study configuration (§6): a wider attribute budget so the
    /// richer multi-predicate explanations of Tables 4/6 can form.
    pub fn case_study() -> Self {
        let mut p = Params::paper();
        p.mining.sel_attr = SelAttr::Count(8);
        p.mining.top_k = 20;
        p
    }

    /// Applies a λ_F1-samp override (the knob most experiments sweep).
    pub fn with_f1_sample_rate(mut self, rate: f64) -> Self {
        self.mining.lambda_f1_samp = rate;
        self
    }

    /// Applies a λ#edges override.
    pub fn with_max_edges(mut self, edges: usize) -> Self {
        self.max_edges = edges;
        self
    }

    /// Toggles feature selection (the Fig. 7 ablation).
    pub fn with_feature_selection(mut self, on: bool) -> Self {
        self.mining.feature_selection = on;
        self
    }

    /// Bans attributes (by name substring) from patterns — interactive
    /// curation of trivial functional-dependency restatements (§6.2).
    pub fn with_banned_attrs(mut self, banned: &[&str]) -> Self {
        self.mining.banned_attrs = banned.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Enables automatic FD-based attribute exclusion (the paper's
    /// §6.2/§8 future-work item implemented here): attributes whose values
    /// functionally determine the output group on the APT are dropped
    /// instead of relying on a manual ban list — among the question's
    /// groups in a one-shot `explain`, among all groups in a service
    /// session, whose preparation serves every question.
    pub fn with_fd_exclusion(mut self, on: bool) -> Self {
        self.mining.exclude_fd_attrs = on;
        self
    }

    /// Renders the parameter table (the `paper table1` harness output).
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            ("lambda_#edges".into(), self.max_edges.to_string()),
            (
                "lambda_#sel-attr".into(),
                format!("{:?}", self.mining.sel_attr),
            ),
            (
                "lambda_attrNum".into(),
                self.mining.lambda_attr_num.to_string(),
            ),
            (
                "lambda_pat-samp".into(),
                format!(
                    "{} (cap {})",
                    self.mining.lambda_pat_samp, self.mining.pat_samp_cap
                ),
            ),
            (
                "lambda_F1-samp".into(),
                self.mining.lambda_f1_samp.to_string(),
            ),
            (
                "lambda_recall".into(),
                self.mining.lambda_recall.to_string(),
            ),
            ("lambda_#frag".into(), self.mining.num_frags.to_string()),
            ("lambda_qcost".into(), format!("{:.0} rows", self.max_cost)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let p = Params::paper();
        assert_eq!(p.max_edges, 3);
        assert_eq!(p.mining.lambda_attr_num, 3);
        assert!((p.mining.lambda_pat_samp - 0.1).abs() < 1e-12);
        assert_eq!(p.mining.pat_samp_cap, 1000);
        assert!((p.mining.lambda_f1_samp - 0.3).abs() < 1e-12);
        assert_eq!(p.mining.sel_attr, SelAttr::Count(3));
    }

    #[test]
    fn builders_compose() {
        let p = Params::paper()
            .with_f1_sample_rate(0.5)
            .with_max_edges(1)
            .with_feature_selection(false);
        assert_eq!(p.mining.lambda_f1_samp, 0.5);
        assert_eq!(p.max_edges, 1);
        assert!(!p.mining.feature_selection);
    }

    #[test]
    fn table1_lists_all_lambdas() {
        let rows = Params::paper().table1_rows();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().any(|(k, _)| k == "lambda_F1-samp"));
    }
}
