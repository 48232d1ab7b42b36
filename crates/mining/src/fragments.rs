//! Numeric-domain fragmentation (paper §3.4): "we split the domain of
//! each numerical attribute into a fixed number λ#frag of fragments (e.g.,
//! quartiles) and only use boundaries of these fragments when generating
//! refinements. For example, for λ#frag = 3 we would use the minimum,
//! median, and maximum value."

use cajade_graph::Apt;

use crate::stats::STATS_SAMPLE_CAP;

/// Computes per-field threshold candidates: `num_frags` quantile
/// boundaries of the non-null **finite** values of `field` over the APT's
/// rows. Boundaries are deduplicated; constant columns yield a single
/// boundary.
///
/// Large inputs are strided down to at most [`STATS_SAMPLE_CAP`]
/// positions before the quantile sort — the same deterministic
/// ≤512-value sampling the shared column-statistics path uses — so this
/// fallback (taken for fields the cross-graph stats cache cannot serve,
/// e.g. provenance-table columns) stays O(sample), not O(rows), as the
/// APT grows. Boundaries are approximate quantiles above the cap;
/// inputs at or below it are read exhaustively, so small fixtures see
/// exact quantiles.
///
/// Non-finite cells (`NaN`, `±∞` — reachable through CSV ingestion, since
/// `"NaN".parse::<f64>()` succeeds) are routed to the same fate as NULLs:
/// they contribute no boundary. A `NaN` threshold would poison every
/// refinement predicate built from it (`x ≤ NaN` matches nothing), and an
/// infinite one is vacuous; before this filter a single `NaN` cell
/// panicked the sort.
pub fn fragment_boundaries(apt: &Apt, field: usize, num_frags: usize) -> Vec<f64> {
    // Non-finite routing happens once, in `quantile_boundaries`.
    let vals: Vec<f64> = strided(apt.num_rows)
        .filter_map(|r| apt.columns[field].f64_at(r))
        .collect();
    quantile_boundaries(vals, num_frags)
}

/// Deterministic ≤[`STATS_SAMPLE_CAP`]-position stride over `0..n`.
fn strided(n: usize) -> impl Iterator<Item = usize> {
    let step = if n > STATS_SAMPLE_CAP {
        n.div_ceil(STATS_SAMPLE_CAP)
    } else {
        1
    };
    (0..n).step_by(step)
}

/// The quantile-picking core of [`fragment_boundaries`], shared with the
/// cross-graph column-statistics path (which feeds it base-table values
/// instead of APT gathers): sorts the finite values and returns
/// `num_frags` evenly spaced quantiles, deduplicated.
pub fn quantile_boundaries(mut vals: Vec<f64>, num_frags: usize) -> Vec<f64> {
    vals.retain(|v| v.is_finite());
    if vals.is_empty() || num_frags == 0 {
        return Vec::new();
    }
    vals.sort_by(f64::total_cmp);

    let n = vals.len();
    let mut out = Vec::with_capacity(num_frags);
    if num_frags == 1 {
        out.push(vals[n / 2]);
    } else {
        for i in 0..num_frags {
            // Evenly spaced quantiles from min (i=0) to max (i=last).
            let q = i as f64 / (num_frags - 1) as f64;
            let idx = ((n - 1) as f64 * q).round() as usize;
            out.push(vals[idx]);
        }
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cajade_graph::JoinGraph;
    use cajade_query::{parse_sql, ProvenanceTable};
    use cajade_storage::{AttrKind, DataType, Database, SchemaBuilder, Value};

    fn apt_with_values(vals: &[Option<i64>]) -> (Database, Apt) {
        let mut db = Database::new("f");
        db.create_table(
            SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("grp", DataType::Str, AttrKind::Categorical)
                .column("x", DataType::Int, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let g = db.intern("g");
        for (i, v) in vals.iter().enumerate() {
            let x = v.map(Value::Int).unwrap_or(Value::Null);
            db.table_mut("t")
                .unwrap()
                .push_row(vec![Value::Int(i as i64), Value::Str(g), x])
                .unwrap();
        }
        let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        (db, apt)
    }

    #[test]
    fn three_frags_give_min_median_max() {
        let (_db, apt) = apt_with_values(&[Some(1), Some(2), Some(3), Some(4), Some(5)]);
        let x = apt.field_index("prov_t_x").unwrap();
        assert_eq!(fragment_boundaries(&apt, x, 3), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn quartiles() {
        let vals: Vec<Option<i64>> = (0..101).map(Some).collect();
        let (_db, apt) = apt_with_values(&vals);
        let x = apt.field_index("prov_t_x").unwrap();
        assert_eq!(
            fragment_boundaries(&apt, x, 5),
            vec![0.0, 25.0, 50.0, 75.0, 100.0]
        );
    }

    #[test]
    fn nulls_skipped_and_constants_dedup() {
        let (_db, apt) = apt_with_values(&[Some(7), None, Some(7), Some(7)]);
        let x = apt.field_index("prov_t_x").unwrap();
        assert_eq!(fragment_boundaries(&apt, x, 3), vec![7.0]);
    }

    #[test]
    fn all_null_gives_empty() {
        let (_db, apt) = apt_with_values(&[None, None]);
        let x = apt.field_index("prov_t_x").unwrap();
        assert!(fragment_boundaries(&apt, x, 3).is_empty());
    }

    fn apt_with_floats(vals: &[Option<f64>]) -> (Database, Apt) {
        let mut db = Database::new("f");
        db.create_table(
            SchemaBuilder::new("t")
                .column_pk("id", DataType::Int, AttrKind::Categorical)
                .column("grp", DataType::Str, AttrKind::Categorical)
                .column("x", DataType::Float, AttrKind::Numeric)
                .build(),
        )
        .unwrap();
        let g = db.intern("g");
        for (i, v) in vals.iter().enumerate() {
            let x = v.map(Value::Float).unwrap_or(Value::Null);
            db.table_mut("t")
                .unwrap()
                .push_row(vec![Value::Int(i as i64), Value::Str(g), x])
                .unwrap();
        }
        let q = parse_sql("SELECT count(*) AS c, grp FROM t GROUP BY grp").unwrap();
        let pt = ProvenanceTable::compute(&db, &q).unwrap();
        let apt = Apt::materialize(&db, &pt, &JoinGraph::pt_only()).unwrap();
        (db, apt)
    }

    /// A literal `NaN` cell (reachable through CSV ingestion) used to
    /// panic the boundary sort; now NaN and ±∞ are routed out like NULLs.
    #[test]
    fn non_finite_cells_yield_finite_boundaries() {
        let (_db, apt) = apt_with_floats(&[
            Some(1.0),
            Some(f64::NAN),
            Some(f64::INFINITY),
            Some(f64::NEG_INFINITY),
            Some(3.0),
            Some(2.0),
            None,
        ]);
        let x = apt.field_index("prov_t_x").unwrap();
        assert_eq!(fragment_boundaries(&apt, x, 3), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn all_non_finite_gives_empty() {
        let (_db, apt) = apt_with_floats(&[Some(f64::NAN), Some(f64::INFINITY), None]);
        let x = apt.field_index("prov_t_x").unwrap();
        assert!(fragment_boundaries(&apt, x, 4).is_empty());
    }

    #[test]
    fn quantile_boundaries_filters_and_orders() {
        let vals = vec![f64::NAN, 5.0, 1.0, f64::NEG_INFINITY, 3.0];
        assert_eq!(quantile_boundaries(vals, 3), vec![1.0, 3.0, 5.0]);
        assert!(quantile_boundaries(vec![f64::NAN], 3).is_empty());
        assert!(quantile_boundaries(Vec::new(), 3).is_empty());
    }

    /// Above the cap the gather is strided: the boundaries equal the
    /// quantiles of the deterministic ≤512-position sample, proving the
    /// fallback reads O(sample) values regardless of APT size (the
    /// prepare-path step the scale sweep pinned as previously O(rows)).
    #[test]
    fn large_inputs_are_strided_to_the_sample_cap() {
        let n = 10_000usize;
        let vals: Vec<Option<i64>> = (0..n as i64).map(Some).collect();
        let (_db, apt) = apt_with_values(&vals);
        let x = apt.field_index("prov_t_x").unwrap();

        let step = n.div_ceil(STATS_SAMPLE_CAP);
        let sample: Vec<f64> = (0..n).step_by(step).map(|v| v as f64).collect();
        assert!(
            sample.len() <= STATS_SAMPLE_CAP,
            "cap exceeded: {}",
            sample.len()
        );
        assert_eq!(
            fragment_boundaries(&apt, x, 5),
            quantile_boundaries(sample, 5),
            "boundaries must come from the strided sample alone"
        );
        // And the sampled quantiles still track the true ones closely.
        let b = fragment_boundaries(&apt, x, 5);
        for (i, q) in [0.0, 0.25, 0.5, 0.75, 1.0].iter().enumerate() {
            let truth = q * (n - 1) as f64;
            assert!(
                (b[i] - truth).abs() <= step as f64,
                "q{q}: {} vs {truth}",
                b[i]
            );
        }
    }

    #[test]
    fn single_fragment_is_median() {
        let (_db, apt) = apt_with_values(&[Some(1), Some(2), Some(9)]);
        let x = apt.field_index("prov_t_x").unwrap();
        assert_eq!(fragment_boundaries(&apt, x, 1), vec![2.0]);
    }
}
