//! Latency summaries: a median plus the highest percentile the sample
//! count supports.

/// Percentile ladder the tail rule picks from, highest first, each with
/// the samples per thousand that lie beyond it (kept as integers so the
/// rule is exact at the boundaries).
const LADDER: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Median, sample count and supported tail of one latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub n: usize,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// The highest ladder percentile with at least ten samples beyond
    /// it; 50 when the population is too small for any of them.
    pub tail_pct: f64,
}

/// Linear-interpolated percentile of an ascending slice (`p` in 0..=100),
/// the same rule as Python's `statistics.quantiles(..., method="inclusive")`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest ladder percentile that leaves ≥ 10 of `n` samples beyond it.
pub fn tail_pct(n: usize) -> f64 {
    LADDER
        .into_iter()
        .find(|&(_, beyond_per_mille)| n * beyond_per_mille >= MIN_BEYOND * 1000)
        .map_or(50.0, |(p, _)| p)
}

/// Summarizes a latency population; `None` when it is empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_pct(sorted.len());
    Some(Summary {
        p50: percentile(&sorted, 50.0),
        n: sorted.len(),
        tail: percentile(&sorted, tail_pct),
        tail_pct,
    })
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).expect("median of an empty sample").p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 25.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_pct(5), 50.0);
        assert_eq!(tail_pct(39), 50.0);
        assert_eq!(tail_pct(40), 75.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(1_000), 99.0);
        assert_eq!(tail_pct(10_000), 99.9);
    }

    #[test]
    fn summary_reports_median_and_supported_tail() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail_pct, 90.0);
        assert!((s.tail - 90.1).abs() < 1e-9);
        assert!(summarize(&[]).is_none());
    }
}
