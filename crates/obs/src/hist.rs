//! Log-bucketed (HDR-style) latency histograms.
//!
//! Values are bucketed by a 4-bit-mantissa logarithmic scheme: every
//! power-of-two octave is split into 16 sub-buckets, and values below 16
//! are recorded exactly. A bucket's representative value is its midpoint,
//! so the relative quantile-estimation error is bounded by half a
//! sub-bucket width: **≤ 1/32 (3.125%)** — pinned by a unit test.
//!
//! Recording is lock-free (one `fetch_add` on an atomic bucket plus the
//! sum and max accumulators), so histograms can be shared across the
//! worker threads of a parallel stage without contention games.
//! [`HistSnapshot`]s are plain data: sparse (bucket index, count) pairs,
//! so the registry snapshots live histograms without stopping writers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// 4 mantissa bits → 16 sub-buckets per octave.
const MANTISSA_BITS: u32 = 4;
const SUBBUCKETS: u32 = 1 << MANTISSA_BITS; // 16
/// Exact buckets 0..16, then 60 octaves (msb 4..=63) × 16 sub-buckets.
const NUM_BUCKETS: usize = (SUBBUCKETS + (64 - MANTISSA_BITS) * SUBBUCKETS) as usize; // 976

/// Maps a value to its bucket index. Exact below 16; above, the index is
/// `(msb - 3) * 16 + next-4-bits`, which lines up contiguously with the
/// exact region (`bucket_index(16) == 16`).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ 4
    let shift = msb - MANTISSA_BITS;
    let sub = (v >> shift) & (SUBBUCKETS as u64 - 1);
    ((msb - MANTISSA_BITS + 1) * SUBBUCKETS) as usize + sub as usize
}

/// The midpoint of a bucket's value range — the representative returned
/// by quantile estimation.
fn bucket_mid(idx: usize) -> u64 {
    if idx < SUBBUCKETS as usize {
        return idx as u64;
    }
    let octave = idx as u64 / SUBBUCKETS as u64; // ≥ 1
    let sub = idx as u64 % SUBBUCKETS as u64;
    let shift = (octave - 1) as u32; // msb - MANTISSA_BITS
    let lower = (SUBBUCKETS as u64 + sub) << shift;
    let width = 1u64 << shift;
    lower + width / 2
}

/// A concurrent log-bucketed histogram of `u64` samples (typically µs).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the distribution. Concurrent writers may
    /// land between bucket reads; the count is the bucket sum, so it
    /// always agrees with the buckets.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
                count += n;
            }
        }
        HistSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of a [`Histogram`]: sparse `(bucket, count)`
/// pairs sorted by bucket index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Non-empty buckets as `(bucket index, sample count)`, ascending.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (µs when fed by `record_duration`).
    pub sum: u64,
    /// Largest recorded sample (exact, not bucketed).
    pub max: u64,
}

impl HistSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the representative
    /// midpoint of the bucket holding that rank. Returns 0 for an empty
    /// snapshot; `q = 1.0` returns the exact observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q.max(0.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(idx, n) in &self.buckets {
            cum += n;
            if cum >= target {
                return bucket_mid(idx as usize);
            }
        }
        self.max
    }

    /// Mean of the recorded samples (0 for an empty snapshot).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_index_is_monotonic_and_mid_lands_in_bucket() {
        let mut prev = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at v={v}");
            prev = idx;
            assert_eq!(
                bucket_index(bucket_mid(idx)),
                idx,
                "midpoint escapes bucket {idx}"
            );
            v = v.saturating_mul(3) / 2 + 1;
        }
    }

    /// Satellite: pins the quantile estimation error bound. Bucket
    /// midpoints are at most half a sub-bucket (1/32 ≈ 3.125%) from any
    /// member value.
    #[test]
    fn quantile_relative_error_is_bounded() {
        let h = Histogram::new();
        // Deterministic LCG over a wide dynamic range (~1 µs .. ~17 s).
        let mut x = 0x2545f4914f6cdd1du64;
        let mut samples = Vec::with_capacity(10_000);
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1 + (x >> 40) % (1 << (4 + (i % 21))); // varying magnitudes
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        for &q in &[0.5, 0.9, 0.99, 0.999] {
            let exact = samples[(((q * samples.len() as f64).ceil() as usize).max(1)) - 1];
            let est = snap.quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(
                err <= 1.0 / 32.0 + 1e-9,
                "q={q}: est {est} vs exact {exact}, rel err {err}"
            );
        }
        assert_eq!(snap.quantile(1.0), *samples.last().unwrap());
        assert_eq!(snap.count, 10_000);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 997);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 40_000);
        assert_eq!(
            h.snapshot().buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            40_000
        );
    }

    #[test]
    fn record_duration_uses_micros() {
        let h = Histogram::new();
        h.record_duration(Duration::from_millis(3));
        let snap = h.snapshot();
        assert_eq!(snap.max, 3_000);
        assert_eq!(snap.sum, 3_000);
    }
}
