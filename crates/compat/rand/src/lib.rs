//! Offline stand-in for the `rand` crate.
//!
//! The build container has no network access, so the workspace vendors the
//! small API subset the CaJaDE crates actually use: [`rngs::StdRng`] (a
//! xoshiro256++ generator), [`SeedableRng::seed_from_u64`], the [`Rng`]
//! extension methods `gen`, `gen_range`, and `gen_bool`, and
//! [`seq::SliceRandom::shuffle`]. Determinism for a given seed is the only
//! contract callers rely on; the streams differ from upstream `rand`.

use std::ops::{Range, RangeInclusive};

/// Types that can construct themselves from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Distribution support for `Rng::gen::<T>()`.
pub trait Standard: Sized {
    /// Samples a uniform value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}
impl Standard for u64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for u32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}
impl Standard for i64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}
impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// A range that `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    /// Samples a uniform value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + uniform_u128(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + uniform_u128(rng, span) as i128) as $t
            }
        }
    )*};
}
int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u = f64::sample_standard(rng);
        let v = self.start + u * (self.end - self.start);
        // Guard against rounding up to the exclusive bound.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}
impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        lo + f64::sample_standard(rng) * (hi - lo)
    }
}

/// Unbiased sampling of `[0, span)` via rejection; `span == 0` means the
/// full 2^64 range (only reachable from the unsupported full-width case,
/// which the callers never hit).
#[inline]
fn uniform_u128<R: RngCore + ?Sized>(rng: &mut R, span: u128) -> u128 {
    debug_assert!(span > 0);
    if span == 1 {
        return 0;
    }
    // Zone-based rejection keeps the distribution exact: a draw counts
    // iff it is below `zone = MAX − MAX % span`. Everything up to
    // `MAX − span` is, so the zone's own 128-bit division only runs for
    // the top `span` values — one draw in 2^64 for the spans callers use.
    loop {
        let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        if wide <= u128::MAX - span || wide < u128::MAX - (u128::MAX % span) {
            return match u64::try_from(span) {
                // `hi·2^64 + lo ≡ (hi mod span)·2^64 + lo`: two 64-bit
                // divisions, where the generic 128-bit one is a loop.
                Ok(s) => ((((wide >> 64) as u64 % s) as u128) << 64 | wide as u64 as u128) % span,
                Err(_) => wide % span,
            };
        }
    }
}

/// The raw generator interface.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample of `T`'s standard distribution.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Uniform sample from `range`.
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// True with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample_standard(self) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically solid; deterministic
    /// per seed, which is all the workspace relies on.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::RngCore;

    /// Shuffling, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            let n = self.len();
            for i in (1..n).rev() {
                let j = (super::uniform_u128(rng, i as u128 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let v = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.gen_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    /// The sampler's shortcuts (zone check, split division) are exact:
    /// same draws consumed, same values out as the plain
    /// `wide < MAX − MAX % span` then `wide % span`.
    #[test]
    fn uniform_matches_the_plain_rejection_sampler() {
        let spans = [2, 3, 7, 35, 1_250, 5_000, 1 << 32, u64::MAX as u128];
        for span in spans.into_iter().chain([(1u128 << 64) + 5, u128::MAX]) {
            let mut fast = StdRng::seed_from_u64(span as u64);
            let mut plain = fast.clone();
            for _ in 0..200 {
                let expected = loop {
                    let wide = ((plain.next_u64() as u128) << 64) | plain.next_u64() as u128;
                    if wide < u128::MAX - (u128::MAX % span) {
                        break wide % span;
                    }
                };
                assert_eq!(
                    super::uniform_u128(&mut fast, span),
                    expected,
                    "span {span}"
                );
            }
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = StdRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle changed the order");
    }
}
