//! Machine-speed calibration.
//!
//! The boxes this benchmark runs on share their cores with other tenants,
//! and their effective speed drifts by tens of percent over seconds to
//! minutes: a fixed single-threaded loop timed here for five minutes
//! moved 13 % between 20 s windows, and two ten-run studies half an hour
//! apart differed by up to 36 % on the same op. A regression bound of
//! 25 % on raw wall time would gate on the weather. So the harness times
//! a fixed kernel of its own before and after every cycle and reports the
//! cycle's op latencies at a reference speed: measured ms ÷ (kernel ms ÷
//! reference kernel ms). Over 25 minutes in which the factor wandered
//! between 0.98 and 1.54, that cut the spread of the single-threaded ops
//! (register, query) from 26 % to 7–9 % and of warm asks from 16 % to
//! 7 %, and left cold asks, which the box's mood moves least, where they
//! were (8–14 %). The factor is reported beside every result, so raw
//! times can be recovered.

use std::time::Instant;

/// Kernel time that counts as speed 1.0: this box on a quiet minute.
pub const REFERENCE_MS: f64 = 5.6;

/// 2 MiB of `u64`s: larger than the L2, so the kernel feels cache and
/// memory contention as well as a busy sibling thread.
const WORDS: usize = 1 << 18;

pub struct Calibrator {
    buf: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            buf: vec![0; WORDS],
        };
        c.kernel_ms(); // touch the buffer once
        c
    }

    /// Fills the buffer from a fixed xorshift stream, sorts it and
    /// checksums it: the same work every time.
    fn kernel_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for v in self.buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.buf.sort_unstable();
        let sum = self
            .buf
            .iter()
            .step_by(17)
            .fold(0u64, |s, v| s.wrapping_add(*v));
        std::hint::black_box(sum);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The machine's speed factor right now: the median of three kernel
    /// runs over the reference time. Above 1.0 means slower than reference.
    pub fn speed_factor(&mut self) -> f64 {
        let mut runs = [self.kernel_ms(), self.kernel_ms(), self.kernel_ms()];
        runs.sort_by(f64::total_cmp);
        runs[1] / REFERENCE_MS
    }

    /// Runs `f` between two speed samples and times it.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.speed_factor();
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let factor = (before + self.speed_factor()) / 2.0;
        (out, Timed { raw_s, factor })
    }
}

/// How long something took and how fast the machine was meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw_s: f64,
    /// Mean of the speed factors sampled just before and just after.
    pub factor: f64,
}

impl Timed {
    /// The duration at reference speed.
    pub fn seconds(&self) -> f64 {
        self.raw_s / self.factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_divides_the_wall_by_the_speed_factor() {
        let mut c = Calibrator::new();
        let (out, t) = c.timed(|| 7);
        assert_eq!(out, 7);
        assert!(t.factor > 0.0 && t.raw_s >= 0.0);
        let slow = Timed {
            raw_s: 3.0,
            factor: 1.5,
        };
        assert_eq!(slow.seconds(), 2.0);
    }
}
