//! The machine's momentary speed, measured with a fixed kernel of the
//! benchmark's own, and timings scaled to a reference speed.
//!
//! On a shared host each vCPU of this machine changes speed on its own by up
//! to 2× within seconds, and every kind of code slows by the same factor:
//! two unrelated kernels alternated for a minute varied by ±20 % each while
//! the ratio of their times stayed within ±3 %. A slow spell can last most
//! of a run, and a median over the run cannot remove that. So the benchmark
//! times [`kernel`] on the measuring thread before and after every operation
//! it times, and reports the operation's time as it would read at the
//! *reference speed*, at which one kernel run takes [`REFERENCE_KERNEL_S`]:
//!
//! ```text
//! scaled = measured × REFERENCE_KERNEL_S / mean kernel reading around the operation
//! ```
//!
//! The kernel is benchmark code (sorting and hashing a fixed 16 KiB array,
//! no allocation), so no change to the library moves it; a change that makes
//! an operation faster or slower moves the scaled time by the same share as
//! the measured one. A reading measures the vCPU the measuring thread is
//! on, so the scaling tracks single-threaded work most closely and work
//! spread over both vCPUs less so. The measured medians and the kernel
//! readings are recorded in the summary line beside the scaled metrics.

use crate::stats::{median, min};
use crate::Outcome;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`kernel`] run takes at the reference speed. The value is
/// the kernel's typical time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest,
/// so scaled times there read close to measured ones.
pub const REFERENCE_KERNEL_S: f64 = 50e-6;

/// Kernel runs per [`kernel_seconds`] reading; the reading is their
/// fastest, which drops runs hit by an interrupt.
const RUNS_PER_READING: usize = 9;

const WORDS: usize = 2048;

/// The calibration kernel: fill a 16 KiB array from a fixed xorshift
/// sequence, sort it, and FNV-hash it.
pub fn kernel() -> u64 {
    let mut words = [0u64; WORDS];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for w in words.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *w = state;
    }
    black_box(&mut words).sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Seconds of one kernel run now: the fastest of a few back-to-back runs.
pub fn kernel_seconds() -> f64 {
    (0..RUNS_PER_READING)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times operations in reference-speed seconds.
#[derive(Debug)]
pub struct Clock {
    /// The kernel reading taken after the previous operation.
    last: f64,
    /// Every kernel reading, in seconds.
    readings: Vec<f64>,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl Clock {
    /// Take a first kernel reading.
    pub fn new() -> Clock {
        let last = kernel_seconds();
        Clock {
            last,
            readings: vec![last],
        }
    }

    /// Run `op` between two kernel readings; returns its result, its
    /// measured seconds, and its seconds at the reference speed (scaled by
    /// the mean of the readings before and after it). The reading after one
    /// operation serves as the reading before the next.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let t = Instant::now();
        let value = op();
        let measured = t.elapsed().as_secs_f64();
        let before = self.last;
        self.last = kernel_seconds();
        self.readings.push(self.last);
        let scaled = measured * REFERENCE_KERNEL_S * 2.0 / (before + self.last);
        (value, measured, scaled)
    }

    /// Start a new series: the next operation's "before" reading is taken
    /// now (after untimed work such as priming a session).
    pub fn restart(&mut self) {
        self.last = kernel_seconds();
        self.readings.push(self.last);
    }

    /// Every kernel reading so far, in seconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

/// Record the kernel's readings with a run's result.
pub fn record(clock: &Clock, out: &mut Outcome) {
    let r = clock.readings();
    let max = r.iter().copied().fold(0.0, f64::max);
    out.info.extend([
        ("reference_kernel_s", REFERENCE_KERNEL_S.to_string()),
        ("kernel_readings", r.len().to_string()),
        ("kernel_s_median", median(r).to_string()),
        ("kernel_s_min", min(r).to_string()),
        ("kernel_s_max", max.to_string()),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel());
        assert!(kernel_seconds() > 0.0);
    }

    #[test]
    fn time_scales_by_the_readings_around_the_operation() {
        let mut clock = Clock::new();
        let (value, measured, scaled) = clock.time(|| std::hint::black_box(kernel()));
        assert_eq!(value, kernel());
        let r = clock.readings();
        assert_eq!(r.len(), 2);
        let expected = measured * REFERENCE_KERNEL_S * 2.0 / (r[0] + r[1]);
        assert!((scaled - expected).abs() <= 1e-12 * expected.max(1.0));
        clock.restart();
        assert_eq!(clock.readings().len(), 3);
    }
}
