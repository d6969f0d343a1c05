//! Seeded randomness for the simulator.
//!
//! All stochastic elements of an experiment (scheduling jitter,
//! workload think times) draw from one [`SimRng`], so a run is fully
//! determined by its seed. The generator is `rand`'s ChaCha-based
//! `StdRng`; its stream is stable for a fixed dependency version, which
//! is all reproducibility requires inside this repository.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use camelot_types::Duration;

/// Deterministic random number generator with distribution helpers.
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen_range(0.0..1.0)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Exponentially distributed duration with the given mean.
    /// Used for Poisson arrivals and for OS scheduling jitter, whose
    /// long right tail is what drives the variance growth the paper
    /// observed under load.
    pub fn exp(&mut self, mean: Duration) -> Duration {
        if mean == Duration::ZERO {
            return Duration::ZERO;
        }
        // Inverse-CDF sampling; u is in (0,1] to avoid ln(0).
        let u = 1.0 - self.unit();
        let x = -(u.ln()) * mean.as_micros() as f64;
        Duration::from_micros(x.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.uniform_u64(0, u64::MAX - 1)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.uniform_u64(0, u64::MAX - 1)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut r = SimRng::new(42);
        let mean = Duration::from_millis(10);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.exp(mean).as_micros()).sum();
        let avg = total as f64 / n as f64;
        assert!((9_000.0..11_000.0).contains(&avg), "avg {avg}us");
    }

    #[test]
    fn exp_of_zero_mean_is_zero() {
        let mut r = SimRng::new(1);
        assert_eq!(r.exp(Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
