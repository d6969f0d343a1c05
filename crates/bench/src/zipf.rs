//! Seeded Zipfian key sampling for the contention harness.
//!
//! The paper's workloads touch uniformly spread objects; the lock-wait
//! ceiling only shows under *skew*, so `camelot-load` samples keys
//! from a Zipf(θ) distribution: key of rank `r` (1-based) has weight
//! `1/r^θ`. The sampler precomputes the cumulative distribution once
//! and answers each sample with a binary search — deterministic for a
//! given `(seed, keys, θ)`, with no external crates.

use camelot_types::SplitMix64;

/// Zipf(θ) sampler over ranks `0..keys` (rank 0 is the hottest key).
/// θ = 0 is uniform; θ around 0.99 is the YCSB-style hot-spot skew.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(keys: usize, theta: f64) -> Zipf {
        assert!(keys > 0, "zipf needs at least one key");
        let mut cdf = Vec::with_capacity(keys);
        let mut acc = 0.0f64;
        for r in 1..=keys {
            acc += 1.0 / (r as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn keys(&self) -> usize {
        self.cdf.len()
    }

    /// Rank for one uniform draw (0 = hottest).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        // First rank whose cumulative weight covers u.
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_masses_sum_to_one_and_rank_monotone() {
        let z = Zipf::new(100, 0.99);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        for w in z.cdf.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
