//! Statistics accumulators for experiments.
//!
//! The paper reports means with standard deviations (Figures 2 and 3
//! print the standard deviation next to each point) and throughput in
//! transactions per second (Figures 4 and 5). [`Summary`] is a
//! streaming Welford accumulator; [`Series`] additionally retains the
//! samples for percentiles.

use std::fmt;

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n-1 denominator); 0 for fewer than
    /// two samples.
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} sd={:.1} min={:.1} max={:.1}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min(),
            self.max()
        )
    }
}

/// Sample-retaining series: everything `Summary` offers plus
/// percentiles.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<f64>,
    summary: Summary,
}

impl Series {
    pub fn new() -> Self {
        Series {
            samples: Vec::new(),
            summary: Summary::new(),
        }
    }

    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        self.summary.add(x);
    }

    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    pub fn stddev(&self) -> f64 {
        self.summary.stddev()
    }

    pub fn min(&self) -> f64 {
        self.summary.min()
    }

    pub fn max(&self) -> f64 {
        self.summary.max()
    }

    /// The `p`-th percentile (0 <= p <= 100) by nearest-rank on the
    /// sorted samples.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty or `p` is out of range.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(!self.samples.is_empty(), "percentile of empty series");
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        // Nearest-rank: the smallest sample with at least p% of the
        // distribution at or below it.
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample sd of this classic set is ~2.138.
        assert!((s.stddev() - 2.138).abs() < 0.01, "{}", s.stddev());
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_nan_and_zero_sd() {
        let s = Summary::new();
        assert!(s.mean().is_nan());
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        b.add(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let empty = Summary::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn series_percentiles() {
        let mut s = Series::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(90.0), 90.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty series")]
    fn empty_percentile_panics() {
        Series::new().percentile(50.0);
    }

    #[test]
    fn display_format() {
        let mut s = Summary::new();
        s.add(1.0);
        s.add(3.0);
        assert_eq!(s.to_string(), "n=2 mean=2.0 sd=1.4 min=1.0 max=3.0");
    }
}
