//! Statistics for reporting simulation results.
//!
//! Provides summary statistics ([`Summary`]), empirical CDFs
//! ([`EmpiricalCdf`]), and normal approximation 95% confidence intervals
//! ([`mean_ci95`]) for averaging experiment results across seeds.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (linear interpolation).
    pub median: f64,
    /// 95th percentile (linear interpolation).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary from samples that are already sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is empty.
    #[must_use]
    pub fn from_sorted(sorted: &[f64]) -> Summary {
        assert!(!sorted.is_empty(), "Summary::from_sorted: empty sample");
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        };
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            median: quantile_sorted(sorted, 0.5),
            p95: quantile_sorted(sorted, 0.95),
            max: sorted[n - 1],
        }
    }

    /// Computes a summary from unsorted samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "Summary::from_samples: non-finite sample"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary::from_sorted(&sorted)
    }
}

/// The `q`-quantile of a sorted slice by linear interpolation.
///
/// # Panics
///
/// Panics if the slice is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile_sorted: empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile_sorted: q = {q}");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Mean and half-width of a normal-approximation 95% confidence interval.
///
/// Returns `(mean, half_width)`. For `n < 2` the half-width is 0. The normal
/// critical value 1.96 is used; for the small replication counts used in
/// experiments (5–20 seeds) this slightly understates the interval relative
/// to Student's t, which is acceptable for the qualitative comparisons the
/// harness reports.
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "mean_ci95: empty sample");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

/// An empirical cumulative distribution function built from samples.
///
/// # Example
///
/// ```
/// use omn_sim::stats::EmpiricalCdf;
///
/// let cdf = EmpiricalCdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.eval(0.0), 0.0);
/// assert_eq!(cdf.eval(2.0), 0.5);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    #[must_use]
    pub fn from_samples(mut samples: Vec<f64>) -> EmpiricalCdf {
        assert!(!samples.is_empty(), "EmpiricalCdf: empty sample");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "EmpiricalCdf: non-finite sample"
        );
        samples.sort_by(f64::total_cmp);
        EmpiricalCdf { sorted: samples }
    }

    /// F(x): the fraction of samples ≤ `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|&s| s <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (inverse CDF, linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// Number of underlying samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction requires a non-empty sample.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Evaluates the CDF at `n` evenly spaced points spanning the sample
    /// range, returning `(x, F(x))` pairs suitable for plotting.
    #[must_use]
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        (0..n)
            .map(|i| {
                let frac = if n == 1 {
                    1.0
                } else {
                    i as f64 / (n - 1) as f64
                };
                let x = lo + (hi - lo) * frac;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Maximum absolute difference to another CDF over both sample sets
    /// (two-sample Kolmogorov–Smirnov statistic).
    #[must_use]
    pub fn ks_distance(&self, other: &EmpiricalCdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_samples(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.median - 3.0).abs() < 1e-12);
        // std dev of 1..5 = sqrt(2.5)
        assert!((s.std_dev - 2.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p95, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile_sorted(&sorted, 0.25), 2.5);
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
    }

    #[test]
    fn ci_half_width_shrinks_with_n() {
        let small: Vec<f64> = (0..10).map(|i| f64::from(i % 2)).collect();
        let large: Vec<f64> = (0..1000).map(|i| f64::from(i % 2)).collect();
        let (_, hw_small) = mean_ci95(&small);
        let (_, hw_large) = mean_ci95(&large);
        assert!(hw_large < hw_small);
        let (m, hw) = mean_ci95(&[5.0]);
        assert_eq!((m, hw), (5.0, 0.0));
    }

    #[test]
    fn cdf_evaluation() {
        let cdf = EmpiricalCdf::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.5), 0.5);
        assert_eq!(cdf.eval(4.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.len(), 4);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let cdf = EmpiricalCdf::from_samples((1..=50).map(f64::from).collect());
        let curve = cdf.curve(20);
        assert_eq!(curve.len(), 20);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn ks_distance_identical_is_zero() {
        let a = EmpiricalCdf::from_samples(vec![1.0, 2.0, 3.0]);
        let b = EmpiricalCdf::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
        let c = EmpiricalCdf::from_samples(vec![10.0, 20.0, 30.0]);
        assert_eq!(a.ks_distance(&c), 1.0);
    }
}
