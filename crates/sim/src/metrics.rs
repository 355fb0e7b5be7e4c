//! Measurement primitives for simulations.
//!
//! * [`Counter`] — monotone event counts (transmissions, replicas, drops…).
//! * [`TimeWeightedMean`] — the time-average of a piecewise-constant signal,
//!   e.g. "fraction of cache copies that are fresh".
//! * [`SampleHistogram`] — a store of scalar samples with quantiles
//!   (delays, hop counts…).
//! * [`Timeline`] — a recorded `(time, value)` series for plotting.
//! * [`Registry`] — a string-keyed collection of counters for ad-hoc
//!   overhead accounting.

use std::collections::BTreeMap;
use std::fmt;

use crate::stats::Summary;
use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Time-average of a piecewise-constant signal.
///
/// Feed it every change point with [`TimeWeightedMean::update`]; the final
/// average over `[start, end]` weights each value by how long it was in
/// effect.
///
/// # Example
///
/// ```
/// use omn_sim::metrics::TimeWeightedMean;
/// use omn_sim::SimTime;
///
/// let mut m = TimeWeightedMean::starting_at(SimTime::ZERO, 0.0);
/// m.update(SimTime::from_secs(4.0), 1.0); // value was 0.0 for 4s
/// let mean = m.finish(SimTime::from_secs(8.0)); // then 1.0 for 4s
/// assert!((mean - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeightedMean {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    total_time: f64,
}

impl TimeWeightedMean {
    /// Starts tracking at `start` with initial value `value`.
    #[must_use]
    pub fn starting_at(start: SimTime, value: f64) -> TimeWeightedMean {
        TimeWeightedMean {
            last_time: start,
            last_value: value,
            weighted_sum: 0.0,
            total_time: 0.0,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn update(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last_time).as_secs();
        self.weighted_sum += self.last_value * dt;
        self.total_time += dt;
        self.last_time = now;
        self.last_value = value;
    }

    /// The current value of the signal.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Closes the window at `end` and returns the time-weighted mean.
    /// Returns the last value when the window has zero length.
    #[must_use]
    pub fn finish(mut self, end: SimTime) -> f64 {
        self.update(end, self.last_value);
        if self.total_time == 0.0 {
            self.last_value
        } else {
            self.weighted_sum / self.total_time
        }
    }
}

/// A store of scalar samples with summary statistics and quantiles.
///
/// Samples must be finite; non-finite samples are rejected with a panic to
/// surface measurement bugs immediately.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleHistogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> SampleHistogram {
        SampleHistogram::default()
    }

    /// Records a sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or infinite.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "SampleHistogram::record: non-finite sample");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation, or `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.samples.len();
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Full summary statistics, or `None` when empty.
    pub fn summary(&mut self) -> Option<Summary> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        Some(Summary::from_sorted(&self.samples))
    }

    /// Borrow the raw samples (unspecified order).
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &SampleHistogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

impl Extend<f64> for SampleHistogram {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for SampleHistogram {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> SampleHistogram {
        let mut h = SampleHistogram::new();
        h.extend(iter);
        h
    }
}

/// A recorded `(time, value)` series.
///
/// Points must be appended in non-decreasing time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    points: Vec<(SimTime, f64)>,
}

impl Timeline {
    /// Creates an empty timeline.
    #[must_use]
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded time or `v` is not finite.
    pub fn push(&mut self, t: SimTime, v: f64) {
        assert!(v.is_finite(), "Timeline::push: non-finite value");
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "Timeline::push: time went backwards");
        }
        self.points.push((t, v));
    }

    /// The recorded points.
    #[must_use]
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The value in effect at time `t` (step interpolation), or `None` if
    /// `t` precedes the first point.
    #[must_use]
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => None,
            i => Some(self.points[i - 1].1),
        }
    }

    /// Resamples the step function onto `n` evenly spaced instants across
    /// `[start, end]`, carrying the last value forward. Instants before the
    /// first point get the first point's value.
    ///
    /// Contract: `start <= end`. An inverted range describes no instants,
    /// so it yields an empty vec (it previously clamped the span to zero
    /// and returned `n` copies of the value at `start`, silently
    /// mislabeling every point).
    #[must_use]
    pub fn resample(&self, start: SimTime, end: SimTime, n: usize) -> Vec<(SimTime, f64)> {
        if self.points.is_empty() || n == 0 || end < start {
            return Vec::new();
        }
        let span = end.saturating_since(start).as_secs();
        let first = self.points[0].1;
        (0..n)
            .map(|i| {
                let frac = if n == 1 {
                    0.0
                } else {
                    i as f64 / (n - 1) as f64
                };
                let t = start + SimDuration::from_secs(span * frac);
                (t, self.value_at(t).unwrap_or(first))
            })
            .collect()
    }
}

/// A string-keyed collection of counters.
///
/// Iteration order is alphabetical, which keeps printed reports stable.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, Counter>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Increments the named counter by one, creating it if needed.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the named counter, creating it if needed.
    pub fn add(&mut self, name: &str, n: u64) {
        self.counters.entry(name.to_owned()).or_default().add(n);
    }

    /// The value of the named counter, or zero if never touched.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::get)
    }

    /// Iterates over `(name, count)` pairs in alphabetical order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    /// Merges another registry into this one by summing counters.
    pub fn merge(&mut self, other: &Registry) {
        for (name, count) in other.iter() {
            self.add(name, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn time_weighted_mean_simple() {
        let mut m = TimeWeightedMean::starting_at(t(0.0), 2.0);
        m.update(t(1.0), 4.0);
        // 2.0 for 1s, 4.0 for 3s -> (2 + 12)/4 = 3.5
        let mean = m.finish(t(4.0));
        assert!((mean - 3.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_zero_window() {
        let m = TimeWeightedMean::starting_at(t(5.0), 7.0);
        assert_eq!(m.finish(t(5.0)), 7.0);
    }

    #[test]
    fn time_weighted_mean_repeated_updates_same_time() {
        let mut m = TimeWeightedMean::starting_at(t(0.0), 0.0);
        m.update(t(0.0), 1.0);
        m.update(t(0.0), 0.5);
        let mean = m.finish(t(2.0));
        assert!((mean - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h: SampleHistogram = (1..=100).map(f64::from).collect();
        assert_eq!(h.len(), 100);
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.5).abs() < 1e-9);
        assert!((h.mean().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty() {
        let mut h = SampleHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.summary().is_none());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn histogram_rejects_nan() {
        SampleHistogram::new().record(f64::NAN);
    }

    #[test]
    fn histogram_merge() {
        let mut a: SampleHistogram = vec![1.0, 2.0].into_iter().collect();
        let b: SampleHistogram = vec![3.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert!((a.mean().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_step_lookup() {
        let mut tl = Timeline::new();
        tl.push(t(1.0), 10.0);
        tl.push(t(3.0), 20.0);
        assert_eq!(tl.value_at(t(0.5)), None);
        assert_eq!(tl.value_at(t(1.0)), Some(10.0));
        assert_eq!(tl.value_at(t(2.9)), Some(10.0));
        assert_eq!(tl.value_at(t(3.0)), Some(20.0));
        assert_eq!(tl.value_at(t(99.0)), Some(20.0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn timeline_rejects_time_regression() {
        let mut tl = Timeline::new();
        tl.push(t(2.0), 1.0);
        tl.push(t(1.0), 1.0);
    }

    #[test]
    fn timeline_resample() {
        let mut tl = Timeline::new();
        tl.push(t(0.0), 1.0);
        tl.push(t(10.0), 2.0);
        let pts = tl.resample(t(0.0), t(20.0), 5);
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].1, 1.0);
        assert_eq!(pts[1].1, 1.0); // t=5
        assert_eq!(pts[2].1, 2.0); // t=10
        assert_eq!(pts[4].1, 2.0); // t=20
    }

    #[test]
    fn timeline_resample_inverted_range_is_empty() {
        let mut tl = Timeline::new();
        tl.push(t(0.0), 1.0);
        tl.push(t(10.0), 2.0);
        assert!(tl.resample(t(20.0), t(0.0), 5).is_empty());
        // Degenerate-but-valid range still yields n copies of one instant.
        assert_eq!(tl.resample(t(10.0), t(10.0), 3).len(), 3);
    }

    #[test]
    fn registry_accounting() {
        let mut r = Registry::new();
        r.incr("tx");
        r.add("tx", 2);
        r.incr("drop");
        assert_eq!(r.get("tx"), 3);
        assert_eq!(r.get("missing"), 0);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["drop", "tx"]);

        let mut other = Registry::new();
        other.add("tx", 10);
        r.merge(&other);
        assert_eq!(r.get("tx"), 13);
    }
}
