//! Virtual time for discrete-event simulation.
//!
//! Simulated time is a finite, non-negative number of seconds. Durations are
//! finite (possibly zero) numbers of seconds. Both are thin wrappers over
//! `f64` that uphold the finiteness invariant on every constructor, which is
//! what lets them implement [`Ord`] soundly.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Error returned when constructing a [`SimTime`] or [`SimDuration`] from an
/// invalid floating-point value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeError {
    /// The value was NaN or infinite.
    NotFinite,
    /// The value was negative where a non-negative value is required.
    Negative,
}

impl fmt::Display for TimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeError::NotFinite => write!(f, "time value was not finite"),
            TimeError::Negative => write!(f, "time value was negative"),
        }
    }
}

impl std::error::Error for TimeError {}

/// An instant of simulated time, in seconds since the start of the
/// simulation.
///
/// `SimTime` is always finite and non-negative, which makes its `Ord`
/// implementation total and panic-free.
///
/// # Example
///
/// ```
/// use omn_sim::{SimTime, SimDuration};
///
/// let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
/// assert_eq!(t.as_secs(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. Always finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from a number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN, infinite, or negative. Use
    /// [`SimTime::try_from_secs`] for fallible construction.
    #[must_use]
    pub fn from_secs(secs: f64) -> SimTime {
        SimTime::try_from_secs(secs).expect("SimTime::from_secs: invalid value")
    }

    /// Fallible constructor from a number of seconds.
    ///
    /// # Errors
    ///
    /// Returns [`TimeError::NotFinite`] for NaN/infinite inputs and
    /// [`TimeError::Negative`] for negative inputs.
    pub fn try_from_secs(secs: f64) -> Result<SimTime, TimeError> {
        if !secs.is_finite() {
            Err(TimeError::NotFinite)
        } else if secs < 0.0 {
            Err(TimeError::Negative)
        } else {
            Ok(SimTime(secs))
        }
    }

    /// Creates a time from a number of hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> SimTime {
        SimTime::from_secs(hours * 3600.0)
    }

    /// Creates a time from a number of days.
    #[must_use]
    pub fn from_days(days: f64) -> SimTime {
        SimTime::from_secs(days * 86_400.0)
    }

    /// The time as seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The time as hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// The time as days.
    #[must_use]
    pub fn as_days(self) -> f64 {
        self.0 / 86_400.0
    }

    /// The duration since an earlier instant, saturating to zero if
    /// `earlier` is in fact later.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }

    /// The duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier > self`.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from a number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN, infinite, or negative. Use
    /// [`SimDuration::try_from_secs`] for fallible construction.
    #[must_use]
    pub fn from_secs(secs: f64) -> SimDuration {
        SimDuration::try_from_secs(secs).expect("SimDuration::from_secs: invalid value")
    }

    /// Fallible constructor from a number of seconds.
    ///
    /// # Errors
    ///
    /// Returns [`TimeError::NotFinite`] for NaN/infinite inputs and
    /// [`TimeError::Negative`] for negative inputs.
    pub fn try_from_secs(secs: f64) -> Result<SimDuration, TimeError> {
        if !secs.is_finite() {
            Err(TimeError::NotFinite)
        } else if secs < 0.0 {
            Err(TimeError::Negative)
        } else {
            Ok(SimDuration(secs))
        }
    }

    /// Creates a duration from a number of minutes.
    #[must_use]
    pub fn from_mins(mins: f64) -> SimDuration {
        SimDuration::from_secs(mins * 60.0)
    }

    /// Creates a duration from a number of hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> SimDuration {
        SimDuration::from_secs(hours * 3600.0)
    }

    /// Creates a duration from a number of days.
    #[must_use]
    pub fn from_days(days: f64) -> SimDuration {
        SimDuration::from_secs(days * 86_400.0)
    }

    /// The duration as seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The duration as hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// True if this duration is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

// The finiteness invariant makes `total_cmp` agree with the usual numeric
// order, so Eq/Ord are sound.
impl Eq for SimTime {}
impl Eq for SimDuration {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &SimTime) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &SimTime) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &SimDuration) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimDuration {
    fn cmp(&self, other: &SimDuration) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// Computes `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`; see [`SimTime::saturating_since`] for the
    /// non-panicking version.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    /// Computes `self - rhs`, saturating at zero.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    /// Scales the duration.
    ///
    /// # Panics
    ///
    /// Panics if the scale factor is negative or not finite.
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;

    /// Divides the duration.
    ///
    /// # Panics
    ///
    /// Panics if the divisor is zero, negative, or not finite.
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;

    /// Ratio of two durations.
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(3600.0).as_hours(), 1.0);
        assert_eq!(SimTime::from_hours(2.0).as_secs(), 7200.0);
        assert_eq!(SimTime::from_days(1.0).as_hours(), 24.0);
        assert_eq!(SimDuration::from_mins(2.0).as_secs(), 120.0);
        assert_eq!(SimDuration::from_days(0.5).as_hours(), 12.0);
    }

    #[test]
    fn rejects_non_finite() {
        assert_eq!(SimTime::try_from_secs(f64::NAN), Err(TimeError::NotFinite));
        assert_eq!(
            SimTime::try_from_secs(f64::INFINITY),
            Err(TimeError::NotFinite)
        );
        assert_eq!(SimTime::try_from_secs(-1.0), Err(TimeError::Negative));
        assert_eq!(
            SimDuration::try_from_secs(f64::NEG_INFINITY),
            Err(TimeError::NotFinite)
        );
        assert_eq!(SimDuration::try_from_secs(-0.1), Err(TimeError::Negative));
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn from_secs_panics_on_nan() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0);
        let d = SimDuration::from_secs(4.0);
        assert_eq!(t + d, SimTime::from_secs(14.0));
        assert_eq!((t + d) - t, d);
        assert_eq!(d + d, SimDuration::from_secs(8.0));
        assert_eq!(d - SimDuration::from_secs(10.0), SimDuration::ZERO);
        assert_eq!(d * 2.5, SimDuration::from_secs(10.0));
        assert_eq!(d / 2.0, SimDuration::from_secs(2.0));
        assert_eq!(d / SimDuration::from_secs(2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_when_reversed() {
        let _ = SimTime::from_secs(1.0).since(SimTime::from_secs(2.0));
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(5.0);
        assert_eq!(b.saturating_since(a).as_secs(), 4.0);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(3.0),
            SimTime::ZERO,
            SimTime::from_secs(1.5),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(1.5),
                SimTime::from_secs(3.0)
            ]
        );
        assert_eq!(SimTime::from_secs(2.0).min(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(
            SimTime::from_secs(2.0).max(SimTime::ZERO),
            SimTime::from_secs(2.0)
        );
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(f64::from(i))).sum();
        assert_eq!(total, SimDuration::from_secs(10.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500s");
        assert_eq!(SimDuration::from_secs(0.25).to_string(), "0.250s");
    }
}
