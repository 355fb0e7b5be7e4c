//! Versioned data, freshness requirements, and freshness measurement.

use omn_sim::metrics::{TimeWeightedMean, Timeline};
use omn_sim::{SimDuration, SimTime};

/// The update schedule of a data item: when each version is born at the
/// source. Births are periodic, as the paper's data is "refreshed
/// periodically". Version `v` supersedes version `v − 1`; a cached copy is
/// *fresh* at time `t` iff it holds the version current at `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateSchedule {
    births: Vec<SimTime>,
}

impl UpdateSchedule {
    /// Periodic updates: version `v` born at `v · period`, for as many
    /// versions as fit in `span` (version 0 is born at time zero).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn periodic(period: SimDuration, span: SimTime) -> UpdateSchedule {
        assert!(!period.is_zero(), "UpdateSchedule::periodic: zero period");
        let mut births = vec![SimTime::ZERO];
        let mut t = SimTime::ZERO + period;
        while t <= span {
            births.push(t);
            t += period;
        }
        UpdateSchedule { births }
    }

    /// Number of versions in the schedule.
    #[must_use]
    pub fn version_count(&self) -> u64 {
        self.births.len() as u64
    }

    /// The version current at `now` (the highest version with
    /// `birth ≤ now`), or `None` before the first birth.
    #[must_use]
    pub fn current_version(&self, now: SimTime) -> Option<u64> {
        match self.births.partition_point(|&b| b <= now) {
            0 => None,
            k => Some(k as u64 - 1),
        }
    }

    /// The birth time of version `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is beyond the schedule.
    #[must_use]
    pub fn birth_of(&self, v: u64) -> SimTime {
        self.births[usize::try_from(v).expect("version fits usize")]
    }

    /// All birth times in order.
    #[must_use]
    pub fn births(&self) -> &[SimTime] {
        &self.births
    }
}

/// A freshness requirement: each caching node must obtain each new version
/// within `deadline` of its birth with probability at least `probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreshnessRequirement {
    /// Required probability, in `(0, 1)`.
    pub probability: f64,
    /// The per-version refresh deadline.
    pub deadline: SimDuration,
}

impl FreshnessRequirement {
    /// Creates a requirement.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `(0, 1)` or `deadline` is zero.
    #[must_use]
    pub fn new(probability: f64, deadline: SimDuration) -> FreshnessRequirement {
        assert!(
            probability > 0.0 && probability < 1.0,
            "FreshnessRequirement: probability must be in (0, 1), got {probability}"
        );
        assert!(!deadline.is_zero(), "FreshnessRequirement: zero deadline");
        FreshnessRequirement {
            probability,
            deadline,
        }
    }

    /// The per-hop probability target for a node at tree depth `depth`
    /// (hops from the source): the end-to-end requirement `q` is met if
    /// each hop independently succeeds with probability `q^(1/depth)`.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` (the source itself has no refresh hop).
    #[must_use]
    pub fn per_hop_target(&self, depth: usize) -> f64 {
        assert!(depth > 0, "per_hop_target: depth must be positive");
        self.probability.powf(1.0 / depth as f64)
    }
}

/// Measures the cache-freshness ratio over time: the fraction of caching
/// nodes holding the current version, as a time-weighted signal.
#[derive(Debug, Clone)]
pub struct FreshnessTracker {
    member_count: usize,
    fresh_count: usize,
    mean: TimeWeightedMean,
    timeline: Timeline,
}

impl FreshnessTracker {
    /// Starts tracking `member_count` caching nodes at `start`, with
    /// `initially_fresh` of them fresh.
    ///
    /// # Panics
    ///
    /// Panics if `member_count == 0` or `initially_fresh > member_count`.
    #[must_use]
    pub fn new(member_count: usize, initially_fresh: usize, start: SimTime) -> FreshnessTracker {
        assert!(member_count > 0, "FreshnessTracker: no members");
        assert!(
            initially_fresh <= member_count,
            "FreshnessTracker: more fresh than members"
        );
        let ratio = initially_fresh as f64 / member_count as f64;
        let mut timeline = Timeline::new();
        timeline.push(start, ratio);
        FreshnessTracker {
            member_count,
            fresh_count: initially_fresh,
            mean: TimeWeightedMean::starting_at(start, ratio),
            timeline,
        }
    }

    /// Records that the number of fresh members changed to `fresh` at
    /// `now`.
    ///
    /// # Panics
    ///
    /// Panics if `fresh > member_count` or time goes backwards.
    pub fn set_fresh(&mut self, fresh: usize, now: SimTime) {
        assert!(fresh <= self.member_count);
        self.fresh_count = fresh;
        let ratio = fresh as f64 / self.member_count as f64;
        self.mean.update(now, ratio);
        self.timeline.push(now, ratio);
    }

    /// The current number of fresh members.
    #[must_use]
    pub fn fresh_count(&self) -> usize {
        self.fresh_count
    }

    /// The current freshness ratio.
    #[must_use]
    pub fn current_ratio(&self) -> f64 {
        self.fresh_count as f64 / self.member_count as f64
    }

    /// Finishes at `end`, returning the time-weighted mean freshness ratio
    /// and the recorded timeline.
    #[must_use]
    pub fn finish(self, end: SimTime) -> (f64, Timeline) {
        (self.mean.finish(end), self.timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn periodic_schedule() {
        let s = UpdateSchedule::periodic(SimDuration::from_secs(10.0), t(35.0));
        assert_eq!(s.version_count(), 4); // births at 0, 10, 20, 30
        assert_eq!(s.current_version(t(0.0)), Some(0));
        assert_eq!(s.current_version(t(9.9)), Some(0));
        assert_eq!(s.current_version(t(10.0)), Some(1));
        assert_eq!(s.current_version(t(35.0)), Some(3));
        assert_eq!(s.birth_of(2), t(20.0));
    }

    #[test]
    fn requirement_per_hop_target() {
        let r = FreshnessRequirement::new(0.81, SimDuration::from_secs(100.0));
        assert!((r.per_hop_target(1) - 0.81).abs() < 1e-12);
        assert!((r.per_hop_target(2) - 0.9).abs() < 1e-12);
        // Deeper nodes need stronger per-hop guarantees.
        assert!(r.per_hop_target(4) > r.per_hop_target(2));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn requirement_rejects_bad_probability() {
        let _ = FreshnessRequirement::new(1.0, SimDuration::from_secs(1.0));
    }

    #[test]
    fn tracker_time_weighted_mean() {
        let mut tr = FreshnessTracker::new(4, 4, t(0.0));
        assert_eq!(tr.current_ratio(), 1.0);
        tr.set_fresh(0, t(10.0)); // fresh for 10s
        tr.set_fresh(4, t(30.0)); // stale for 20s
        let (mean, timeline) = tr.finish(t(40.0)); // fresh for 10s
                                                   // (1.0*10 + 0*20 + 1.0*10) / 40 = 0.5
        assert!((mean - 0.5).abs() < 1e-12);
        assert_eq!(timeline.len(), 3);
    }

    #[test]
    fn tracker_partial_freshness() {
        let mut tr = FreshnessTracker::new(4, 2, t(0.0));
        assert_eq!(tr.fresh_count(), 2);
        tr.set_fresh(3, t(10.0));
        assert!((tr.current_ratio() - 0.75).abs() < 1e-12);
        let (mean, _) = tr.finish(t(20.0));
        // 0.5 for 10s, 0.75 for 10s
        assert!((mean - 0.625).abs() < 1e-12);
    }
}
