//! Cache replacement policies.

use omn_sim::{SimDuration, SimTime};

use crate::item::DataItemId;

/// The facts a policy may use to pick an eviction victim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VictimCandidate {
    /// The cached item.
    pub item: DataItemId,
    /// When the copy was last read.
    pub last_access: SimTime,
    /// How many times the copy has been read.
    pub access_count: u64,
}

/// A cache replacement policy: given the current entries, pick the one to
/// evict.
pub trait CachePolicy: std::fmt::Debug {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Index of the entry to evict.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `candidates` is empty; the store never
    /// calls this with an empty slice.
    fn victim(&self, candidates: &[VictimCandidate], now: SimTime) -> usize;
}

/// A replacement policy selected by name — what campaign specs and the
/// joint-world configuration carry instead of a trait object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Least-recently-used eviction.
    Lru,
    /// EWMA decayed-popularity adaptive placement (default τ).
    Ewma,
}

impl PolicyChoice {
    /// The policy's report/spec name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyChoice::Lru => "lru",
            PolicyChoice::Ewma => "ewma",
        }
    }

    /// Instantiates the named policy with its default parameters.
    #[must_use]
    pub fn make(self) -> Box<dyn CachePolicy> {
        match self {
            PolicyChoice::Lru => Box::new(Lru),
            PolicyChoice::Ewma => Box::new(Ewma::default()),
        }
    }
}

/// Least-recently-used: evict the entry with the oldest `last_access`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lru;

impl CachePolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn victim(&self, candidates: &[VictimCandidate], _now: SimTime) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (a.last_access, a.item).cmp(&(b.last_access, b.item)))
            .map(|(i, _)| i)
            .expect("non-empty candidates")
    }
}

/// EWMA-popularity adaptive placement: evict the entry with the lowest
/// exponentially-decayed access frequency,
/// `access_count · exp(−(now − last_access) / τ)` — an online popularity
/// estimate that adapts as the workload shifts, the baseline the
/// bandwidth-constrained E19 world ranks items with. Deterministic: pure
/// arithmetic over the candidate facts, ties broken by item id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    /// Popularity half-life scale τ in seconds: recency matters more with
    /// a smaller τ, pure frequency (LFU-like) as τ → ∞.
    pub tau_secs: f64,
}

impl Ewma {
    /// Creates the policy with decay scale `tau`.
    ///
    /// # Panics
    ///
    /// Panics unless `tau` is positive.
    #[must_use]
    pub fn new(tau: SimDuration) -> Ewma {
        let tau_secs = tau.as_secs();
        assert!(tau_secs > 0.0, "Ewma: decay scale must be positive");
        Ewma { tau_secs }
    }

    /// The decayed-popularity score of one candidate at `now`.
    fn score(&self, c: &VictimCandidate, now: SimTime) -> f64 {
        let idle = now.saturating_since(c.last_access).as_secs();
        c.access_count as f64 * (-idle / self.tau_secs).exp()
    }
}

impl Default for Ewma {
    /// A 6-hour decay scale — the workspace's default refresh period, so
    /// popularity fades on the same timescale versions do.
    fn default() -> Ewma {
        Ewma::new(SimDuration::from_hours(6.0))
    }
}

impl CachePolicy for Ewma {
    fn name(&self) -> &'static str {
        "ewma"
    }

    fn victim(&self, candidates: &[VictimCandidate], now: SimTime) -> usize {
        candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                self.score(a, now)
                    .total_cmp(&self.score(b, now))
                    .then(a.item.cmp(&b.item))
            })
            .map(|(i, _)| i)
            .expect("non-empty candidates")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(item: u32, last: f64, count: u64) -> VictimCandidate {
        VictimCandidate {
            item: DataItemId(item),
            last_access: SimTime::from_secs(last),
            access_count: count,
        }
    }

    #[test]
    fn lru_evicts_stalest() {
        let cs = [cand(0, 50.0, 3), cand(1, 10.0, 9)];
        assert_eq!(Lru.victim(&cs, SimTime::from_secs(100.0)), 1);
        assert_eq!(Lru.name(), "lru");
    }

    #[test]
    fn deterministic_tie_breaking() {
        let cs = [cand(2, 10.0, 1), cand(1, 10.0, 1)];
        // Equal stats: smaller item id evicted.
        assert_eq!(Lru.victim(&cs, SimTime::from_secs(100.0)), 1);
        assert_eq!(Ewma::default().victim(&cs, SimTime::from_secs(100.0)), 1);
    }

    #[test]
    fn ewma_balances_frequency_against_recency() {
        // Item 0: heavily accessed but long idle. Item 1: lightly accessed
        // but just touched.
        let cs = [cand(0, 100.0, 100), cand(1, 86_000.0, 2)];
        let now = SimTime::from_secs(86_400.0);
        // A short decay scale forgets item 0's history → it is evicted.
        assert_eq!(Ewma::new(SimDuration::from_hours(1.0)).victim(&cs, now), 0);
        // A near-infinite scale degenerates to frequency → item 1 goes.
        assert_eq!(Ewma::new(SimDuration::from_secs(1e12)).victim(&cs, now), 1);
        assert_eq!(Ewma::default().name(), "ewma");
    }
}
