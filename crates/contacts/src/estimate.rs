//! Online pairwise contact-rate estimation.
//!
//! Protocol nodes do not know the true contact rates; they estimate `λij`
//! from the contacts they observe. Three estimators are provided:
//!
//! * [`CumulativeMle`] — the maximum-likelihood estimate over the whole
//!   observation window, `λ̂ = contacts / elapsed`. Converges to the true
//!   rate for stationary processes; slow to adapt.
//! * [`EwmaRate`] — exponentially weighted moving average over observed
//!   inter-contact times; adapts to non-stationary mobility.
//! * [`SlidingWindowRate`] — contacts within a fixed recent window.
//!
//! [`PairRateTable`] maintains one estimator per node pair, which is the
//! state each node carries in the distributed protocols. Simulators record
//! every contact into it, so its layout is chosen for that hot path: the
//! per-node sorted adjacency rows [`crate::ContactGraph`] uses, grown on
//! demand, with each pair stored once under its lower endpoint as `(higher
//! endpoint, state)` and found by binary search. The state is stored per
//! estimator kind. A cumulative pair is a bare `u64` count next to the
//! table-wide observation start, 16 B per pair with the `u32` key; EWMA and
//! sliding-window pairs keep their estimator structs (56 B per pair, plus
//! the window's recent contact times on the heap).

use std::collections::VecDeque;

use omn_sim::{SimDuration, SimTime};

use crate::contact::NodeId;

/// An online estimator of a pairwise contact rate.
pub trait RateEstimator: std::fmt::Debug {
    /// Records that a contact began at `t`.
    ///
    /// Contacts must be reported in non-decreasing time order.
    fn record_contact(&mut self, t: SimTime);

    /// The current rate estimate (contacts per second) as of `now`.
    /// Returns 0 before any contact has been observed.
    fn rate(&self, now: SimTime) -> f64;

    /// Number of contacts observed so far.
    fn count(&self) -> u64;
}

/// Maximum-likelihood rate over the full observation window:
/// `λ̂ = n / (now − start)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CumulativeMle {
    start: SimTime,
    count: u64,
}

impl CumulativeMle {
    /// Creates an estimator whose observation window starts at `start`.
    #[must_use]
    pub fn new(start: SimTime) -> CumulativeMle {
        CumulativeMle { start, count: 0 }
    }
}

impl RateEstimator for CumulativeMle {
    fn record_contact(&mut self, _t: SimTime) {
        self.count += 1;
    }

    fn rate(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.start).as_secs();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.count as f64 / elapsed
        }
    }

    fn count(&self) -> u64 {
        self.count
    }
}

/// EWMA over observed inter-contact times.
///
/// After each contact the smoothed inter-contact time is updated as
/// `ict ← α·sample + (1−α)·ict`; the rate estimate is `1/ict`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaRate {
    alpha: f64,
    last_contact: Option<SimTime>,
    smoothed_ict: Option<f64>,
    count: u64,
}

impl EwmaRate {
    /// Creates an EWMA estimator with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> EwmaRate {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EwmaRate::new: alpha must be in (0, 1], got {alpha}"
        );
        EwmaRate {
            alpha,
            last_contact: None,
            smoothed_ict: None,
            count: 0,
        }
    }
}

impl RateEstimator for EwmaRate {
    fn record_contact(&mut self, t: SimTime) {
        if let Some(last) = self.last_contact {
            let ict = t.saturating_since(last).as_secs();
            if ict > 0.0 {
                self.smoothed_ict = Some(match self.smoothed_ict {
                    None => ict,
                    Some(prev) => self.alpha * ict + (1.0 - self.alpha) * prev,
                });
            }
        }
        self.last_contact = Some(t);
        self.count += 1;
    }

    fn rate(&self, _now: SimTime) -> f64 {
        match self.smoothed_ict {
            Some(ict) if ict > 0.0 => 1.0 / ict,
            _ => 0.0,
        }
    }

    fn count(&self) -> u64 {
        self.count
    }
}

/// Rate over a sliding window of recent history.
///
/// Only contacts inside the trailing window are kept: recording a contact
/// at `t` evicts those older than `t − window`. Queries must therefore come
/// at `now ≥` the last recorded time (as every simulator's do: it records a
/// contact when it happens and queries at its current clock), since the
/// window of an earlier `now` may reach back past evicted contacts.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindowRate {
    window: SimDuration,
    /// Recorded contact times inside the trailing window, ascending.
    times: VecDeque<SimTime>,
    total: u64,
}

impl SlidingWindowRate {
    /// Creates an estimator over the trailing `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: SimDuration) -> SlidingWindowRate {
        assert!(!window.is_zero(), "SlidingWindowRate: zero window");
        SlidingWindowRate {
            window,
            times: VecDeque::new(),
            total: 0,
        }
    }

    /// Start of the window ending at `now`, in seconds: contacts at or
    /// after it count.
    fn cutoff_secs(&self, now: SimTime) -> f64 {
        (now.as_secs() - self.window.as_secs()).max(0.0)
    }
}

impl RateEstimator for SlidingWindowRate {
    fn record_contact(&mut self, t: SimTime) {
        // The cutoff is monotone in `now`, so a contact outside the window
        // at `t` stays outside it for every later query.
        let cutoff_secs = self.cutoff_secs(t);
        let stale = self.times.partition_point(|f| f.as_secs() < cutoff_secs);
        self.times.drain(..stale);
        self.times.push_back(t);
        self.total += 1;
    }

    fn rate(&self, now: SimTime) -> f64 {
        let cutoff_secs = self.cutoff_secs(now);
        let in_window =
            self.times.len() - self.times.partition_point(|t| t.as_secs() < cutoff_secs);
        let effective_window = now.as_secs().min(self.window.as_secs());
        if effective_window <= 0.0 {
            0.0
        } else {
            in_window as f64 / effective_window
        }
    }

    fn count(&self) -> u64 {
        self.total
    }
}

/// Which estimator a [`PairRateTable`] uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// [`CumulativeMle`].
    Cumulative,
    /// [`EwmaRate`] with the given alpha.
    Ewma(f64),
    /// [`SlidingWindowRate`] with the given window.
    Window(SimDuration),
}

/// Per-node sorted adjacency rows: row `lo` holds `(hi, state)` for every
/// observed pair `lo < hi`, sorted by `hi`. Rows are created on demand.
#[derive(Debug, Clone)]
struct Adjacency<T> {
    rows: Vec<Vec<(u32, T)>>,
}

impl<T> Adjacency<T> {
    fn new() -> Adjacency<T> {
        Adjacency { rows: Vec::new() }
    }

    /// The state of pair `(lo, hi)`, inserted from `init` if absent.
    fn entry(&mut self, lo: usize, hi: u32, init: impl FnOnce() -> T) -> &mut T {
        if self.rows.len() <= lo {
            self.rows.resize_with(lo + 1, Vec::new);
        }
        let row = &mut self.rows[lo];
        let pos = match row.binary_search_by_key(&hi, |e| e.0) {
            Ok(pos) => pos,
            Err(pos) => {
                row.insert(pos, (hi, init()));
                pos
            }
        };
        &mut row[pos].1
    }

    fn get(&self, lo: usize, hi: u32) -> Option<&T> {
        let row = self.rows.get(lo)?;
        let pos = row.binary_search_by_key(&hi, |e| e.0).ok()?;
        Some(&row[pos].1)
    }

    fn len(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Every pair as `(lo, hi, state)`, in ascending `(lo, hi)` order.
    fn iter(&self) -> impl Iterator<Item = (u32, u32, &T)> {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(lo, row)| row.iter().map(move |(hi, e)| (lo as u32, *hi, e)))
    }
}

/// The per-pair state of a [`PairRateTable`], stored per estimator kind.
#[derive(Debug, Clone)]
enum PairStates {
    /// [`CumulativeMle`] shares the table's `start`, so a pair is its count.
    Cumulative(Adjacency<u64>),
    Ewma(f64, Adjacency<EwmaRate>),
    Window(SimDuration, Adjacency<SlidingWindowRate>),
}

/// A table of per-pair rate estimates, as maintained by each protocol node
/// (or globally by the simulator on behalf of all nodes).
///
/// # Example
///
/// ```
/// use omn_contacts::estimate::{EstimatorKind, PairRateTable};
/// use omn_contacts::NodeId;
/// use omn_sim::SimTime;
///
/// let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
/// table.record_contact(NodeId(0), NodeId(1), SimTime::from_secs(10.0));
/// table.record_contact(NodeId(0), NodeId(1), SimTime::from_secs(30.0));
/// let rate = table.rate(NodeId(1), NodeId(0), SimTime::from_secs(100.0));
/// assert!((rate - 0.02).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct PairRateTable {
    start: SimTime,
    states: PairStates,
}

impl PairRateTable {
    /// Creates an empty table; new pairs get estimators of `kind` whose
    /// observation windows start at `start`.
    #[must_use]
    pub fn new(kind: EstimatorKind, start: SimTime) -> PairRateTable {
        let states = match kind {
            EstimatorKind::Cumulative => PairStates::Cumulative(Adjacency::new()),
            EstimatorKind::Ewma(alpha) => PairStates::Ewma(alpha, Adjacency::new()),
            EstimatorKind::Window(w) => PairStates::Window(w, Adjacency::new()),
        };
        PairRateTable { start, states }
    }

    /// The row and column of a pair: its lower and higher endpoint.
    fn key(a: NodeId, b: NodeId) -> (usize, u32) {
        if a < b {
            (a.index(), b.0)
        } else {
            (b.index(), a.0)
        }
    }

    fn cumulative(&self, count: u64) -> CumulativeMle {
        CumulativeMle {
            start: self.start,
            count,
        }
    }

    /// Records a contact between `a` and `b` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn record_contact(&mut self, a: NodeId, b: NodeId, t: SimTime) {
        assert!(a != b, "PairRateTable::record_contact: self contact");
        let (lo, hi) = PairRateTable::key(a, b);
        match &mut self.states {
            PairStates::Cumulative(adj) => *adj.entry(lo, hi, || 0) += 1,
            PairStates::Ewma(alpha, adj) => {
                adj.entry(lo, hi, || EwmaRate::new(*alpha))
                    .record_contact(t);
            }
            PairStates::Window(w, adj) => {
                adj.entry(lo, hi, || SlidingWindowRate::new(*w))
                    .record_contact(t);
            }
        }
    }

    /// The estimated rate between `a` and `b` as of `now` (0 if never met).
    #[must_use]
    pub fn rate(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        let (lo, hi) = PairRateTable::key(a, b);
        match &self.states {
            PairStates::Cumulative(adj) => adj
                .get(lo, hi)
                .map_or(0.0, |&n| self.cumulative(n).rate(now)),
            PairStates::Ewma(_, adj) => adj.get(lo, hi).map_or(0.0, |e| e.rate(now)),
            PairStates::Window(_, adj) => adj.get(lo, hi).map_or(0.0, |e| e.rate(now)),
        }
    }

    /// Number of pairs with at least one observed contact.
    #[must_use]
    pub fn observed_pairs(&self) -> usize {
        match &self.states {
            PairStates::Cumulative(adj) => adj.len(),
            PairStates::Ewma(_, adj) => adj.len(),
            PairStates::Window(_, adj) => adj.len(),
        }
    }

    /// Feeds every contact start of a materialized trace into the table,
    /// in trace order.
    ///
    /// This is how offline calibration replays an ingested dataset through
    /// the same estimator the protocol nodes run online.
    pub fn observe_trace(&mut self, trace: &crate::ContactTrace) {
        for c in trace.contacts() {
            self.record_contact(c.a(), c.b(), c.start());
        }
    }

    /// Exports the table into a [`crate::ContactGraph`] snapshot as of
    /// `now`, for use by centralized planners.
    #[must_use]
    pub fn to_graph(&self, node_count: usize, now: SimTime) -> crate::ContactGraph {
        let mut g = crate::ContactGraph::new(node_count);
        // Pairs arrive in ascending (lo, hi) order, so every row of `g`
        // grows by appends. `lo < hi`, so checking `hi` bounds both.
        let mut put = |lo: u32, hi: u32, rate: f64| {
            if (hi as usize) < node_count {
                g.set_rate(NodeId(lo), NodeId(hi), rate);
            }
        };
        match &self.states {
            PairStates::Cumulative(adj) => {
                for (lo, hi, &n) in adj.iter() {
                    put(lo, hi, self.cumulative(n).rate(now));
                }
            }
            PairStates::Ewma(_, adj) => {
                for (lo, hi, e) in adj.iter() {
                    put(lo, hi, e.rate(now));
                }
            }
            PairStates::Window(_, adj) => {
                for (lo, hi, e) in adj.iter() {
                    put(lo, hi, e.rate(now));
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn cumulative_mle_converges() {
        let mut e = CumulativeMle::new(SimTime::ZERO);
        assert_eq!(e.rate(t(0.0)), 0.0);
        for i in 1..=10 {
            e.record_contact(t(f64::from(i) * 10.0));
        }
        // 10 contacts in 100s
        assert!((e.rate(t(100.0)) - 0.1).abs() < 1e-12);
        assert_eq!(e.count(), 10);
    }

    #[test]
    fn ewma_tracks_recent_rates() {
        let mut e = EwmaRate::new(0.5);
        assert_eq!(e.rate(t(0.0)), 0.0);
        e.record_contact(t(0.0));
        assert_eq!(e.rate(t(1.0)), 0.0); // one contact: no ICT yet
        e.record_contact(t(10.0)); // ict 10
        assert!((e.rate(t(10.0)) - 0.1).abs() < 1e-12);
        e.record_contact(t(12.0)); // ict 2 -> smoothed 0.5*2+0.5*10 = 6
        assert!((e.rate(t(12.0)) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = EwmaRate::new(0.0);
    }

    #[test]
    fn sliding_window_forgets_old_contacts() {
        let mut e = SlidingWindowRate::new(SimDuration::from_secs(100.0));
        e.record_contact(t(10.0));
        e.record_contact(t(20.0));
        // At t=50, both in window of effective length 50.
        assert!((e.rate(t(50.0)) - 2.0 / 50.0).abs() < 1e-12);
        // At t=111, the contact at t=10 has left the window [11, 111].
        assert!((e.rate(t(111.0)) - 1.0 / 100.0).abs() < 1e-12);
        // At t=300, window [200, 300] is empty.
        assert_eq!(e.rate(t(300.0)), 0.0);
        assert_eq!(e.count(), 2);
    }

    /// The unbounded estimator this one replaced: every contact kept,
    /// scanned in full per query.
    fn unbounded_window_rate(window: f64, times: &[SimTime], now: SimTime) -> f64 {
        let cutoff_secs = (now.as_secs() - window).max(0.0);
        let in_window = times.iter().filter(|t| t.as_secs() >= cutoff_secs).count();
        let effective_window = now.as_secs().min(window);
        if effective_window <= 0.0 {
            0.0
        } else {
            in_window as f64 / effective_window
        }
    }

    #[test]
    fn sliding_window_stays_bounded_and_matches_the_unbounded_rate() {
        let window = 100.0;
        let mut e = SlidingWindowRate::new(SimDuration::from_secs(window));
        let mut seen = Vec::new();
        // Monotone times with repeats and irregular gaps, straddling the
        // window edge (0.1 is inexact in binary).
        let mut now = 0.0;
        for i in 0..5000u32 {
            now += f64::from(i % 7) * 0.1 + f64::from(i % 3);
            let at = t(now);
            e.record_contact(at);
            seen.push(at);
            // Gaps average 1.3 s, so ~77 contacts fit in the window.
            assert!(e.times.len() < 200, "deque grew to {}", e.times.len());
            for q in [at, t(now + 0.1), t(now + 50.0), t(now + window)] {
                assert_eq!(
                    e.rate(q).to_bits(),
                    unbounded_window_rate(window, &seen, q).to_bits()
                );
            }
        }
        assert_eq!(e.count(), 5000);
    }

    #[test]
    fn cumulative_pair_state_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<(u32, u64)>(), 16);
    }

    #[test]
    fn table_is_symmetric() {
        let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
        table.record_contact(NodeId(3), NodeId(1), t(10.0));
        assert_eq!(
            table.rate(NodeId(1), NodeId(3), t(100.0)),
            table.rate(NodeId(3), NodeId(1), t(100.0))
        );
        assert_eq!(table.observed_pairs(), 1);
        assert_eq!(table.rate(NodeId(0), NodeId(1), t(100.0)), 0.0);
    }

    #[test]
    fn table_exports_graph() {
        let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
        table.record_contact(NodeId(0), NodeId(1), t(10.0));
        table.record_contact(NodeId(0), NodeId(1), t(20.0));
        let g = table.to_graph(3, t(100.0));
        assert!((g.rate(NodeId(0), NodeId(1)) - 0.02).abs() < 1e-12);
        assert_eq!(g.rate(NodeId(1), NodeId(2)), 0.0);
    }

    #[test]
    fn observe_trace_matches_manual_feed() {
        use crate::contact::Contact;
        use crate::trace::TraceBuilder;

        let trace = TraceBuilder::new(3)
            .span(t(100.0))
            .contact(Contact::new(NodeId(0), NodeId(1), t(10.0), t(12.0)).unwrap())
            .contact(Contact::new(NodeId(1), NodeId(2), t(20.0), t(25.0)).unwrap())
            .contact(Contact::new(NodeId(0), NodeId(1), t(60.0), t(61.0)).unwrap())
            .build()
            .unwrap();
        let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
        table.observe_trace(&trace);
        assert_eq!(table.observed_pairs(), 2);
        assert!((table.rate(NodeId(0), NodeId(1), t(100.0)) - 0.02).abs() < 1e-12);
        assert!((table.rate(NodeId(1), NodeId(2), t(100.0)) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn table_with_ewma_kind() {
        let mut table = PairRateTable::new(EstimatorKind::Ewma(0.5), SimTime::ZERO);
        table.record_contact(NodeId(0), NodeId(1), t(0.0));
        table.record_contact(NodeId(0), NodeId(1), t(10.0));
        assert!((table.rate(NodeId(0), NodeId(1), t(10.0)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn table_with_window_kind() {
        let mut table = PairRateTable::new(
            EstimatorKind::Window(SimDuration::from_secs(10.0)),
            SimTime::ZERO,
        );
        table.record_contact(NodeId(0), NodeId(1), t(1.0));
        assert!(table.rate(NodeId(0), NodeId(1), t(5.0)) > 0.0);
        assert_eq!(table.rate(NodeId(0), NodeId(1), t(50.0)), 0.0);
    }
}
