//! Online pairwise contact-rate estimation.
//!
//! Protocol nodes do not know the true contact rates; they estimate `λij`
//! from the contacts they observe, by the maximum-likelihood estimate over
//! the whole observation window, `λ̂ = contacts / elapsed`. It converges to
//! the true rate for stationary processes.
//!
//! [`PairRateTable`] keeps one contact count per node pair, which is the
//! state each node carries in the distributed protocols. Simulators record
//! every contact into it, so its layout is chosen for that hot path: the
//! per-node sorted adjacency rows [`crate::ContactGraph`] uses, grown on
//! demand, with each pair stored once under its lower endpoint as `(higher
//! endpoint, count)` and found by binary search — 16 B per pair, next to
//! the table-wide observation start.

use omn_sim::SimTime;

use crate::contact::NodeId;

/// A table of per-pair rate estimates, as maintained by each protocol node
/// (or globally by the simulator on behalf of all nodes).
///
/// # Example
///
/// ```
/// use omn_contacts::estimate::PairRateTable;
/// use omn_contacts::NodeId;
/// use omn_sim::SimTime;
///
/// let mut table = PairRateTable::new(SimTime::ZERO);
/// table.record_contact(NodeId(0), NodeId(1));
/// table.record_contact(NodeId(0), NodeId(1));
/// let rate = table.rate(NodeId(1), NodeId(0), SimTime::from_secs(100.0));
/// assert!((rate - 0.02).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct PairRateTable {
    start: SimTime,
    /// Row `lo` holds `(hi, count)` for every observed pair `lo < hi`,
    /// sorted by `hi`. Rows are created on demand.
    rows: Vec<Vec<(u32, u64)>>,
}

impl PairRateTable {
    /// Creates an empty table whose observation window starts at `start`.
    #[must_use]
    pub fn new(start: SimTime) -> PairRateTable {
        PairRateTable {
            start,
            rows: Vec::new(),
        }
    }

    /// The row and column of a pair: its lower and higher endpoint.
    fn key(a: NodeId, b: NodeId) -> (usize, u32) {
        if a < b {
            (a.index(), b.0)
        } else {
            (b.index(), a.0)
        }
    }

    /// The maximum-likelihood rate of `count` contacts observed between
    /// the table's start and `now` (0 over an empty window).
    fn mle(&self, count: u64, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.start).as_secs();
        if elapsed <= 0.0 {
            0.0
        } else {
            count as f64 / elapsed
        }
    }

    /// Records a contact between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn record_contact(&mut self, a: NodeId, b: NodeId) {
        assert!(a != b, "PairRateTable::record_contact: self contact");
        let (lo, hi) = PairRateTable::key(a, b);
        if self.rows.len() <= lo {
            self.rows.resize_with(lo + 1, Vec::new);
        }
        let row = &mut self.rows[lo];
        match row.binary_search_by_key(&hi, |e| e.0) {
            Ok(pos) => row[pos].1 += 1,
            Err(pos) => row.insert(pos, (hi, 1)),
        }
    }

    /// The estimated rate between `a` and `b` as of `now` (0 if never met).
    #[must_use]
    pub fn rate(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        let (lo, hi) = PairRateTable::key(a, b);
        let count = self.rows.get(lo).and_then(|row| {
            let pos = row.binary_search_by_key(&hi, |e| e.0).ok()?;
            Some(row[pos].1)
        });
        count.map_or(0.0, |n| self.mle(n, now))
    }

    /// Number of pairs with at least one observed contact.
    #[must_use]
    pub fn observed_pairs(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Feeds every contact of a materialized trace into the table.
    ///
    /// This is how offline calibration replays an ingested dataset through
    /// the same estimator the protocol nodes run online.
    pub fn observe_trace(&mut self, trace: &crate::ContactTrace) {
        for c in trace.contacts() {
            self.record_contact(c.a(), c.b());
        }
    }

    /// Exports the table into a [`crate::ContactGraph`] snapshot as of
    /// `now`, for use by centralized planners.
    #[must_use]
    pub fn to_graph(&self, node_count: usize, now: SimTime) -> crate::ContactGraph {
        // Rows walk the pairs in ascending (lo, hi) order, as the batch
        // builder wants. `lo < hi`, so checking `hi` bounds both.
        let edges = self.rows.iter().enumerate().flat_map(move |(lo, row)| {
            row.iter()
                .filter(move |&&(hi, _)| (hi as usize) < node_count)
                .map(move |&(hi, n)| (lo as u32, hi, self.mle(n, now)))
        });
        crate::ContactGraph::from_sorted_edges(node_count, edges)
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
        let mut table = PairRateTable::new(SimTime::ZERO);
        assert_eq!(table.rate(NodeId(0), NodeId(1), t(0.0)), 0.0);
        for _ in 0..10 {
            table.record_contact(NodeId(0), NodeId(1));
        }
        // 10 contacts in 100s
        assert!((table.rate(NodeId(0), NodeId(1), t(100.0)) - 0.1).abs() < 1e-12);
        // An empty window has no rate.
        let late = PairRateTable::new(t(200.0));
        assert_eq!(late.mle(3, t(100.0)), 0.0);
    }

    #[test]
    fn cumulative_pair_state_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<(u32, u64)>(), 16);
    }

    #[test]
    fn table_is_symmetric() {
        let mut table = PairRateTable::new(SimTime::ZERO);
        table.record_contact(NodeId(3), NodeId(1));
        assert_eq!(
            table.rate(NodeId(1), NodeId(3), t(100.0)),
            table.rate(NodeId(3), NodeId(1), t(100.0))
        );
        assert_eq!(table.observed_pairs(), 1);
        assert_eq!(table.rate(NodeId(0), NodeId(1), t(100.0)), 0.0);
    }

    #[test]
    fn table_exports_graph() {
        let mut table = PairRateTable::new(SimTime::ZERO);
        table.record_contact(NodeId(0), NodeId(1));
        table.record_contact(NodeId(0), NodeId(1));
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
        let mut table = PairRateTable::new(SimTime::ZERO);
        table.observe_trace(&trace);
        assert_eq!(table.observed_pairs(), 2);
        assert!((table.rate(NodeId(0), NodeId(1), t(100.0)) - 0.02).abs() < 1e-12);
        assert!((table.rate(NodeId(1), NodeId(2), t(100.0)) - 0.01).abs() < 1e-12);
    }
}
