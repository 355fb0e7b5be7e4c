//! Temporal (time-respecting) path analysis.
//!
//! Opportunistic delivery is constrained by *time-respecting* paths: a
//! message at node `a` at time `t` can reach `b` only through a sequence of
//! contacts with non-decreasing times. [`earliest_arrivals`] computes, for
//! a given start node and time, the earliest instant every other node could
//! possibly hold the data — the *oracle lower bound* on any dissemination
//! scheme's delay (epidemic flooding with infinite bandwidth achieves it;
//! `crates/core/tests/epidemic_oracle.rs` checks the freshness layer's
//! epidemic refresh against it exactly).
//!
//! The freshness evaluation uses this to report how close a scheme gets to
//! the best any protocol could do on the same trace.

use omn_sim::SimTime;

use crate::contact::NodeId;
use crate::trace::ContactTrace;

/// Earliest possible arrival time at every node for data appearing at
/// `source` at time `start`, via time-respecting contact paths.
///
/// A contact `[s, e)` can forward data that is present at either endpoint
/// by time `e` — i.e. data arriving at a node during a contact still
/// propagates through the remainder of that contact. `None` marks nodes
/// unreachable within the trace.
///
/// Runs in one forward sweep over the contacts (`O(contacts)` after the
/// trace's sort order), which makes it cheap enough to call per version.
///
/// # Panics
///
/// Panics if `source` is outside the trace.
#[must_use]
pub fn earliest_arrivals(
    trace: &ContactTrace,
    source: NodeId,
    start: SimTime,
) -> Vec<Option<SimTime>> {
    assert!(
        source.index() < trace.node_count(),
        "earliest_arrivals: source outside trace"
    );
    let n = trace.node_count();
    let mut arrival: Vec<Option<SimTime>> = vec![None; n];
    arrival[source.index()] = Some(start);

    // Contacts are sorted by start time. A single forward pass is exact
    // for propagation at contact *starts*; propagation through contact
    // tails (data arriving mid-contact) is handled by using the contact
    // end as the transfer deadline.
    //
    // One pass can miss chains enabled within long overlapping contacts,
    // so sweep until a fixed point; two passes suffice in practice and the
    // loop is bounded by the node count.
    for _ in 0..n {
        let mut changed = false;
        for c in trace.contacts() {
            let (a, b) = (c.a().index(), c.b().index());
            let window_end = c.end();
            for (x, y) in [(a, b), (b, a)] {
                if let Some(t) = arrival[x] {
                    if t < window_end {
                        // Transfer happens at contact start or at the
                        // moment the data arrived, whichever is later.
                        let when = c.start().max(t);
                        if arrival[y].is_none_or(|cur| when < cur) {
                            arrival[y] = Some(when);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    arrival
}

/// Fraction of nodes reachable from `source` starting at `start` within
/// `deadline_secs` seconds, excluding the source itself.
#[must_use]
pub fn reachability_within(
    trace: &ContactTrace,
    source: NodeId,
    start: SimTime,
    deadline_secs: f64,
) -> f64 {
    let arrivals = earliest_arrivals(trace, source, start);
    let others = trace.node_count().saturating_sub(1);
    if others == 0 {
        return 0.0;
    }
    let reached = arrivals
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != source.index())
        .filter(|(_, t)| t.is_some_and(|t| t.saturating_since(start).as_secs() <= deadline_secs))
        .count();
    reached as f64 / others as f64
}

/// The oracle (minimum possible) dissemination delays from `source` at
/// `start` to each node of `targets`, in seconds. Unreachable targets are
/// excluded.
#[must_use]
pub fn oracle_delays(
    trace: &ContactTrace,
    source: NodeId,
    start: SimTime,
    targets: &[NodeId],
) -> Vec<f64> {
    let arrivals = earliest_arrivals(trace, source, start);
    targets
        .iter()
        .filter_map(|t| arrivals[t.index()])
        .map(|t| t.saturating_since(start).as_secs())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::Contact;
    use crate::trace::TraceBuilder;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn c(a: u32, b: u32, s: f64, e: f64) -> Contact {
        Contact::new(NodeId(a), NodeId(b), t(s), t(e)).unwrap()
    }

    #[test]
    fn respects_contact_order() {
        // 0-1 at t=10, 1-2 at t=20: 2 reachable at 20.
        let trace = TraceBuilder::new(3)
            .contact(c(0, 1, 10.0, 11.0))
            .contact(c(1, 2, 20.0, 21.0))
            .build()
            .unwrap();
        let a = earliest_arrivals(&trace, NodeId(0), t(0.0));
        assert_eq!(a[0], Some(t(0.0)));
        assert_eq!(a[1], Some(t(10.0)));
        assert_eq!(a[2], Some(t(20.0)));
    }

    #[test]
    fn reversed_contact_order_blocks_path() {
        // 1-2 at t=5 happens before 0 even meets 1: no path to 2.
        let trace = TraceBuilder::new(3)
            .contact(c(1, 2, 5.0, 6.0))
            .contact(c(0, 1, 10.0, 11.0))
            .build()
            .unwrap();
        let a = earliest_arrivals(&trace, NodeId(0), t(0.0));
        assert_eq!(a[1], Some(t(10.0)));
        assert_eq!(a[2], None);
    }

    #[test]
    fn start_time_gates_contacts() {
        let trace = TraceBuilder::new(2)
            .contact(c(0, 1, 10.0, 11.0))
            .build()
            .unwrap();
        // Data appears after the only contact ended: unreachable.
        let a = earliest_arrivals(&trace, NodeId(0), t(50.0));
        assert_eq!(a[1], None);
        // Data appears mid-contact: transfers at its appearance time.
        let a = earliest_arrivals(&trace, NodeId(0), t(10.5));
        assert_eq!(a[1], Some(t(10.5)));
    }

    #[test]
    fn overlapping_contacts_chain_within_their_windows() {
        // 0-1 overlaps 1-2; data can hop through 1 while both are live,
        // even though 1-2 started first.
        let trace = TraceBuilder::new(3)
            .contact(c(1, 2, 5.0, 30.0))
            .contact(c(0, 1, 10.0, 12.0))
            .build()
            .unwrap();
        let a = earliest_arrivals(&trace, NodeId(0), t(0.0));
        assert_eq!(a[1], Some(t(10.0)));
        // 1 holds the data from t=10, the 1-2 contact is still up → t=10.
        assert_eq!(a[2], Some(t(10.0)));
    }

    #[test]
    fn reachability_ratio() {
        let trace = TraceBuilder::new(4)
            .contact(c(0, 1, 10.0, 11.0))
            .contact(c(1, 2, 20.0, 21.0))
            .build()
            .unwrap();
        // Node 3 never meets anyone.
        assert!((reachability_within(&trace, NodeId(0), t(0.0), 15.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((reachability_within(&trace, NodeId(0), t(0.0), 25.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(reachability_within(&trace, NodeId(0), t(0.0), 5.0), 0.0);
    }

    #[test]
    fn oracle_delays_exclude_unreachable() {
        let trace = TraceBuilder::new(4)
            .contact(c(0, 1, 10.0, 11.0))
            .build()
            .unwrap();
        let d = oracle_delays(&trace, NodeId(0), t(0.0), &[NodeId(1), NodeId(3)]);
        assert_eq!(d, vec![10.0]);
    }

    #[test]
    fn oracle_bound_is_a_lower_bound_for_pairwise_generators() {
        use crate::synth::{generate_pairwise, PairwiseConfig};
        use omn_sim::{RngFactory, SimDuration};

        let trace = generate_pairwise(
            &PairwiseConfig::new(15, SimDuration::from_days(1.0)).mean_rate(1.0 / 3600.0),
            &RngFactory::new(4),
        );
        // Oracle earliest arrival at any node never exceeds the first
        // direct contact with the source.
        let src = NodeId(0);
        let arrivals = earliest_arrivals(&trace, src, t(0.0));
        for contact in trace.contacts_of(src) {
            let peer = contact.peer_of(src);
            let direct = contact.start();
            assert!(
                arrivals[peer.index()].is_some_and(|a| a <= direct),
                "oracle must be at most the direct contact time"
            );
        }
    }
}
