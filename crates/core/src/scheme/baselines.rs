//! Baseline refresh schemes: epidemic flooding of updates, and no
//! refreshing at all.

use omn_contacts::NodeId;
use omn_sim::{FxHashMap, SimTime};

use super::{RefreshScheme, SchemeCtx};

/// Epidemic refreshing: every node in the network (caching or not) carries
/// the newest version it has seen and hands it to anyone with an older one.
///
/// Minimizes staleness at maximal transmission cost — the freshness upper
/// bound and overhead upper bound of the evaluation.
#[derive(Debug, Default)]
pub struct EpidemicRefresh {
    /// Newest version carried by each non-member node, with the time it
    /// was acquired (for buffer-occupancy accounting).
    carried: FxHashMap<NodeId, (u64, SimTime)>,
}

impl EpidemicRefresh {
    /// Creates the scheme.
    #[must_use]
    pub fn new() -> EpidemicRefresh {
        EpidemicRefresh::default()
    }

    fn effective_version(&self, node: NodeId, ctx: &SchemeCtx<'_>) -> Option<u64> {
        ctx.version_of(node)
            .or_else(|| self.carried.get(&node).map(|&(v, _)| v))
    }
}

impl RefreshScheme for EpidemicRefresh {
    fn name(&self) -> &'static str {
        "epidemic"
    }

    /// Called at the start of every contact: the newest effective version
    /// between the endpoints flows to the older side.
    fn on_contact(&mut self, a: NodeId, b: NodeId, ctx: &mut SchemeCtx<'_>) {
        let va = self.effective_version(a, ctx);
        let vb = self.effective_version(b, ctx);
        let (from, to, v) = match (va, vb) {
            (Some(x), Some(y)) if x > y => (a, b, x),
            (Some(x), Some(y)) if y > x => (b, a, y),
            (Some(x), None) => (a, b, x),
            (None, Some(y)) => (b, a, y),
            _ => return,
        };
        if ctx.is_member(to) {
            // Under injected transmission loss the delivery may fail; the
            // flood retries naturally at the pair's next contact.
            ctx.deliver_version(from, to, v);
        } else if to != ctx.root() {
            let now = ctx.now();
            match self.carried.get(&to).copied() {
                Some((ov, _)) if ov == v => {}
                old => {
                    // The relay handoff rides the same lossy channel as
                    // member deliveries; a lost handoff leaves the old
                    // carried copy in place.
                    if ctx.attempt_transfer(from) {
                        if let Some((_, acquired)) = old {
                            ctx.count(
                                "relay-copy-seconds",
                                now.saturating_since(acquired).as_secs() as u64,
                            );
                        }
                        self.carried.insert(to, (v, now));
                        ctx.record_replica();
                    }
                }
            }
        }
    }

    /// Called once after the last event: flush occupancy accounting for
    /// copies still carried.
    fn on_finish(&mut self, ctx: &mut SchemeCtx<'_>) {
        let mut occupancy_secs = 0.0;
        for &(_, acquired) in self.carried.values() {
            occupancy_secs += ctx.now().saturating_since(acquired).as_secs();
        }
        self.carried.clear();
        if occupancy_secs > 0.0 {
            ctx.count("relay-copy-seconds", occupancy_secs as u64);
        }
    }
}

/// No refreshing: caching nodes keep whatever version they started with.
/// Freshness decays to zero after the first update — the lower bound every
/// scheme must beat.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRefresh;

impl NoRefresh {
    /// Creates the scheme.
    #[must_use]
    pub fn new() -> NoRefresh {
        NoRefresh
    }
}

impl RefreshScheme for NoRefresh {
    fn name(&self) -> &'static str {
        "no-refresh"
    }

    fn on_contact(&mut self, _a: NodeId, _b: NodeId, _ctx: &mut SchemeCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::testutil::CtxHarness;
    use omn_contacts::ContactGraph;
    use omn_sim::SimTime;

    fn harness() -> CtxHarness {
        let g = ContactGraph::new(4);
        CtxHarness::new(g, NodeId(0), vec![NodeId(1), NodeId(2)])
    }

    #[test]
    fn epidemic_spreads_through_relays() {
        let mut h = harness();
        let mut s = EpidemicRefresh::new();
        h.current_version = 1;
        h.now = SimTime::from_secs(1.0);

        // Source → non-member 3 (replica).
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.replicas, 1);
        // Relay 3 → member 2.
        h.now = SimTime::from_secs(2.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.held(NodeId(2)), 1);
        // Member 2 → member 1.
        h.now = SimTime::from_secs(3.0);
        s.on_contact(NodeId(2), NodeId(1), &mut h.ctx());
        assert_eq!(h.held(NodeId(1)), 1);
        assert_eq!(h.transmissions, 3);
    }

    #[test]
    fn epidemic_no_duplicate_relay_transmissions() {
        let mut h = harness();
        let mut s = EpidemicRefresh::new();
        h.current_version = 1;
        h.now = SimTime::from_secs(1.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        let tx = h.transmissions;
        // Same version again: no transfer.
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.transmissions, tx);
    }

    #[test]
    fn epidemic_equal_versions_do_nothing() {
        let mut h = harness();
        let mut s = EpidemicRefresh::new();
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, 0);
    }

    #[test]
    fn epidemic_retries_lossy_spread_on_later_contacts() {
        let mut h = harness();
        let mut s = EpidemicRefresh::new();
        h.current_version = 1;
        h.fail_all_transfers();
        h.now = SimTime::from_secs(1.0);
        // Both the relay handoff and the member delivery are lost.
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        s.on_contact(NodeId(0), NodeId(1), &mut h.ctx());
        assert_eq!(h.replicas, 0);
        assert_eq!(h.held(NodeId(1)), 0);
        assert_eq!(h.transmissions, 2, "lost attempts still cost transmissions");
        // The flood self-heals once the channel recovers.
        h.faults = None;
        h.now = SimTime::from_secs(2.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        s.on_contact(NodeId(0), NodeId(1), &mut h.ctx());
        assert_eq!(h.replicas, 1);
        assert_eq!(h.held(NodeId(1)), 1);
    }

    #[test]
    fn no_refresh_never_transfers() {
        let mut h = harness();
        let mut s = NoRefresh::new();
        h.current_version = 5;
        s.on_contact(NodeId(0), NodeId(1), &mut h.ctx());
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, 0);
        assert_eq!(h.held(NodeId(1)), 0);
        assert_eq!(s.name(), "no-refresh");
    }
}
