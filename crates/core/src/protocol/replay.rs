//! A synchronous reference runtime for [`NodeProtocol`]: replays a
//! recorded event sequence (births + contacts) through one protocol
//! instance per node and carries out the returned effects.
//!
//! This is the smallest possible runtime — no transport, no tasks — and
//! the semantic yardstick for every other one: the DES schemes
//! ([`HierarchicalScheme`](crate::scheme::HierarchicalScheme) over a
//! static tree, [`EpidemicRefresh`](crate::scheme::EpidemicRefresh)) must
//! match it bit-for-bit on the locally-decidable protocol modes (proven by
//! the `replay_equivalence` proptests), and the async `omn-node` runtime
//! must match it over real serialized messages (proven by the E18
//! campaign).

use std::collections::HashMap;

use omn_contacts::NodeId;
use omn_sim::metrics::Registry;
use omn_sim::SimTime;

use crate::hierarchy::RefreshHierarchy;

use super::node::{Effect, NodeProtocol, ProtocolMode, TimerKind};

/// What a replay run produced, in the DES report's vocabulary.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Final cached version per member.
    pub member_versions: HashMap<NodeId, u64>,
    /// Total transmissions (every [`Effect::Send`] charged to its
    /// sender).
    pub transmissions: u64,
    /// Transmissions charged per node index.
    pub per_node_tx: Vec<u64>,
    /// Replica creations (copies handed to non-member relays).
    pub replicas: u64,
    /// Named protocol counters (`"relay-copy-seconds"`, …).
    pub extras: Registry,
}

/// Drives one [`NodeProtocol`] per node through a recorded event
/// sequence, applying effects synchronously.
#[derive(Debug)]
pub struct ReplayHarness {
    nodes: Vec<NodeProtocol>,
    root: NodeId,
    members: Vec<NodeId>,
    current_version: u64,
    transmissions: u64,
    per_node_tx: Vec<u64>,
    replicas: u64,
    extras: Registry,
    /// Fractional occupancy accumulated across nodes, truncated once at
    /// finish (the DES end-of-run discipline).
    occupancy_secs: f64,
}

impl ReplayHarness {
    /// Creates the harness: one protocol instance per node, members
    /// sorted, everyone at their roster-start state.
    #[must_use]
    pub fn new(
        node_count: usize,
        root: NodeId,
        mut members: Vec<NodeId>,
        mode: ProtocolMode,
    ) -> ReplayHarness {
        members.sort_unstable();
        let nodes = (0..node_count)
            .map(|i| {
                let id = NodeId(u32::try_from(i).expect("node index fits in NodeId"));
                NodeProtocol::new(id, root, members.binary_search(&id).is_ok(), mode)
            })
            .collect();
        ReplayHarness {
            nodes,
            root,
            members,
            current_version: 0,
            transmissions: 0,
            per_node_tx: vec![0; node_count],
            replicas: 0,
            extras: Registry::new(),
            occupancy_secs: 0.0,
        }
    }

    /// Installs each node's slice of `hierarchy` (tree mode).
    pub fn install_tree(&mut self, hierarchy: &RefreshHierarchy) {
        for node in &mut self.nodes {
            let id = node.id();
            if hierarchy.contains(id) {
                node.set_tree(hierarchy.parent_of(id), hierarchy.children_of(id).to_vec());
            }
        }
    }

    /// The caching members (sorted).
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// A node's current self-description.
    #[must_use]
    pub fn summary_of(&self, node: NodeId) -> super::node::PeerSummary {
        self.nodes[node.index()].summary()
    }

    /// The source produced `version` at `now`.
    pub fn birth(&mut self, now: SimTime, version: u64) {
        self.current_version = version;
        let effects = self.nodes[self.root.index()].on_timer(now, TimerKind::VersionBirth(version));
        self.apply(now, self.root, effects);
    }

    /// Nodes `a` and `b` met at `now`: run both directional passes, each
    /// against the peer's then-current summary (the pair quiesces between
    /// passes, exactly like the DES's sequential `[(a,b),(b,a)]` loop).
    pub fn contact(&mut self, now: SimTime, a: NodeId, b: NodeId) {
        for (x, y) in [(a, b), (b, a)] {
            let summary = self.nodes[y.index()].summary();
            let effects = self.nodes[x.index()].on_contact_up(now, &summary);
            self.apply(now, x, effects);
        }
    }

    /// End of run at `now`: flush per-node occupancy and return the
    /// outcome.
    #[must_use]
    pub fn finish(mut self, now: SimTime) -> ReplayOutcome {
        for i in 0..self.nodes.len() {
            let effects = self.nodes[i].on_shutdown(now);
            let id = self.nodes[i].id();
            self.apply(now, id, effects);
        }
        if self.occupancy_secs > 0.0 {
            self.extras
                .add("relay-copy-seconds", self.occupancy_secs as u64);
        }
        let member_versions = self
            .members
            .iter()
            .filter_map(|&m| self.nodes[m.index()].cache_version().map(|v| (m, v)))
            .collect();
        ReplayOutcome {
            member_versions,
            transmissions: self.transmissions,
            per_node_tx: self.per_node_tx,
            replicas: self.replicas,
            extras: self.extras,
        }
    }

    fn apply(&mut self, now: SimTime, owner: NodeId, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    self.transmissions += 1;
                    self.per_node_tx[owner.index()] += 1;
                    let replies = self.nodes[to.index()].on_message(now, owner, &msg);
                    self.apply(now, to, replies);
                }
                // Receipt/freshness bookkeeping lives in runtimes that
                // measure it; the replay outcome reads final versions
                // straight from the nodes at finish.
                Effect::CacheWrite { .. } => {}
                Effect::ReplicaCreated => self.replicas += 1,
                Effect::Count { name, n } => self.extras.add(name, n),
                Effect::CountSecs { secs, .. } => self.occupancy_secs += secs,
                // The replay drives births directly and never reparents.
                Effect::SetTimer { .. } | Effect::Reparent { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epidemic_replay_floods_through_a_relay() {
        // 0 = source, 1/2 = members, 3 = relay.
        let mut h = ReplayHarness::new(
            4,
            NodeId(0),
            vec![NodeId(1), NodeId(2)],
            ProtocolMode::Epidemic,
        );
        h.birth(SimTime::from_secs(1.0), 1);
        h.contact(SimTime::from_secs(2.0), NodeId(0), NodeId(3));
        h.contact(SimTime::from_secs(3.0), NodeId(3), NodeId(2));
        h.contact(SimTime::from_secs(4.0), NodeId(2), NodeId(1));
        let out = h.finish(SimTime::from_secs(10.0));
        assert_eq!(out.member_versions[&NodeId(1)], 1);
        assert_eq!(out.member_versions[&NodeId(2)], 1);
        assert_eq!(out.transmissions, 3);
        assert_eq!(out.replicas, 1);
        // The relay held its copy from t=2 to shutdown at t=10.
        assert_eq!(out.extras.get("relay-copy-seconds"), 8);
    }

    #[test]
    fn tree_replay_cascades_down_the_tree() {
        use crate::hierarchy::{HierarchyStrategy, RefreshHierarchy};
        use omn_contacts::ContactGraph;

        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        g.set_rate(NodeId(1), NodeId(2), 1.0);
        let mut rng = omn_sim::RngFactory::new(1).stream("tree");
        let tree = RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &g,
            HierarchyStrategy::GreedySed { fanout: Some(3) },
            &mut rng,
        );
        let mut h = ReplayHarness::new(
            3,
            NodeId(0),
            vec![NodeId(1), NodeId(2)],
            ProtocolMode::HierTree,
        );
        h.install_tree(&tree);
        h.birth(SimTime::from_secs(1.0), 1);
        // Chain 0→1→2: the non-tree-edge contact does nothing.
        h.contact(SimTime::from_secs(2.0), NodeId(0), NodeId(2));
        h.contact(SimTime::from_secs(3.0), NodeId(0), NodeId(1));
        h.contact(SimTime::from_secs(4.0), NodeId(1), NodeId(2));
        let out = h.finish(SimTime::from_secs(5.0));
        assert_eq!(out.member_versions[&NodeId(1)], 1);
        assert_eq!(out.member_versions[&NodeId(2)], 1);
        assert_eq!(out.transmissions, 2);
        assert_eq!(out.replicas, 0);
    }
}
