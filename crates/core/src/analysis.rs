//! Analytical freshness model.
//!
//! Under the exponential contact model, the refresh delay of a caching
//! node is the sum over its tree path of per-hop delays, where each hop is
//! the minimum of the direct parent–child delay and the two-hop relay
//! delays of its replication plan. From that distribution:
//!
//! * the probability a node is refreshed within the requirement deadline is
//!   `F_D(τ)`;
//! * the expected staleness per refresh period `T` is `E[min(D, T)]`, so
//!   the long-run freshness ratio of the node is `1 − E[min(D, T)]/T`.
//!
//! Experiment E2 validates these predictions against simulation. The
//! analysis slightly idealizes the protocol (hop delays restart memoryless
//! at each version birth, relays are pre-loaded by their parent), so small
//! systematic gaps are expected and documented in EXPERIMENTS.md.

use omn_contacts::{ContactGraph, NodeId};

use crate::delay::DelayModel;
use crate::freshness::FreshnessRequirement;
use crate::hierarchy::RefreshHierarchy;
use crate::replication::EdgePlans;

/// Per-node analytical predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePrediction {
    /// The caching node.
    pub node: NodeId,
    /// Its refresh-delay distribution.
    pub delay: DelayModel,
    /// Probability of refresh within the requirement deadline.
    pub within_deadline: f64,
    /// Predicted long-run freshness ratio.
    pub freshness: f64,
}

/// Network-wide analytical predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSummary {
    /// Per caching node, in member order.
    pub nodes: Vec<NodePrediction>,
    /// Mean predicted freshness over caching nodes.
    pub mean_freshness: f64,
    /// Mean probability of meeting the deadline over caching nodes.
    pub mean_within_deadline: f64,
}

/// The refresh-delay distribution of one caching node: the sum of its path
/// hops, each raced against its replication relays.
///
/// # Panics
///
/// Panics if `node` is not in the hierarchy.
#[must_use]
pub fn node_delay_model(
    hierarchy: &RefreshHierarchy,
    plans: &EdgePlans,
    graph: &ContactGraph,
    node: NodeId,
) -> DelayModel {
    let path = hierarchy.path_from_root(node);
    let hops: Vec<DelayModel> = path
        .windows(2)
        .map(|w| match plans.get(&(w[0], w[1])) {
            Some(plan) => plan.hop_delay_model(graph, w[0], w[1]),
            None => DelayModel::from_contact_rate(graph.rate(w[0], w[1])),
        })
        .collect();
    DelayModel::sum_of(hops)
}

/// Predicted long-run freshness of a node with refresh-delay distribution
/// `delay` under refresh period `period_secs`:
/// `1 − E[min(D, T)]/T`.
///
/// # Panics
///
/// Panics if `period_secs` is not finite and positive.
#[must_use]
pub fn predicted_freshness(delay: &DelayModel, period_secs: f64) -> f64 {
    (1.0 - delay.expected_capped(period_secs) / period_secs).clamp(0.0, 1.0)
}

/// Analytical overhead of one refresh round (one version disseminated to
/// every caching node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Tree transmissions: one delivery per caching node.
    pub tree_transmissions: f64,
    /// Replica handoffs: at most one copy per relay per version (the
    /// parent preloads each planned relay it meets while current).
    pub replica_transmissions: f64,
}

impl OverheadModel {
    /// Upper bound on total transmissions per version (tree deliveries +
    /// relay preloads + relay deliveries that beat the tree). Relay
    /// deliveries replace tree deliveries one-for-one, so the bound is
    /// `members + 2·relays` minus the overlap; we report the loose bound
    /// the paper-style analysis uses.
    #[must_use]
    pub fn per_version_upper_bound(&self) -> f64 {
        self.tree_transmissions + 2.0 * self.replica_transmissions
    }
}

/// The expected per-version overhead implied by a hierarchy and its plans.
#[must_use]
pub fn overhead_model(hierarchy: &RefreshHierarchy, plans: &EdgePlans) -> OverheadModel {
    OverheadModel {
        tree_transmissions: hierarchy.members().len() as f64,
        replica_transmissions: plans.values().map(|p| p.relays.len() as f64).sum(),
    }
}

/// Full analytical summary of a hierarchy with its replication plans.
#[must_use]
pub fn analyze(
    hierarchy: &RefreshHierarchy,
    plans: &EdgePlans,
    graph: &ContactGraph,
    period_secs: f64,
    requirement: FreshnessRequirement,
) -> AnalysisSummary {
    let nodes: Vec<NodePrediction> = hierarchy
        .members()
        .iter()
        .map(|&m| {
            let delay = node_delay_model(hierarchy, plans, graph, m);
            let within = delay.cdf(requirement.deadline.as_secs());
            let freshness = predicted_freshness(&delay, period_secs);
            NodePrediction {
                node: m,
                delay,
                within_deadline: within,
                freshness,
            }
        })
        .collect();
    let n = nodes.len().max(1) as f64;
    let mean_freshness = nodes.iter().map(|p| p.freshness).sum::<f64>() / n;
    let mean_within_deadline = nodes.iter().map(|p| p.within_deadline).sum::<f64>() / n;
    AnalysisSummary {
        nodes,
        mean_freshness,
        mean_within_deadline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyStrategy;
    use crate::replication::ReplicationPlanner;
    use omn_sim::{RngFactory, SimDuration};

    fn line_graph() -> ContactGraph {
        let mut g = ContactGraph::new(5);
        g.set_rate(NodeId(0), NodeId(1), 0.01);
        g.set_rate(NodeId(1), NodeId(2), 0.005);
        // Relay candidates.
        g.set_rate(NodeId(0), NodeId(3), 0.02);
        g.set_rate(NodeId(3), NodeId(1), 0.02);
        g.set_rate(NodeId(1), NodeId(4), 0.02);
        g.set_rate(NodeId(4), NodeId(2), 0.02);
        g
    }

    fn build(graph: &ContactGraph) -> RefreshHierarchy {
        let mut rng = RngFactory::new(1).stream("h");
        RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            graph,
            HierarchyStrategy::GreedySed { fanout: None },
            &mut rng,
        )
    }

    #[test]
    fn unreplicated_chain_is_hypoexponential() {
        let g = line_graph();
        let h = build(&g);
        let model = node_delay_model(&h, &EdgePlans::default(), &g, NodeId(2));
        // Path 0→1→2: Hypo[0.01, 0.005].
        assert!((model.mean().unwrap() - (100.0 + 200.0)).abs() < 1e-9);
    }

    #[test]
    fn replication_shifts_the_distribution_left() {
        let g = line_graph();
        let h = build(&g);
        let req = FreshnessRequirement::new(0.9, SimDuration::from_secs(300.0));
        let plans = ReplicationPlanner::new(req, 2).plan_hierarchy(&h, &g);
        let bare = node_delay_model(&h, &EdgePlans::default(), &g, NodeId(2));
        let replicated = node_delay_model(&h, &plans, &g, NodeId(2));
        for t in [100.0, 300.0, 600.0] {
            assert!(
                replicated.cdf(t) >= bare.cdf(t) - 1e-9,
                "t={t}: {} < {}",
                replicated.cdf(t),
                bare.cdf(t)
            );
        }
    }

    #[test]
    fn predicted_freshness_bounds() {
        let fast = DelayModel::exponential(1.0);
        let slow = DelayModel::exponential(0.0001);
        assert!(predicted_freshness(&fast, 1000.0) > 0.99);
        assert!(predicted_freshness(&slow, 1000.0) < 0.2);
        assert_eq!(predicted_freshness(&DelayModel::Never, 100.0), 0.0);
    }

    #[test]
    fn overhead_model_counts_relays() {
        let g = line_graph();
        let h = build(&g);
        let req = FreshnessRequirement::new(0.9, SimDuration::from_secs(300.0));
        let plans = ReplicationPlanner::new(req, 2).plan_hierarchy(&h, &g);
        let model = overhead_model(&h, &plans);
        assert_eq!(model.tree_transmissions, 2.0);
        let relays: usize = plans.values().map(|p| p.relays.len()).sum();
        assert_eq!(model.replica_transmissions, relays as f64);
        assert!(model.per_version_upper_bound() >= model.tree_transmissions);
    }

    #[test]
    fn overhead_model_bounds_simulation() {
        // The analytical per-version upper bound must dominate the
        // simulator's measured tx/version for the same structures.
        use crate::scheme::{HierarchicalConfig, HierarchicalScheme};
        use crate::sim::{FreshnessConfig, FreshnessSimulator};
        use omn_contacts::synth::{generate_pairwise, PairwiseConfig};

        let factory = RngFactory::new(33);
        let trace = generate_pairwise(
            &PairwiseConfig::new(25, SimDuration::from_days(4.0)).mean_rate(1.0 / 5400.0),
            &factory,
        );
        let config = FreshnessConfig {
            caching_nodes: 6,
            refresh_period: SimDuration::from_hours(12.0),
            query_count: 0,
            ..FreshnessConfig::default()
        };
        let sim = FreshnessSimulator::new(config);
        let (source, members) = sim.select_roles(&trace);
        let mut scheme = HierarchicalScheme::new(HierarchicalConfig {
            replication: Some(config.requirement),
            ..HierarchicalConfig::default()
        });
        let report = sim.run_with_roles(&trace, source, &members, &mut scheme, &factory);
        let graph = omn_contacts::ContactGraph::from_trace(&trace);
        let _ = &graph;
        let model = overhead_model(scheme.hierarchy().unwrap(), scheme.plans());
        let measured_per_version = report.transmissions as f64 / report.version_count as f64;
        assert!(
            measured_per_version <= model.per_version_upper_bound() + 1e-9,
            "measured {measured_per_version} vs bound {}",
            model.per_version_upper_bound()
        );
    }

    #[test]
    fn analyze_summary_shape() {
        let g = line_graph();
        let h = build(&g);
        let req = FreshnessRequirement::new(0.9, SimDuration::from_secs(300.0));
        let plans = ReplicationPlanner::new(req, 2).plan_hierarchy(&h, &g);
        let summary = analyze(&h, &plans, &g, 1000.0, req);
        assert_eq!(summary.nodes.len(), 2);
        // Deeper node is predicted staler.
        let f1 = summary
            .nodes
            .iter()
            .find(|p| p.node == NodeId(1))
            .unwrap()
            .freshness;
        let f2 = summary
            .nodes
            .iter()
            .find(|p| p.node == NodeId(2))
            .unwrap()
            .freshness;
        assert!(f1 > f2, "depth hurts freshness: {f1} vs {f2}");
        assert!(summary.mean_freshness > 0.0 && summary.mean_freshness < 1.0);
        assert!(summary.mean_within_deadline > 0.0);
    }
}
