//! Probabilistic replication: sizing relay sets so freshness requirements
//! hold analytically.
//!
//! A tree edge `parent → child` succeeds directly within its hop deadline
//! `τh` with probability `p₀ = 1 − e^(−λ·τh)`. When `p₀` falls short of the
//! per-hop target, the parent *replicates* the new version to relay nodes:
//! a relay `r` delivers within `τh` with probability
//! `P(X_pr + X_rc ≤ τh)` (hypoexponential, closed form from
//! [`crate::delay`]). Relays are added greedily, best first, until the
//! combined success probability
//! `1 − (1 − p₀)·Π(1 − p_r)` reaches the target (independence of the
//! pairwise contact processes, the paper family's standard assumption).
//!
//! Per-hop deadlines and targets derive from the end-to-end requirement
//! `(q, τ)` of each member: along a member's path the deadline is split
//! proportionally to expected hop delays and the probability target
//! geometrically (`q^(wₖ/W)`), so the product over the path recovers `q`
//! within total deadline `τ`. An edge shared by several members adopts its
//! most stringent assignment (minimum deadline, maximum target).

use omn_contacts::{ContactGraph, NodeId};
use omn_sim::{FxHashMap, SimDuration};

use crate::delay::DelayModel;
use crate::freshness::FreshnessRequirement;
use crate::hierarchy::{RefreshHierarchy, DISCONNECTED_HOP_PENALTY};

/// The replication plans of a hierarchy, keyed by tree edge
/// `(parent, child)`.
pub type EdgePlans = FxHashMap<(NodeId, NodeId), ReplicationPlan>;

/// The replication plan of one tree edge.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationPlan {
    /// Relays, in the order they were selected (best first).
    pub relays: Vec<NodeId>,
    /// Probability of direct delivery within the hop deadline.
    pub direct_probability: f64,
    /// Combined probability with the selected relays.
    pub achieved_probability: f64,
    /// The per-hop probability target this edge had to meet.
    pub target: f64,
    /// The per-hop deadline, seconds.
    pub hop_deadline: f64,
}

impl ReplicationPlan {
    /// True if the achieved probability meets the target.
    #[must_use]
    pub fn meets_target(&self) -> bool {
        self.achieved_probability + 1e-12 >= self.target
    }

    /// The hop delay model implied by this plan for edge `parent → child`:
    /// the direct exponential raced against each relay's two-hop path.
    #[must_use]
    pub fn hop_delay_model(
        &self,
        graph: &ContactGraph,
        parent: NodeId,
        child: NodeId,
    ) -> DelayModel {
        let mut components = vec![DelayModel::from_contact_rate(graph.rate(parent, child))];
        for &r in &self.relays {
            let l1 = graph.rate(parent, r);
            let l2 = graph.rate(r, child);
            if l1 > 0.0 && l2 > 0.0 {
                components.push(DelayModel::hypoexponential(vec![l1, l2]));
            }
        }
        DelayModel::min_of(components)
    }
}

/// Plans replication for tree edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPlanner {
    /// The end-to-end freshness requirement.
    pub requirement: FreshnessRequirement,
    /// Maximum relays per edge.
    pub max_relays: usize,
}

impl ReplicationPlanner {
    /// Creates a planner.
    #[must_use]
    pub fn new(requirement: FreshnessRequirement, max_relays: usize) -> ReplicationPlanner {
        ReplicationPlanner {
            requirement,
            max_relays,
        }
    }

    /// Probability that a single relay `r` carries the version from
    /// `parent` to `child` within `deadline` seconds.
    #[must_use]
    pub fn relay_probability(
        graph: &ContactGraph,
        parent: NodeId,
        relay: NodeId,
        child: NodeId,
        deadline: f64,
    ) -> f64 {
        let l1 = graph.rate(parent, relay);
        let l2 = graph.rate(relay, child);
        if l1 <= 0.0 || l2 <= 0.0 || deadline <= 0.0 {
            return 0.0;
        }
        DelayModel::hypoexponential(vec![l1, l2]).cdf(deadline)
    }

    /// Plans one edge: greedily add the best relays from `candidates`
    /// until `target` is reached (or `max_relays` / candidates run out).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1)` or `hop_deadline` is zero.
    #[must_use]
    pub fn plan_edge(
        &self,
        graph: &ContactGraph,
        parent: NodeId,
        child: NodeId,
        candidates: &[NodeId],
        hop_deadline: SimDuration,
        target: f64,
    ) -> ReplicationPlan {
        assert!(
            target > 0.0 && target < 1.0,
            "target out of range: {target}"
        );
        assert!(!hop_deadline.is_zero(), "zero hop deadline");
        let tau = hop_deadline.as_secs();
        let direct = DelayModel::from_contact_rate(graph.rate(parent, child)).cdf(tau);

        let mut scored: Vec<(f64, NodeId)> = candidates
            .iter()
            .filter(|&&r| r != parent && r != child)
            .map(|&r| {
                (
                    ReplicationPlanner::relay_probability(graph, parent, r, child, tau),
                    r,
                )
            })
            .filter(|(p, _)| *p > 0.0)
            .collect();
        // Best first; ties by node id for determinism.
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut plan = ReplicationPlan {
            relays: Vec::new(),
            direct_probability: direct,
            achieved_probability: direct,
            target,
            hop_deadline: tau,
        };
        let mut miss = 1.0 - direct;
        for (p, r) in scored {
            if plan.achieved_probability + 1e-12 >= target || plan.relays.len() >= self.max_relays {
                break;
            }
            miss *= 1.0 - p;
            plan.relays.push(r);
            plan.achieved_probability = 1.0 - miss;
        }
        plan
    }

    /// Plans every edge of a hierarchy. Relay candidates are the nodes of
    /// the graph that are *not* in the hierarchy (non-caching nodes).
    ///
    /// Edge deadlines/targets are derived per member path (proportional
    /// deadline split, geometric probability split) and the most stringent
    /// assignment wins on shared edges.
    #[must_use]
    pub fn plan_hierarchy(&self, hierarchy: &RefreshHierarchy, graph: &ContactGraph) -> EdgePlans {
        let req = self.requirement;
        self.plan_hierarchy_per_member(hierarchy, graph, |_| req)
    }

    /// Like [`ReplicationPlanner::plan_hierarchy`], but with heterogeneous
    /// per-member requirements: `requirement_of(member)` gives the
    /// requirement of each caching node (e.g. hot-content subscribers need
    /// tighter guarantees than background readers). An edge shared between
    /// members with different requirements adopts the most stringent
    /// assignment.
    #[must_use]
    pub fn plan_hierarchy_per_member<F>(
        &self,
        hierarchy: &RefreshHierarchy,
        graph: &ContactGraph,
        requirement_of: F,
    ) -> EdgePlans
    where
        F: Fn(NodeId) -> FreshnessRequirement,
    {
        let candidates: Vec<NodeId> = (0..graph.node_count() as u32)
            .map(NodeId)
            .filter(|&n| !hierarchy.contains(n))
            .collect();

        // Most stringent (deadline, target) per edge over member paths.
        let mut edge_req: FxHashMap<(NodeId, NodeId), (f64, f64)> = FxHashMap::default();
        for &m in hierarchy.members() {
            let member_req = requirement_of(m);
            let tau = member_req.deadline.as_secs();
            let q = member_req.probability;
            // A member whose chain is severed (stale plan, unrepaired
            // crash) gets no replication effort rather than a panic: the
            // maintenance layer re-attaches it at its next rejoin.
            let Ok(path) = hierarchy.try_path_from_root(m) else {
                continue;
            };
            let weights: Vec<f64> = path
                .windows(2)
                .map(|w| {
                    graph
                        .expected_delay(w[0], w[1])
                        .unwrap_or(DISCONNECTED_HOP_PENALTY)
                })
                .collect();
            let total: f64 = weights.iter().sum();
            for (hop, w) in path.windows(2).zip(weights.iter()) {
                let share = if total > 0.0 { w / total } else { 1.0 };
                let deadline = (tau * share).max(1e-6);
                let target = q.powf(share).clamp(1e-9, 1.0 - 1e-9);
                let entry = edge_req
                    .entry((hop[0], hop[1]))
                    .or_insert((deadline, target));
                entry.0 = entry.0.min(deadline);
                entry.1 = entry.1.max(target);
            }
        }

        edge_req
            .into_iter()
            .map(|((p, c), (deadline, target))| {
                let plan = self.plan_edge(
                    graph,
                    p,
                    c,
                    &candidates,
                    SimDuration::from_secs(deadline),
                    target,
                );
                ((p, c), plan)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyStrategy;
    use omn_sim::RngFactory;

    fn req(q: f64, deadline: f64) -> FreshnessRequirement {
        FreshnessRequirement::new(q, SimDuration::from_secs(deadline))
    }

    /// Parent 0, child 1 with a slow direct link; relays 2, 3, 4 with
    /// increasingly fast two-hop paths; node 5 disconnected.
    fn relay_graph() -> ContactGraph {
        let mut g = ContactGraph::new(6);
        g.set_rate(NodeId(0), NodeId(1), 0.001);
        for (r, rate) in [(2u32, 0.01), (3, 0.05), (4, 0.2)] {
            g.set_rate(NodeId(0), NodeId(r), rate);
            g.set_rate(NodeId(r), NodeId(1), rate);
        }
        g
    }

    #[test]
    fn no_relays_needed_when_direct_is_strong() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        let planner = ReplicationPlanner::new(req(0.9, 10.0), 4);
        let plan = planner.plan_edge(
            &g,
            NodeId(0),
            NodeId(1),
            &[NodeId(2)],
            SimDuration::from_secs(10.0),
            0.9,
        );
        assert!(plan.relays.is_empty());
        assert!(plan.meets_target());
        assert!(plan.direct_probability > 0.99);
    }

    #[test]
    fn relays_added_best_first() {
        let g = relay_graph();
        let planner = ReplicationPlanner::new(req(0.9, 100.0), 4);
        let plan = planner.plan_edge(
            &g,
            NodeId(0),
            NodeId(1),
            &[NodeId(2), NodeId(3), NodeId(4), NodeId(5)],
            SimDuration::from_secs(100.0),
            0.9,
        );
        assert!(!plan.relays.is_empty());
        // Fastest relay (4) first.
        assert_eq!(plan.relays[0], NodeId(4));
        // Achieved increases monotonically with each relay and meets or
        // approaches the target under the cap.
        assert!(plan.achieved_probability > plan.direct_probability);
        // Disconnected node 5 never selected.
        assert!(!plan.relays.contains(&NodeId(5)));
    }

    #[test]
    fn max_relays_caps_the_plan() {
        let g = relay_graph();
        // Short deadline: the best relay alone reaches ~0.6, far below the
        // 0.999 target, so the cap of one relay leaves the plan short.
        let planner = ReplicationPlanner::new(req(0.999, 10.0), 1);
        let plan = planner.plan_edge(
            &g,
            NodeId(0),
            NodeId(1),
            &[NodeId(2), NodeId(3), NodeId(4)],
            SimDuration::from_secs(10.0),
            0.999,
        );
        assert_eq!(plan.relays.len(), 1);
        // Target unreachable with one relay: plan reports honestly.
        assert!(!plan.meets_target());
    }

    #[test]
    fn relay_probability_closed_form() {
        let g = relay_graph();
        // Relay 4: Hypo[0.2, 0.2] at t=100 ≈ Erlang-2.
        let p = ReplicationPlanner::relay_probability(&g, NodeId(0), NodeId(4), NodeId(1), 100.0);
        let lt: f64 = 0.2 * 100.0;
        let erlang = 1.0 - (-lt).exp() * (1.0 + lt);
        assert!((p - erlang).abs() < 1e-3, "{p} vs {erlang}");
        // Disconnected relay has zero probability.
        assert_eq!(
            ReplicationPlanner::relay_probability(&g, NodeId(0), NodeId(5), NodeId(1), 100.0),
            0.0
        );
    }

    #[test]
    fn hop_delay_model_includes_relays() {
        let g = relay_graph();
        let planner = ReplicationPlanner::new(req(0.9, 100.0), 4);
        let plan = planner.plan_edge(
            &g,
            NodeId(0),
            NodeId(1),
            &[NodeId(2), NodeId(3), NodeId(4)],
            SimDuration::from_secs(100.0),
            0.9,
        );
        let with = plan.hop_delay_model(&g, NodeId(0), NodeId(1));
        let without = DelayModel::from_contact_rate(g.rate(NodeId(0), NodeId(1)));
        // Replication strictly improves the within-deadline probability.
        assert!(with.cdf(100.0) > without.cdf(100.0));
        assert!((with.cdf(100.0) - plan.achieved_probability).abs() < 1e-6);
    }

    #[test]
    fn plan_hierarchy_covers_every_edge() {
        let g = relay_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1), NodeId(3)],
            &g,
            HierarchyStrategy::GreedySed { fanout: None },
            &mut rng,
        );
        let planner = ReplicationPlanner::new(req(0.8, 500.0), 3);
        let plans = planner.plan_hierarchy(&h, &g);
        assert_eq!(plans.len(), h.edges().len());
        for ((p, c), plan) in &plans {
            assert_eq!(h.parent_of(*c), Some(*p));
            // Relays are non-members only.
            for r in &plan.relays {
                assert!(!h.contains(*r), "relay {r} is a caching node");
            }
            assert!(plan.hop_deadline > 0.0);
        }
    }

    #[test]
    fn per_member_requirements_differentiate_edges() {
        // Star over two children with very different requirements on
        // equally slow direct links; the strict child's edge gets more
        // relays.
        let mut g = ContactGraph::new(8);
        g.set_rate(NodeId(0), NodeId(1), 0.001);
        g.set_rate(NodeId(0), NodeId(2), 0.001);
        for r in 3..8u32 {
            g.set_rate(NodeId(0), NodeId(r), 0.03);
            g.set_rate(NodeId(r), NodeId(1), 0.03);
            g.set_rate(NodeId(r), NodeId(2), 0.03);
        }
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
        let planner = ReplicationPlanner::new(req(0.5, 100.0), 5);
        let plans = planner.plan_hierarchy_per_member(&h, &g, |m| {
            if m == NodeId(1) {
                req(0.99, 100.0)
            } else {
                req(0.3, 100.0)
            }
        });
        let strict = &plans[&(NodeId(0), NodeId(1))];
        let lax = &plans[&(NodeId(0), NodeId(2))];
        assert!(
            strict.relays.len() > lax.relays.len(),
            "strict {} vs lax {}",
            strict.relays.len(),
            lax.relays.len()
        );
        assert!(strict.target > lax.target);
    }

    #[test]
    fn stringent_requirement_needs_more_relays() {
        let g = relay_graph();
        let planner = ReplicationPlanner::new(req(0.5, 60.0), 4);
        let lax = planner.plan_edge(
            &g,
            NodeId(0),
            NodeId(1),
            &[NodeId(2), NodeId(3), NodeId(4)],
            SimDuration::from_secs(60.0),
            0.3,
        );
        let strict = planner.plan_edge(
            &g,
            NodeId(0),
            NodeId(1),
            &[NodeId(2), NodeId(3), NodeId(4)],
            SimDuration::from_secs(60.0),
            0.95,
        );
        assert!(strict.relays.len() >= lax.relays.len());
    }
}
