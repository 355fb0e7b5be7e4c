//! The refresh hierarchy: who refreshes whom.
//!
//! The caching nodes of an item are organized into a tree rooted at the
//! data source. Each node is responsible for pushing new versions to
//! exactly its children — "each caching node is only responsible for
//! refreshing a specific set of caching nodes" — which distributes the
//! refreshing load and keeps every responsibility pairwise.
//!
//! Construction strategies ([`HierarchyStrategy`]):
//!
//! * [`HierarchyStrategy::GreedySed`] — the scheme's builder: greedy
//!   shortest-expected-delay insertion. Starting from the root, repeatedly
//!   attach the unattached caching node whose expected refresh delay
//!   (parent's delay + expected meeting delay of the new edge) is smallest,
//!   subject to a fanout bound. This directly minimizes the quantity the
//!   freshness analysis depends on.
//! * [`HierarchyStrategy::Star`] — every caching node is a child of the
//!   source: the *source-only* baseline (no distribution of load).
//! * [`HierarchyStrategy::Random`] — random parent assignment under the
//!   same fanout bound: the ablation for contact-awareness.

use std::collections::HashMap;
use std::fmt;

use omn_contacts::{ContactGraph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A structural failure of a hierarchy lookup or mutation.
///
/// Distributed maintenance mutates trees concurrently with lookups: a
/// crashed-and-not-yet-reattached node, or a member a stale fixed plan never
/// attached, is simply *not in the tree* at lookup time. Those are protocol
/// states to handle, not programming errors, so the lookup API reports them
/// as typed errors (`try_*` variants) instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyError {
    /// The node has no parent chain: it is neither the root nor attached.
    NotInHierarchy(NodeId),
    /// The node is not a member (mutations only apply to members).
    NotAMember(NodeId),
    /// The node is already attached (re-attachment would fork the chain).
    AlreadyAttached(NodeId),
    /// The parent chain from this node never reaches the root.
    CyclicChain(NodeId),
    /// The move would place a node inside its own subtree.
    WouldCycle {
        /// The node being moved.
        child: NodeId,
        /// The requested parent, which descends from `child`.
        new_parent: NodeId,
    },
    /// The requested parent already has `fanout` children.
    AtFanoutBound(NodeId),
    /// The move is a no-op (same parent, or self-parenting).
    NoOpReparent(NodeId),
    /// A member dangles: its chain leaves the parent map before the root.
    DanglingChain(NodeId),
    /// The parent map and member set disagree.
    MemberMapMismatch,
    /// A children list disagrees with the parent map.
    ChildListMismatch {
        /// The parent whose children list is inconsistent.
        parent: NodeId,
        /// The child whose parent pointer disagrees.
        child: NodeId,
    },
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HierarchyError::NotInHierarchy(n) => write!(f, "{n} is not in the hierarchy"),
            HierarchyError::NotAMember(n) => write!(f, "{n} is not a member"),
            HierarchyError::AlreadyAttached(n) => write!(f, "{n} is already attached"),
            HierarchyError::CyclicChain(n) => write!(f, "cycle detected in hierarchy at {n}"),
            HierarchyError::WouldCycle { child, new_parent } => {
                write!(f, "{new_parent} is in {child}'s subtree")
            }
            HierarchyError::AtFanoutBound(n) => write!(f, "{n} is at its fanout bound"),
            HierarchyError::NoOpReparent(n) => write!(f, "no-op reparent of {n}"),
            HierarchyError::DanglingChain(n) => write!(f, "{n} dangles off the root chain"),
            HierarchyError::MemberMapMismatch => {
                write!(f, "parent map does not match member set")
            }
            HierarchyError::ChildListMismatch { parent, child } => {
                write!(f, "children list of {parent} disagrees for {child}")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

/// Penalty hop delay (seconds) used for pairs that have never been observed
/// to meet; large enough to lose against any real path, finite so that a
/// spanning tree always exists.
pub const DISCONNECTED_HOP_PENALTY: f64 = 1e12;

/// How to build a refresh hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyStrategy {
    /// Greedy shortest-expected-delay insertion with an optional fanout
    /// bound (`None` = unbounded).
    GreedySed {
        /// Maximum children per node.
        fanout: Option<usize>,
    },
    /// All caching nodes are direct children of the source.
    Star,
    /// Uniformly random parents under an optional fanout bound.
    Random {
        /// Maximum children per node.
        fanout: Option<usize>,
    },
}

/// A refresh tree over the caching nodes of one item, rooted at the source.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshHierarchy {
    root: NodeId,
    members: Vec<NodeId>,
    parent: HashMap<NodeId, NodeId>,
    children: HashMap<NodeId, Vec<NodeId>>,
}

impl RefreshHierarchy {
    /// Builds a hierarchy over `members` (the caching nodes, excluding the
    /// root) using contact rates from `graph`.
    ///
    /// Deterministic for `GreedySed` and `Star`; `Random` draws from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `members` contains the root or duplicates, or any fanout
    /// bound is zero.
    pub fn build<R: Rng>(
        root: NodeId,
        members: &[NodeId],
        graph: &ContactGraph,
        strategy: HierarchyStrategy,
        rng: &mut R,
    ) -> RefreshHierarchy {
        let mut sorted = members.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "duplicate members");
        assert!(!sorted.contains(&root), "members must exclude the root");

        match strategy {
            HierarchyStrategy::Star => {
                let mut h = RefreshHierarchy::empty(root, sorted.clone());
                for m in sorted {
                    h.attach(m, root);
                }
                h
            }
            HierarchyStrategy::GreedySed { fanout } => {
                RefreshHierarchy::build_greedy_sed(root, &sorted, graph, fanout)
            }
            HierarchyStrategy::Random { fanout } => {
                let fanout = fanout.inspect(|&f| {
                    assert!(f > 0, "zero fanout");
                });
                let mut h = RefreshHierarchy::empty(root, sorted.clone());
                let mut order = sorted.clone();
                order.shuffle(rng);
                let mut in_tree = vec![root];
                for m in order {
                    let candidates: Vec<NodeId> = in_tree
                        .iter()
                        .copied()
                        .filter(|n| fanout.is_none_or(|f| h.children_of(*n).len() < f))
                        .collect();
                    let parent = *candidates.choose(rng).unwrap_or(&root);
                    h.attach(m, parent);
                    in_tree.push(m);
                }
                h
            }
        }
    }

    fn build_greedy_sed(
        root: NodeId,
        members: &[NodeId],
        graph: &ContactGraph,
        fanout: Option<usize>,
    ) -> RefreshHierarchy {
        if let Some(f) = fanout {
            assert!(f > 0, "zero fanout");
        }
        let mut h = RefreshHierarchy::empty(root, members.to_vec());
        let mut delay: HashMap<NodeId, f64> = HashMap::from([(root, 0.0)]);
        let mut in_tree: Vec<NodeId> = vec![root];
        let mut remaining: Vec<NodeId> = members.to_vec();

        while !remaining.is_empty() {
            let mut best: Option<(f64, NodeId, NodeId)> = None; // (cost, parent, child)
            for &p in &in_tree {
                if fanout.is_some_and(|f| h.children_of(p).len() >= f) {
                    continue;
                }
                let p_delay = delay[&p];
                for &c in &remaining {
                    let hop = graph
                        .expected_delay(p, c)
                        .unwrap_or(DISCONNECTED_HOP_PENALTY);
                    let cost = p_delay + hop;
                    let key = (cost, p, c);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let (cost, p, c) = best.expect("fanout bound always leaves capacity on new leaves");
            h.attach(c, p);
            delay.insert(c, cost);
            in_tree.push(c);
            remaining.retain(|&x| x != c);
        }
        h
    }

    fn empty(root: NodeId, members: Vec<NodeId>) -> RefreshHierarchy {
        RefreshHierarchy {
            root,
            members,
            parent: HashMap::new(),
            children: HashMap::new(),
        }
    }

    fn attach(&mut self, child: NodeId, parent: NodeId) {
        self.parent.insert(child, parent);
        self.children.entry(parent).or_default().push(child);
    }

    /// The root (data source).
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The caching nodes (excluding the root), in sorted order.
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// True if `node` participates in the hierarchy (root or member).
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        node == self.root || self.parent.contains_key(&node)
    }

    /// The node responsible for refreshing `node`, or `None` for the root
    /// (or non-members).
    #[must_use]
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        self.parent.get(&node).copied()
    }

    /// The nodes `node` is responsible for refreshing.
    #[must_use]
    pub fn children_of(&self, node: NodeId) -> &[NodeId] {
        self.children.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Tree depth of `node` (root = 0).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the hierarchy.
    #[must_use]
    pub fn depth_of(&self, node: NodeId) -> usize {
        self.path_from_root(node).len() - 1
    }

    /// Tree depth of `node` (root = 0), or an error if `node` is not in
    /// the hierarchy.
    ///
    /// # Errors
    ///
    /// [`HierarchyError::NotInHierarchy`] for a detached node,
    /// [`HierarchyError::CyclicChain`] for a corrupted parent map.
    pub fn try_depth_of(&self, node: NodeId) -> Result<usize, HierarchyError> {
        Ok(self.try_path_from_root(node)?.len() - 1)
    }

    /// The path `root, …, node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the hierarchy (or the parent map is
    /// cyclic, which `validate` rules out). Mid-maintenance callers that
    /// can race a detach (crash re-attachment, stale plans) must use
    /// [`RefreshHierarchy::try_path_from_root`] instead.
    #[must_use]
    pub fn path_from_root(&self, node: NodeId) -> Vec<NodeId> {
        self.try_path_from_root(node)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The path `root, …, node`, or an error when `node` is currently
    /// detached.
    ///
    /// # Errors
    ///
    /// [`HierarchyError::NotInHierarchy`] if the chain from `node` leaves
    /// the parent map before reaching the root (the node was never
    /// attached, or a crash-with-state-loss dropped it and re-attachment
    /// has not happened yet); [`HierarchyError::CyclicChain`] if the chain
    /// never terminates.
    pub fn try_path_from_root(&self, node: NodeId) -> Result<Vec<NodeId>, HierarchyError> {
        let mut path = vec![node];
        let mut cur = node;
        while cur != self.root {
            cur = match self.parent.get(&cur) {
                Some(&p) => p,
                None => return Err(HierarchyError::NotInHierarchy(cur)),
            };
            path.push(cur);
            if path.len() > self.members.len() + 2 {
                return Err(HierarchyError::CyclicChain(node));
            }
        }
        path.reverse();
        Ok(path)
    }

    /// All `(parent, child)` responsibility edges, children in sorted order
    /// for determinism.
    #[must_use]
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut es: Vec<(NodeId, NodeId)> = self.parent.iter().map(|(&c, &p)| (p, c)).collect();
        es.sort();
        es
    }

    /// Maximum number of children of any node.
    #[must_use]
    pub fn max_fanout(&self) -> usize {
        self.children.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Maximum depth over members.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.members
            .iter()
            .map(|&m| self.depth_of(m))
            .max()
            .unwrap_or(0)
    }

    /// Mean depth over members (0 when there are none).
    #[must_use]
    pub fn mean_depth(&self) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        self.members
            .iter()
            .map(|&m| self.depth_of(m) as f64)
            .sum::<f64>()
            / self.members.len() as f64
    }

    /// The expected refresh delay of `node` along its tree path, using
    /// contact rates from `graph` (disconnected hops cost
    /// [`DISCONNECTED_HOP_PENALTY`]).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the hierarchy.
    #[must_use]
    pub fn expected_path_delay(&self, node: NodeId, graph: &ContactGraph) -> f64 {
        self.try_expected_path_delay(node, graph)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`RefreshHierarchy::expected_path_delay`].
    ///
    /// # Errors
    ///
    /// Propagates [`RefreshHierarchy::try_path_from_root`] errors for a
    /// detached `node`.
    pub fn try_expected_path_delay(
        &self,
        node: NodeId,
        graph: &ContactGraph,
    ) -> Result<f64, HierarchyError> {
        Ok(self
            .try_path_from_root(node)?
            .windows(2)
            .map(|w| {
                graph
                    .expected_delay(w[0], w[1])
                    .unwrap_or(DISCONNECTED_HOP_PENALTY)
            })
            .sum())
    }

    /// Expected refresh delay of `node` along its tree path with an
    /// arbitrary rate oracle (used with online-estimated rates during
    /// distributed maintenance). A zero rate costs
    /// [`DISCONNECTED_HOP_PENALTY`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the hierarchy.
    pub fn expected_path_delay_with<F>(&self, node: NodeId, rate: F) -> f64
    where
        F: FnMut(NodeId, NodeId) -> f64,
    {
        self.try_expected_path_delay_with(node, rate)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`RefreshHierarchy::expected_path_delay_with`]:
    /// the distributed-maintenance path, where a lookup can legitimately
    /// race a crash-with-state-loss detach.
    ///
    /// # Errors
    ///
    /// Propagates [`RefreshHierarchy::try_path_from_root`] errors for a
    /// detached `node`.
    pub fn try_expected_path_delay_with<F>(
        &self,
        node: NodeId,
        mut rate: F,
    ) -> Result<f64, HierarchyError>
    where
        F: FnMut(NodeId, NodeId) -> f64,
    {
        Ok(self
            .try_path_from_root(node)?
            .windows(2)
            .map(|w| {
                let r = rate(w[0], w[1]);
                if r > 0.0 {
                    1.0 / r
                } else {
                    DISCONNECTED_HOP_PENALTY
                }
            })
            .sum())
    }

    /// Moves `child` under `new_parent` (distributed re-parenting).
    ///
    /// # Errors
    ///
    /// Fails if `child` is not a member, `new_parent` is not in the
    /// hierarchy, the move would create a cycle (`new_parent` lies in
    /// `child`'s subtree), or `new_parent` would exceed `fanout`.
    pub fn reparent(
        &mut self,
        child: NodeId,
        new_parent: NodeId,
        fanout: Option<usize>,
    ) -> Result<(), HierarchyError> {
        let old_parent = self
            .parent_of(child)
            .ok_or(HierarchyError::NotAMember(child))?;
        if !self.contains(new_parent) {
            return Err(HierarchyError::NotInHierarchy(new_parent));
        }
        if new_parent == old_parent || new_parent == child {
            return Err(HierarchyError::NoOpReparent(child));
        }
        // Cycle check: new_parent must not descend from child.
        if self.try_path_from_root(new_parent)?.contains(&child) {
            return Err(HierarchyError::WouldCycle { child, new_parent });
        }
        if let Some(f) = fanout {
            if self.children_of(new_parent).len() >= f {
                return Err(HierarchyError::AtFanoutBound(new_parent));
            }
        }
        if let Some(siblings) = self.children.get_mut(&old_parent) {
            siblings.retain(|&c| c != child);
        }
        self.attach(child, new_parent);
        Ok(())
    }

    /// Re-attaches a currently *detached* member under `parent` — the
    /// repair path for orphans: a member a stale fixed plan never placed,
    /// or one whose parent pointer was dropped by a crash with state loss.
    /// The node is added to the member set if it is not already there.
    ///
    /// # Errors
    ///
    /// Fails with [`HierarchyError::AlreadyAttached`] if `child` already
    /// has a parent chain (use [`RefreshHierarchy::reparent`] to move it),
    /// [`HierarchyError::NotInHierarchy`] if `parent` is itself detached,
    /// [`HierarchyError::NoOpReparent`] on self-attachment, or
    /// [`HierarchyError::AtFanoutBound`] if `parent` is full.
    pub fn attach_member(
        &mut self,
        child: NodeId,
        parent: NodeId,
        fanout: Option<usize>,
    ) -> Result<(), HierarchyError> {
        if self.contains(child) {
            return Err(HierarchyError::AlreadyAttached(child));
        }
        if !self.contains(parent) {
            return Err(HierarchyError::NotInHierarchy(parent));
        }
        if child == parent {
            return Err(HierarchyError::NoOpReparent(child));
        }
        if let Some(f) = fanout {
            if self.children_of(parent).len() >= f {
                return Err(HierarchyError::AtFanoutBound(parent));
            }
        }
        if !self.members.contains(&child) {
            self.members.push(child);
            self.members.sort();
        }
        self.attach(child, parent);
        Ok(())
    }

    /// A node of the tree with spare child capacity under `fanout`,
    /// breadth-first from the root (so repairs attach as high up as
    /// possible), or `None` only if every attached node is full.
    #[must_use]
    pub fn first_open_host(&self, fanout: Option<usize>) -> Option<NodeId> {
        let mut frontier = vec![self.root];
        let mut next = Vec::new();
        while !frontier.is_empty() {
            for &n in &frontier {
                if fanout.is_none_or(|f| self.children_of(n).len() < f) {
                    return Some(n);
                }
                next.extend_from_slice(self.children_of(n));
            }
            // children_of lists are in attach order; sort each level so
            // the host choice is deterministic.
            next.sort();
            frontier = std::mem::take(&mut next);
        }
        None
    }

    /// Checks structural invariants: every member has a parent chain
    /// reaching the root, children lists mirror the parent map, and any
    /// fanout bound holds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, fanout: Option<usize>) -> Result<(), HierarchyError> {
        for &m in &self.members {
            if !self.parent.contains_key(&m) {
                return Err(HierarchyError::NotInHierarchy(m));
            }
            let mut cur = m;
            let mut steps = 0;
            while cur != self.root {
                match self.parent.get(&cur) {
                    Some(&p) => cur = p,
                    None => return Err(HierarchyError::DanglingChain(cur)),
                }
                steps += 1;
                if steps > self.members.len() + 1 {
                    return Err(HierarchyError::CyclicChain(m));
                }
            }
        }
        if self.parent.len() != self.members.len() {
            return Err(HierarchyError::MemberMapMismatch);
        }
        for (&parent, children) in &self.children {
            for &c in children {
                if self.parent.get(&c) != Some(&parent) {
                    return Err(HierarchyError::ChildListMismatch { parent, child: c });
                }
            }
            if let Some(f) = fanout {
                if children.len() > f {
                    return Err(HierarchyError::AtFanoutBound(parent));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omn_sim::RngFactory;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    /// Line graph 0—1—2—3 with fast nearby links.
    fn line_graph() -> ContactGraph {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        g.set_rate(NodeId(1), NodeId(2), 1.0);
        g.set_rate(NodeId(2), NodeId(3), 1.0);
        g.set_rate(NodeId(0), NodeId(2), 0.05);
        g.set_rate(NodeId(0), NodeId(3), 0.01);
        g
    }

    #[test]
    fn greedy_sed_follows_fast_links() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[1, 2, 3]),
            &g,
            HierarchyStrategy::GreedySed { fanout: None },
            &mut rng,
        );
        h.validate(None).unwrap();
        // Chain 0→1→2→3 has delays 1, 2, 3 — far better than the direct
        // links (20, 100).
        assert_eq!(h.parent_of(NodeId(1)), Some(NodeId(0)));
        assert_eq!(h.parent_of(NodeId(2)), Some(NodeId(1)));
        assert_eq!(h.parent_of(NodeId(3)), Some(NodeId(2)));
        assert_eq!(h.depth_of(NodeId(3)), 3);
        assert!((h.expected_path_delay(NodeId(3), &g) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn star_strategy() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[1, 2, 3]),
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
        h.validate(None).unwrap();
        for m in ids(&[1, 2, 3]) {
            assert_eq!(h.parent_of(m), Some(NodeId(0)));
            assert_eq!(h.depth_of(m), 1);
        }
        assert_eq!(h.children_of(NodeId(0)).len(), 3);
        assert_eq!(h.max_depth(), 1);
    }

    #[test]
    fn fanout_bound_is_respected() {
        let mut g = ContactGraph::new(8);
        // Root meets everyone fast: unbounded greedy would build a star.
        for i in 1..8u32 {
            g.set_rate(NodeId(0), NodeId(i), 1.0);
        }
        for i in 1..8u32 {
            for j in (i + 1)..8u32 {
                g.set_rate(NodeId(i), NodeId(j), 0.5);
            }
        }
        let members = ids(&[1, 2, 3, 4, 5, 6, 7]);
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &members,
            &g,
            HierarchyStrategy::GreedySed { fanout: Some(2) },
            &mut rng,
        );
        h.validate(Some(2)).unwrap();
        assert!(h.max_fanout() <= 2);
        assert!(h.max_depth() >= 2, "bounded fanout forces depth");
    }

    #[test]
    fn random_strategy_valid_and_seed_dependent() {
        let g = line_graph();
        let members = ids(&[1, 2, 3]);
        let strategies = HierarchyStrategy::Random { fanout: Some(2) };
        let h1 = RefreshHierarchy::build(
            NodeId(0),
            &members,
            &g,
            strategies,
            &mut RngFactory::new(1).stream("h"),
        );
        h1.validate(Some(2)).unwrap();
        let h2 = RefreshHierarchy::build(
            NodeId(0),
            &members,
            &g,
            strategies,
            &mut RngFactory::new(1).stream("h"),
        );
        assert_eq!(h1, h2, "same seed, same tree");
    }

    #[test]
    fn disconnected_members_still_attached() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        // Node 2 never meets anyone.
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[1, 2]),
            &g,
            HierarchyStrategy::GreedySed { fanout: None },
            &mut rng,
        );
        h.validate(None).unwrap();
        assert!(h.contains(NodeId(2)));
        assert!(h.expected_path_delay(NodeId(2), &g) >= DISCONNECTED_HOP_PENALTY);
    }

    #[test]
    fn path_and_edges() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[1, 2, 3]),
            &g,
            HierarchyStrategy::GreedySed { fanout: None },
            &mut rng,
        );
        assert_eq!(h.path_from_root(NodeId(3)), ids(&[0, 1, 2, 3]));
        assert_eq!(h.edges().len(), 3);
        assert!((h.mean_depth() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reparent_moves_subtrees_safely() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let mut h = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[1, 2, 3]),
            &g,
            HierarchyStrategy::GreedySed { fanout: None },
            &mut rng,
        );
        // Chain 0→1→2→3. Move 3 directly under 0.
        h.reparent(NodeId(3), NodeId(0), None).unwrap();
        h.validate(None).unwrap();
        assert_eq!(h.parent_of(NodeId(3)), Some(NodeId(0)));
        assert_eq!(h.depth_of(NodeId(3)), 1);
        // Cycle rejected: moving 1 under its descendant 2.
        assert!(h.reparent(NodeId(1), NodeId(2), None).is_err());
        // Fanout rejected.
        assert!(h.reparent(NodeId(2), NodeId(0), Some(2)).is_err());
        // Unknown nodes rejected.
        assert!(h.reparent(NodeId(9), NodeId(0), None).is_err());
        h.validate(None).unwrap();
    }

    #[test]
    fn expected_path_delay_with_estimator() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[1, 2, 3]),
            &g,
            HierarchyStrategy::GreedySed { fanout: None },
            &mut rng,
        );
        // With a constant-rate oracle of 0.5, every hop costs 2.
        let d = h.expected_path_delay_with(NodeId(3), |_, _| 0.5);
        assert!((d - 6.0).abs() < 1e-12);
        // Zero rates cost the penalty.
        let d = h.expected_path_delay_with(NodeId(1), |_, _| 0.0);
        assert!(d >= DISCONNECTED_HOP_PENALTY);
    }

    #[test]
    fn try_lookups_report_detached_nodes_instead_of_panicking() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[1, 2, 3]),
            &g,
            HierarchyStrategy::GreedySed { fanout: None },
            &mut rng,
        );
        // Node 9 was never attached.
        assert_eq!(
            h.try_path_from_root(NodeId(9)),
            Err(HierarchyError::NotInHierarchy(NodeId(9)))
        );
        assert_eq!(
            h.try_depth_of(NodeId(9)),
            Err(HierarchyError::NotInHierarchy(NodeId(9)))
        );
        assert!(h.try_expected_path_delay(NodeId(9), &g).is_err());
        assert!(h
            .try_expected_path_delay_with(NodeId(9), |_, _| 1.0)
            .is_err());
        // Attached nodes agree with the panicking API.
        assert_eq!(
            h.try_path_from_root(NodeId(3)).unwrap(),
            h.path_from_root(NodeId(3))
        );
        assert_eq!(h.try_depth_of(NodeId(3)).unwrap(), h.depth_of(NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "is not in the hierarchy")]
    fn panicking_lookup_still_panics_for_detached_nodes() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(NodeId(0), &[], &g, HierarchyStrategy::Star, &mut rng);
        let _ = h.path_from_root(NodeId(7));
    }

    #[test]
    fn attach_member_repairs_an_orphan() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let mut h = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[1, 2]),
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
        // Node 3 is a world member the (stale) tree never placed.
        assert!(!h.contains(NodeId(3)));
        h.attach_member(NodeId(3), NodeId(0), None).unwrap();
        assert!(h.contains(NodeId(3)));
        assert_eq!(h.parent_of(NodeId(3)), Some(NodeId(0)));
        assert_eq!(h.members(), ids(&[1, 2, 3]).as_slice());
        h.validate(None).unwrap();
        // Double attachment is rejected.
        assert_eq!(
            h.attach_member(NodeId(3), NodeId(0), None),
            Err(HierarchyError::AlreadyAttached(NodeId(3)))
        );
        // Fanout-bound parents are rejected.
        assert_eq!(
            h.attach_member(NodeId(4), NodeId(0), Some(3)),
            Err(HierarchyError::AtFanoutBound(NodeId(0)))
        );
    }

    #[test]
    fn first_open_host_walks_breadth_first() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let mut h = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[1, 2, 3]),
            &g,
            HierarchyStrategy::GreedySed { fanout: None },
            &mut rng,
        );
        // Chain 0→1→2→3: with fanout 1, nodes 0..=2 are full; the first
        // open host is the deepest node, 3.
        assert_eq!(h.first_open_host(Some(1)), Some(NodeId(3)));
        assert_eq!(h.first_open_host(None), Some(NodeId(0)));
        // 0→{1,3}, 1→2: at fanout 2 the root is full, its first child
        // with spare capacity (1) hosts.
        h.reparent(NodeId(3), NodeId(0), None).unwrap();
        assert_eq!(h.first_open_host(Some(2)), Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "exclude the root")]
    fn rejects_root_in_members() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let _ = RefreshHierarchy::build(
            NodeId(0),
            &ids(&[0, 1]),
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
    }

    #[test]
    fn empty_members_is_fine() {
        let g = line_graph();
        let mut rng = RngFactory::new(1).stream("h");
        let h = RefreshHierarchy::build(
            NodeId(0),
            &[],
            &g,
            HierarchyStrategy::GreedySed { fanout: Some(2) },
            &mut rng,
        );
        h.validate(Some(2)).unwrap();
        assert_eq!(h.max_depth(), 0);
        assert_eq!(h.mean_depth(), 0.0);
        assert!(h.edges().is_empty());
    }
}
