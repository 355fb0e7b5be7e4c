//! Network Central Location (NCL) selection.
//!
//! NCLs are the nodes that data is pushed to and cached at: nodes that other
//! nodes can reach quickly and frequently via opportunistic contacts. The
//! selection ranks nodes by delay-closeness over the contact graph
//! ([`Centrality::Closeness`]) and takes the most central ones.

use omn_contacts::{Centrality, ContactGraph, NodeId};

/// Selects the `count` most central nodes by delay-closeness, most central
/// first (ties toward smaller node ids; at most every node).
///
/// # Example
///
/// ```
/// use omn_caching::ncl::select_ncls;
/// use omn_contacts::{ContactGraph, NodeId};
///
/// let mut g = ContactGraph::new(4);
/// g.set_rate(NodeId(0), NodeId(1), 1.0);
/// g.set_rate(NodeId(1), NodeId(2), 1.0);
/// g.set_rate(NodeId(2), NodeId(3), 1.0);
/// assert_eq!(select_ncls(&g, 2), vec![NodeId(1), NodeId(2)]);
/// ```
#[must_use]
pub fn select_ncls(graph: &ContactGraph, count: usize) -> Vec<NodeId> {
    graph.top_k(Centrality::Closeness, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense communities bridged by a weak link.
    fn two_communities() -> ContactGraph {
        let mut g = ContactGraph::new(6);
        // Community A: 0,1,2 (node 1 most central within A).
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        g.set_rate(NodeId(1), NodeId(2), 1.0);
        g.set_rate(NodeId(0), NodeId(2), 0.5);
        // Community B: 3,4,5 (node 4 most central within B).
        g.set_rate(NodeId(3), NodeId(4), 1.0);
        g.set_rate(NodeId(4), NodeId(5), 1.0);
        g.set_rate(NodeId(3), NodeId(5), 0.5);
        // Weak bridge.
        g.set_rate(NodeId(2), NodeId(3), 0.01);
        g
    }

    #[test]
    fn selects_requested_count() {
        let g = two_communities();
        for k in 1..=6 {
            assert_eq!(select_ncls(&g, k).len(), k);
        }
    }
}
