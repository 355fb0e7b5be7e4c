//! The pairwise contact-rate graph and centrality metrics.
//!
//! Under the standard opportunistic-network model, the inter-contact time of
//! a node pair `(i, j)` is exponential with rate `λij`; the *expected meeting
//! delay* is `1/λij`. The [`ContactGraph`] stores the symmetric rate matrix
//! estimated from a trace and provides:
//!
//! * shortest **expected-delay** paths (Dijkstra with edge weight `1/λ`),
//! * the two centrality metrics the simulators rank nodes by: degree
//!   (the streamed role selection) and delay-closeness (role selection and
//!   the cooperative caching framework's Network Central Locations, NCLs).
//!
//! The graph is stored as per-node sorted adjacency lists rather than a
//! dense `n × n` matrix, so memory scales with the number of node pairs
//! that actually meet — contact graphs are sparse at large `n`, and the
//! E15 scalability sweep builds graphs over 10⁴+ nodes. Every algorithm
//! visits neighbors in ascending node-id order, exactly as the dense
//! row scan did, so rates, shortest paths, and centrality scores are
//! bit-identical to the dense representation.
//!
//! Graphs estimated from contacts ([`ContactGraph::from_pairs`], and
//! through it [`ContactGraph::from_trace`] and the streamed warm-up) are
//! built in one batch pass rather than one sorted-row insert per contact.
//! Each contact's pair is packed as `lo << 32 | hi` into a `u64` and the
//! keys are sorted; a first pass over the sorted keys counts every node's
//! degree, so each row is allocated at its exact size, and a second pass
//! emits each distinct pair once. Because the keys ascend by `(lo, hi)`,
//! every row receives its peers in ascending order and plain pushes keep
//! it sorted. A pair met `k` times gets the rate `0.0 + δ + … + δ` (`k`
//! additions, left to right), not `k as f64 * δ`: the two can differ in
//! the last bit, and the repeated sum is exactly what accumulating `δ`
//! once per contact computes, so the batch graph is bit-identical to the
//! per-contact one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::contact::{Contact, NodeId};
use crate::trace::ContactTrace;

/// The unordered pair `{a, b}` packed as `lo << 32 | hi`, so that keys
/// ascend by `(lo, hi)`: the layout of [`ContactGraph::from_pairs`]'s
/// sort and of [`crate::estimate::PairRateTable`]'s counts.
#[inline]
pub(crate) fn pair_key(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a < b { (a.0, b.0) } else { (b.0, a.0) };
    u64::from(lo) << 32 | u64::from(hi)
}

/// A centrality metric for ranking nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Centrality {
    /// Number of distinct neighbors with non-zero contact rate.
    Degree,
    /// Inverse of the mean shortest expected delay to all reachable nodes,
    /// scaled by the fraction of reachable nodes (harmonically robust to
    /// disconnected graphs).
    Closeness,
}

/// Symmetric pairwise contact-rate graph.
///
/// # Example
///
/// ```
/// use omn_contacts::{ContactGraph, NodeId};
///
/// let mut g = ContactGraph::new(3);
/// g.set_rate(NodeId(0), NodeId(1), 0.5);
/// g.set_rate(NodeId(1), NodeId(2), 0.25);
/// assert_eq!(g.expected_delay(NodeId(0), NodeId(1)), Some(2.0));
/// // Path 0→1→2 has expected delay 2 + 4 = 6.
/// let d = g.shortest_expected_delays(NodeId(0));
/// assert_eq!(d[2], Some(6.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ContactGraph {
    n: usize,
    /// Per-node adjacency `(peer, rate)`, sorted by peer id. Entries exist
    /// only for positive rates (setting a rate to zero removes the edge),
    /// so the representation is canonical and derived equality matches the
    /// dense matrix's.
    adj: Vec<Vec<(u32, f64)>>,
}

impl ContactGraph {
    /// Creates a graph over `n` nodes with all rates zero.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> ContactGraph {
        assert!(n > 0, "ContactGraph::new: need at least one node");
        ContactGraph {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// Estimates the graph from a trace with the maximum-likelihood rate
    /// `λij = (#contacts between i and j) / span`.
    ///
    /// # Panics
    ///
    /// Panics if the trace span is zero.
    #[must_use]
    pub fn from_trace(trace: &ContactTrace) -> ContactGraph {
        let span = trace.span().as_secs();
        assert!(span > 0.0, "ContactGraph::from_trace: zero-span trace");
        let pairs = trace.contacts().iter().map(Contact::pair);
        ContactGraph::from_pairs(trace.node_count(), pairs, 1.0 / span)
    }

    /// Builds the graph over `n` nodes from a multiset of contact pairs in
    /// one batch pass: every occurrence of a pair, in either orientation,
    /// adds `delta` to its rate. The rates are bit-identical to adding
    /// `delta` once per pair through [`ContactGraph::rate`] and
    /// [`ContactGraph::set_rate`] (see the module docs). Holds 8 B per
    /// pair while it sorts, freed before it returns.
    ///
    /// # Panics
    ///
    /// Panics, as [`ContactGraph::set_rate`] does, if a pair is a self
    /// pair, names a node out of range, or sums to a non-finite rate; also
    /// if `n == 0` or `delta` is not positive and finite.
    #[must_use]
    pub fn from_pairs(
        n: usize,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
        delta: f64,
    ) -> ContactGraph {
        assert!(
            delta.is_finite() && delta > 0.0,
            "ContactGraph::from_pairs: invalid delta {delta}"
        );
        let mut keys: Vec<u64> = pairs.into_iter().map(|(a, b)| pair_key(a, b)).collect();
        keys.sort_unstable();
        let edges = keys.chunk_by(|x, y| x == y).map(|run| {
            let rate = run.iter().fold(0.0, |rate, _| rate + delta);
            ((run[0] >> 32) as u32, run[0] as u32, rate)
        });
        ContactGraph::from_sorted_edges(n, edges)
    }

    /// Builds the graph from distinct pairs `(lo, hi, rate)` with
    /// `lo < hi`, listed in ascending `(lo, hi)` order. Zero rates add no
    /// edge, as in [`ContactGraph::set_rate`]. A first pass sizes every
    /// row exactly; the second pushes each edge onto both rows, which the
    /// order keeps sorted.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if a pair is a self pair, names a node out
    /// of range, or carries a negative or non-finite rate.
    pub(crate) fn from_sorted_edges<I>(n: usize, edges: I) -> ContactGraph
    where
        I: Iterator<Item = (u32, u32, f64)> + Clone,
    {
        assert!(n > 0, "ContactGraph::from_pairs: need at least one node");
        let mut degree = vec![0usize; n];
        for (lo, hi, rate) in edges.clone() {
            assert!(lo != hi, "ContactGraph::from_pairs: self edge");
            assert!(
                (lo as usize) < n && (hi as usize) < n,
                "ContactGraph::from_pairs: node out of range"
            );
            assert!(
                rate.is_finite() && rate >= 0.0,
                "ContactGraph::from_pairs: invalid rate {rate}"
            );
            if rate > 0.0 {
                degree[lo as usize] += 1;
                degree[hi as usize] += 1;
            }
        }
        let mut adj: Vec<Vec<(u32, f64)>> = degree.into_iter().map(Vec::with_capacity).collect();
        for (lo, hi, rate) in edges.filter(|e| e.2 > 0.0) {
            adj[lo as usize].push((hi, rate));
            adj[hi as usize].push((lo, rate));
        }
        debug_assert!(
            adj.iter()
                .all(|row| row.windows(2).all(|w| w[0].0 < w[1].0)),
            "ContactGraph::from_sorted_edges: pairs out of order"
        );
        ContactGraph { n, adj }
    }

    /// The per-contact accumulation [`ContactGraph::from_pairs`] replaced
    /// (one row lookup and sorted insert per pair), kept as its reference.
    #[cfg(test)]
    fn from_pairs_by_contact(
        n: usize,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
        delta: f64,
    ) -> ContactGraph {
        let mut g = ContactGraph::new(n);
        for (a, b) in pairs {
            let rate = g.rate(a, b) + delta;
            g.set_rate(a, b, rate);
        }
        g
    }

    fn set_rate_dir(&mut self, i: usize, j: usize, rate: f64) {
        let row = &mut self.adj[i];
        match row.binary_search_by_key(&(j as u32), |&(k, _)| k) {
            Ok(pos) => {
                if rate > 0.0 {
                    row[pos].1 = rate;
                } else {
                    row.remove(pos);
                }
            }
            Err(pos) => {
                if rate > 0.0 {
                    row.insert(pos, (j as u32, rate));
                }
            }
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of node pairs with a positive contact rate.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Sets the symmetric rate between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are equal, out of range, or the rate is negative
    /// or non-finite.
    pub fn set_rate(&mut self, a: NodeId, b: NodeId, rate: f64) {
        assert!(a != b, "ContactGraph::set_rate: self edge");
        assert!(
            a.index() < self.n && b.index() < self.n,
            "ContactGraph::set_rate: node out of range"
        );
        assert!(
            rate.is_finite() && rate >= 0.0,
            "ContactGraph::set_rate: invalid rate {rate}"
        );
        self.set_rate_dir(a.index(), b.index(), rate);
        self.set_rate_dir(b.index(), a.index(), rate);
    }

    /// The contact rate between two nodes (zero if they never meet).
    #[must_use]
    pub fn rate(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            return 0.0;
        }
        let row = &self.adj[a.index()];
        row.binary_search_by_key(&b.0, |&(k, _)| k)
            .map_or(0.0, |pos| row[pos].1)
    }

    /// Expected direct meeting delay `1/λ`, or `None` if the pair never
    /// meets.
    #[must_use]
    pub fn expected_delay(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let r = self.rate(a, b);
        (r > 0.0).then(|| 1.0 / r)
    }

    /// Neighbors of `node` with non-zero rate, as `(peer, rate)`, in
    /// ascending peer order.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.adj[node.index()].iter().map(|&(j, r)| (NodeId(j), r))
    }

    /// Shortest expected delays from `src` to every node (Dijkstra with edge
    /// weight `1/λ`). `None` marks unreachable nodes; the source itself gets
    /// `Some(0.0)`.
    #[must_use]
    pub fn shortest_expected_delays(&self, src: NodeId) -> Vec<Option<f64>> {
        self.dijkstra(src).0
    }

    /// Shortest expected-delay path from `src` to `dst` as a node sequence
    /// including both endpoints, or `None` if unreachable.
    #[must_use]
    pub fn shortest_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let (dist, parent) = self.dijkstra(src);
        dist[dst.index()]?;
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = parent[cur.index()]?;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    fn dijkstra(&self, src: NodeId) -> (Vec<Option<f64>>, Vec<Option<NodeId>>) {
        #[derive(PartialEq)]
        struct QueueKey(f64, usize);
        impl Eq for QueueKey {}
        impl PartialOrd for QueueKey {
            fn partial_cmp(&self, other: &QueueKey) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for QueueKey {
            fn cmp(&self, other: &QueueKey) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
            }
        }

        let mut dist: Vec<Option<f64>> = vec![None; self.n];
        let mut parent: Vec<Option<NodeId>> = vec![None; self.n];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = Some(0.0);
        heap.push(Reverse(QueueKey(0.0, src.index())));

        while let Some(Reverse(QueueKey(d, u))) = heap.pop() {
            if dist[u] != Some(d) {
                continue; // stale entry
            }
            // Ascending-peer adjacency: identical relaxation order to the
            // dense `for j in 0..n` scan, hence identical float results.
            for &(j, r) in &self.adj[u] {
                let j = j as usize;
                let nd = d + 1.0 / r;
                if dist[j].is_none_or(|old| nd < old) {
                    dist[j] = Some(nd);
                    parent[j] = Some(NodeId(u as u32));
                    heap.push(Reverse(QueueKey(nd, j)));
                }
            }
        }
        (dist, parent)
    }

    /// The score of every node under `metric`. Larger is more central.
    #[must_use]
    pub fn centrality_scores(&self, metric: Centrality) -> Vec<f64> {
        match metric {
            Centrality::Degree => self.adj.iter().map(|row| row.len() as f64).collect(),
            Centrality::Closeness => (0..self.n)
                .map(|i| {
                    let dist = self.shortest_expected_delays(NodeId(i as u32));
                    let reachable: Vec<f64> = dist
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .filter_map(|(_, d)| *d)
                        .collect();
                    if reachable.is_empty() {
                        0.0
                    } else {
                        let k = reachable.len() as f64;
                        let mean = reachable.iter().sum::<f64>() / k;
                        // Scale by reachable fraction so small components
                        // don't dominate.
                        (k / (self.n - 1).max(1) as f64) / mean
                    }
                })
                .collect(),
        }
    }

    /// The `k` most central nodes under `metric`, most central first.
    /// Ties break toward smaller node ids for determinism.
    #[must_use]
    pub fn top_k(&self, metric: Centrality, k: usize) -> Vec<NodeId> {
        let scores = self.centrality_scores(metric);
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by(|&i, &j| scores[j].total_cmp(&scores[i]).then(i.cmp(&j)));
        order
            .into_iter()
            .take(k)
            .map(|i| NodeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use omn_sim::SimTime;

    fn line_graph() -> ContactGraph {
        // 0 -1- 1 -1- 2 -1- 3 (all rates 1.0)
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        g.set_rate(NodeId(1), NodeId(2), 1.0);
        g.set_rate(NodeId(2), NodeId(3), 1.0);
        g
    }

    #[test]
    fn from_trace_mle() {
        let trace = TraceBuilder::new(2)
            .span(SimTime::from_secs(100.0))
            .contact(
                Contact::new(
                    NodeId(0),
                    NodeId(1),
                    SimTime::from_secs(0.0),
                    SimTime::from_secs(1.0),
                )
                .unwrap(),
            )
            .contact(
                Contact::new(
                    NodeId(0),
                    NodeId(1),
                    SimTime::from_secs(50.0),
                    SimTime::from_secs(51.0),
                )
                .unwrap(),
            )
            .build()
            .unwrap();
        let g = ContactGraph::from_trace(&trace);
        assert!((g.rate(NodeId(0), NodeId(1)) - 0.02).abs() < 1e-12);
        assert_eq!(g.expected_delay(NodeId(0), NodeId(1)), Some(50.0));
    }

    #[test]
    fn rate_is_symmetric_and_zero_on_diagonal() {
        let g = line_graph();
        assert_eq!(g.rate(NodeId(0), NodeId(1)), g.rate(NodeId(1), NodeId(0)));
        assert_eq!(g.rate(NodeId(2), NodeId(2)), 0.0);
        assert_eq!(g.expected_delay(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn dijkstra_on_line() {
        let g = line_graph();
        let d = g.shortest_expected_delays(NodeId(0));
        assert_eq!(d, vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0)]);
        let path = g.shortest_path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn dijkstra_prefers_fast_two_hop_over_slow_direct() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(2), 0.1); // direct delay 10
        g.set_rate(NodeId(0), NodeId(1), 1.0); // via 1: 1 + 1 = 2
        g.set_rate(NodeId(1), NodeId(2), 1.0);
        let d = g.shortest_expected_delays(NodeId(0));
        assert_eq!(d[2], Some(2.0));
        assert_eq!(
            g.shortest_path(NodeId(0), NodeId(2)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn unreachable_nodes() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        let d = g.shortest_expected_delays(NodeId(0));
        assert_eq!(d[2], None);
        assert_eq!(g.shortest_path(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn degree_metrics() {
        let g = line_graph();
        let deg = g.centrality_scores(Centrality::Degree);
        assert_eq!(deg, vec![1.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn closeness_ranks_center_highest() {
        let g = line_graph();
        let cl = g.centrality_scores(Centrality::Closeness);
        assert!(cl[1] > cl[0]);
        assert!(cl[2] > cl[3]);
    }

    #[test]
    fn top_k_ordering_and_ties() {
        let g = line_graph();
        let top = g.top_k(Centrality::Degree, 2);
        // Nodes 1 and 2 tie on degree 2; smaller id first.
        assert_eq!(top, vec![NodeId(1), NodeId(2)]);
        assert_eq!(g.top_k(Centrality::Degree, 0), Vec::<NodeId>::new());
        assert_eq!(g.top_k(Centrality::Degree, 10).len(), 4);
    }

    #[test]
    #[should_panic(expected = "self edge")]
    fn set_rate_rejects_self_edge() {
        let mut g = ContactGraph::new(2);
        g.set_rate(NodeId(0), NodeId(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn set_rate_rejects_negative() {
        let mut g = ContactGraph::new(2);
        g.set_rate(NodeId(0), NodeId(1), -1.0);
    }

    #[test]
    fn zeroing_a_rate_removes_the_edge() {
        let mut g = line_graph();
        g.set_rate(NodeId(1), NodeId(2), 0.0);
        assert_eq!(g.rate(NodeId(1), NodeId(2)), 0.0);
        assert_eq!(g.edge_count(), 2);
        // Canonical representation: equal to a graph that never had the
        // edge at all.
        let mut fresh = ContactGraph::new(4);
        fresh.set_rate(NodeId(0), NodeId(1), 1.0);
        fresh.set_rate(NodeId(2), NodeId(3), 1.0);
        assert_eq!(g, fresh);
    }

    /// Ten contacts of 0.1 sum to 0.9999999999999999, not `10.0 * 0.1`:
    /// the batch builder keeps the repeated sum, entry for entry, and
    /// sizes every row exactly.
    #[test]
    fn batch_build_matches_per_contact_accumulation() {
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(5));
        let mut pairs = vec![(b, a); 10];
        pairs.extend([(c, d), (a, d), (d, c), (a, c), (d, a), (d, c)]);
        let batch = ContactGraph::from_pairs(6, pairs.iter().copied(), 0.1);
        let reference = ContactGraph::from_pairs_by_contact(6, pairs, 0.1);
        assert_eq!(batch.rate(a, b), 0.9999999999999999);
        assert_ne!(batch.rate(a, b), 10.0 * 0.1);
        assert_eq!(batch.edge_count(), reference.edge_count());
        for node in (0..6).map(NodeId) {
            let got: Vec<(NodeId, u64)> = batch
                .neighbors(node)
                .map(|(p, r)| (p, r.to_bits()))
                .collect();
            let want: Vec<(NodeId, u64)> = reference
                .neighbors(node)
                .map(|(p, r)| (p, r.to_bits()))
                .collect();
            assert_eq!(got, want, "row {node:?}");
        }
        assert!(batch.adj.iter().all(|row| row.capacity() == row.len()));
    }

    #[test]
    #[should_panic(expected = "self edge")]
    fn from_pairs_rejects_self_pair() {
        let _ = ContactGraph::from_pairs(3, [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(2))], 1.0);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn from_pairs_rejects_out_of_range_node() {
        let _ = ContactGraph::from_pairs(3, [(NodeId(3), NodeId(0))], 1.0);
    }

    #[test]
    fn sparse_storage_scales_with_edges_not_nodes() {
        let mut g = ContactGraph::new(100_000);
        g.set_rate(NodeId(0), NodeId(99_999), 0.5);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.rate(NodeId(99_999), NodeId(0)), 0.5);
        assert_eq!(g.neighbors(NodeId(50)).count(), 0);
    }
}
