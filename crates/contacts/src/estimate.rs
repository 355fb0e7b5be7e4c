//! Online pairwise contact-rate estimation.
//!
//! Protocol nodes do not know the true contact rates; they estimate `λij`
//! from the contacts they observe, by the maximum-likelihood estimate over
//! the whole observation window, `λ̂ = contacts / elapsed`. It converges to
//! the true rate for stationary processes.
//!
//! [`PairRateTable`] keeps one contact count per node pair, which is the
//! state each node carries in the distributed protocols. Simulators record
//! every contact into it, so its layout is chosen for that hot path: a
//! contact is logged, not looked up. The table holds
//!
//! * `counts`, one `(key, count)` entry per observed pair, sorted by key,
//!   where the key packs the pair as `lo << 32 | hi` (the packing of
//!   [`crate::ContactGraph::from_pairs`]) — 16 B per pair;
//! * `pending`, the keys of the contacts recorded since the last fold, in
//!   arrival order — 8 B per contact.
//!
//! [`PairRateTable::record_contact`] is one `Vec::push` onto `pending`.
//! Once `pending` holds `max(4096, counts.len() / 4)` keys, or when the
//! table is read, the pending keys are *folded* into `counts`: sorted,
//! then walked once forward to add each run of equal keys to the count
//! already present (found by a doubling search from the previous run's
//! position), and once backward to merge the pairs seen for the first
//! time into place, each with its run length as its count. Counts stay
//! exact integers, so every rate is the same `count / elapsed` whichever
//! batches the contacts were folded in. The geometric threshold keeps the
//! fold's cost amortised to a sort step and a constant per contact, and it
//! bounds `pending` at a quarter of the pairs: at most 2 B per pair
//! amortised, or 32 KB for a table of fewer than 16 384 pairs.

use omn_sim::SimTime;

use crate::contact::NodeId;
use crate::graph::pair_key;

/// Pending keys that always fit before a fold: small tables fold in
/// batches of this size rather than every few contacts.
const FOLD_MIN: usize = 4096;

/// A table of per-pair rate estimates, as maintained by each protocol node
/// (or globally by the simulator on behalf of all nodes).
///
/// Reads ([`PairRateTable::rate`], [`PairRateTable::observed_pairs`],
/// [`PairRateTable::to_graph`]) take `&mut self`: each first folds the
/// contacts recorded since the last fold (see the module docs).
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
    /// `(pair key, contacts)` for every folded pair, strictly ascending by
    /// key.
    counts: Vec<(u64, u64)>,
    /// Keys of the contacts recorded since the last fold.
    pending: Vec<u64>,
}

impl PairRateTable {
    /// Creates an empty table whose observation window starts at `start`.
    #[must_use]
    pub fn new(start: SimTime) -> PairRateTable {
        PairRateTable {
            start,
            counts: Vec::new(),
            pending: Vec::new(),
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

    /// Records a contact between `a` and `b`: one push onto the pending
    /// log, and a fold when the log reaches its threshold.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn record_contact(&mut self, a: NodeId, b: NodeId) {
        assert!(a != b, "PairRateTable::record_contact: self contact");
        self.pending.push(pair_key(a, b));
        if self.pending.len() >= FOLD_MIN.max(self.counts.len() / 4) {
            self.fold();
        }
    }

    /// Folds the pending keys into `counts` (see the module docs).
    fn fold(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable();
        let runs = || self.pending.chunk_by(|x, y| x == y);
        // Forward: bump the pairs already counted, count the new ones.
        let mut fresh = 0;
        let mut at = 0;
        for run in runs() {
            at += seek(&self.counts[at..], run[0]);
            match self.counts.get_mut(at) {
                Some(entry) if entry.0 == run[0] => entry.1 += run.len() as u64,
                _ => fresh += 1,
            }
        }
        // Backward: shift the counted pairs up to open a slot for each new
        // pair. Below the lowest new pair nothing moves.
        let mut read = self.counts.len();
        self.counts.resize(read + fresh, (0, 0));
        let mut write = self.counts.len();
        for run in runs().rev() {
            if write == read {
                break;
            }
            while read > 0 && self.counts[read - 1].0 > run[0] {
                read -= 1;
                write -= 1;
                self.counts[write] = self.counts[read];
            }
            if read == 0 || self.counts[read - 1].0 != run[0] {
                write -= 1;
                self.counts[write] = (run[0], run.len() as u64);
            }
        }
        self.pending.clear();
        debug_assert!(
            self.counts.windows(2).all(|w| w[0].0 < w[1].0),
            "PairRateTable::fold: keys out of order"
        );
    }

    /// The estimated rate between `a` and `b` as of `now` (0 if never
    /// met). Folds the pending contacts first.
    #[must_use]
    pub fn rate(&mut self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        self.fold();
        let key = pair_key(a, b);
        match self.counts.binary_search_by_key(&key, |e| e.0) {
            Ok(pos) => self.mle(self.counts[pos].1, now),
            Err(_) => 0.0,
        }
    }

    /// Number of pairs with at least one observed contact. Folds the
    /// pending contacts first.
    #[must_use]
    pub fn observed_pairs(&mut self) -> usize {
        self.fold();
        self.counts.len()
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
    /// `now`, for use by centralized planners. Folds the pending contacts
    /// first; pairs naming a node at or beyond `node_count` are left out.
    #[must_use]
    pub fn to_graph(&mut self, node_count: usize, now: SimTime) -> crate::ContactGraph {
        self.fold();
        // The counts ascend by (lo, hi), as the batch builder wants.
        // `lo < hi`, so checking `hi` bounds both.
        let edges = self
            .counts
            .iter()
            .map(|&(key, n)| ((key >> 32) as u32, key as u32, n))
            .filter(|&(_, hi, _)| (hi as usize) < node_count)
            .map(|(lo, hi, n)| (lo, hi, self.mle(n, now)));
        crate::ContactGraph::from_sorted_edges(node_count, edges)
    }
}

/// The index of the first entry of the ascending `counts` whose key is not
/// below `key`. It doubles its step from the front before it bisects, so
/// finding an entry `d` places ahead costs `O(log d)`: a fold of many keys
/// walks `counts` about once, a fold of a few jumps.
fn seek(counts: &[(u64, u64)], key: u64) -> usize {
    let mut end = 1;
    while end <= counts.len() && counts[end - 1].0 < key {
        end *= 2;
    }
    let from = end / 2;
    from + counts[from..end.min(counts.len())].partition_point(|e| e.0 < key)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use rand::Rng;

    use super::*;
    use crate::ContactGraph;

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
    fn pair_state_is_sixteen_bytes_and_a_contact_eight() {
        fn entry_size<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let table = PairRateTable::new(SimTime::ZERO);
        assert_eq!(entry_size(&table.counts), 16);
        assert_eq!(entry_size(&table.pending), 8);
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
    fn seek_finds_the_first_entry_not_below_the_key() {
        let counts: Vec<(u64, u64)> = [2, 4, 6, 8, 10].iter().map(|&k| (k, 1)).collect();
        for key in 0..12 {
            let expected = counts.partition_point(|e| e.0 < key);
            assert_eq!(seek(&counts, key), expected, "key {key}");
        }
        assert_eq!(seek(&[], 5), 0);
    }

    /// A seeded stream of contacts, long enough that both the fixed
    /// ([`FOLD_MIN`]) and the geometric (`counts / 4`) fold fire, read
    /// right after every fold and, in every other block of 10⁴ contacts,
    /// at random points while contacts are pending; every read is compared
    /// bit for bit with a map of counts. The blocks without random reads
    /// let the pending log grow to its threshold.
    #[test]
    fn folded_reads_match_a_map_of_counts() {
        const NODES: u32 = 240;
        const CONTACTS: usize = 80_000;
        let start = t(5.0);
        let mut rng = omn_sim::RngFactory::new(26).stream("fold-equivalence");
        let mut table = PairRateTable::new(start);
        let mut reference: HashMap<(u32, u32), u64> = HashMap::new();
        let reference_rate = |reference: &HashMap<(u32, u32), u64>, a: u32, b: u32, now: f64| {
            let elapsed = now - start.as_secs();
            reference
                .get(&(a.min(b), a.max(b)))
                .map_or(0.0, |&n| n as f64 / elapsed)
        };
        let (mut fixed_folds, mut geometric_folds) = (0, 0);
        let (mut pending_reads, mut folded_reads) = (0, 0);
        let mut now = start.as_secs();
        for i in 0..CONTACTS {
            // A small hub makes some pairs recur often; the rest spread.
            let a = rng.gen_range(0..NODES);
            let b = if rng.gen_bool(0.2) {
                rng.gen_range(0..8)
            } else {
                rng.gen_range(0..NODES)
            };
            if a == b {
                continue;
            }
            now += rng.gen_range(0.0..2.0);
            let threshold = FOLD_MIN.max(table.counts.len() / 4);
            table.record_contact(NodeId(a), NodeId(b));
            *reference.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            let folded = table.pending.is_empty();
            if folded {
                if threshold > FOLD_MIN {
                    geometric_folds += 1;
                } else {
                    fixed_folds += 1;
                }
            }
            let quiet = (i / 10_000) % 2 == 0;
            if !(folded || (!quiet && rng.gen_bool(0.005))) {
                continue;
            }
            if folded {
                folded_reads += 1;
            } else {
                pending_reads += 1;
            }
            let at = t(now);
            match rng.gen_range(0..4) {
                0 => assert_eq!(table.observed_pairs(), reference.len(), "contact {i}"),
                1 => {
                    let mut expected = ContactGraph::new(NODES as usize);
                    for &(lo, hi) in reference.keys() {
                        let rate = reference_rate(&reference, lo, hi, now);
                        expected.set_rate(NodeId(lo), NodeId(hi), rate);
                    }
                    assert_eq!(table.to_graph(NODES as usize, at), expected, "contact {i}");
                }
                _ => {
                    // The pair just met, then a few random ones.
                    let mut pairs = vec![(a, b)];
                    pairs
                        .extend((0..8).map(|_| (rng.gen_range(0..NODES), rng.gen_range(0..NODES))));
                    for (x, y) in pairs {
                        assert_eq!(
                            table.rate(NodeId(x), NodeId(y), at).to_bits(),
                            reference_rate(&reference, x, y, now).to_bits(),
                            "contact {i}, pair ({x}, {y})"
                        );
                    }
                }
            }
        }
        assert!(
            fixed_folds > 0 && geometric_folds > 0,
            "{fixed_folds} / {geometric_folds}"
        );
        assert!(
            pending_reads > 20 && folded_reads > 0,
            "{pending_reads} / {folded_reads}"
        );
        assert_eq!(table.observed_pairs(), reference.len());
        for x in 0..NODES {
            for y in 0..NODES {
                assert_eq!(
                    table.rate(NodeId(x), NodeId(y), t(now)).to_bits(),
                    reference_rate(&reference, x, y, now).to_bits()
                );
            }
        }
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
