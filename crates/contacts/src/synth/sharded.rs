//! Sharded large-N community generation with O(shards) resident memory.
//!
//! The materializing generators ([`generate_pairwise`](super::generate_pairwise),
//! [`generate_community`](super::community::generate_community)) iterate every node
//! pair and hold every contact in a `Vec` — O(n²) work and O(contacts)
//! memory, which caps them at a few hundred nodes. This module scales the
//! community model to 10⁴–10⁶ nodes by generating each community's contact
//! stream *independently* and k-way-merging the streams by start time on
//! the fly:
//!
//! * each shard (a contiguous block of nodes, same assignment as
//!   [`CommunityConfig::community_of`](super::community::CommunityConfig::community_of))
//!   runs one aggregate Poisson process with rate `intra_rate × pairs(shard)`,
//!   picking a uniform intra-shard pair per arrival — statistically
//!   identical to per-pair Poisson processes, but with O(1) state;
//! * one bridge process with rate `bridge_rate × nodes` produces
//!   cross-shard contacts (a uniform node paired with a uniform node of a
//!   different shard);
//! * a binary heap keyed by `(start, end, pair)` — the
//!   [`TraceBuilder`] sort key — merges the streams,
//!   so the streamed order equals the order a materialized-and-sorted
//!   trace would have.
//!
//! Each shard draws from its own indexed
//! [`RngFactory`] stream, so shard `s` produces the
//! same contacts no matter how many other shards exist or how far the
//! merge has advanced.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use omn_sim::{RngFactory, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, Exp};

use crate::contact::{Contact, NodeId};
use crate::source::{ContactSource, LastContact};
use crate::trace::{ContactTrace, TraceBuilder};

/// Configuration for the sharded community generator.
///
/// Unlike [`CommunityConfig`](super::community::CommunityConfig) (which
/// draws a persistent Gamma rate per pair and therefore needs O(n²) work up
/// front), rates here are uniform within a class: every intra-shard pair
/// meets at `intra_rate`, and cross-shard contacts arrive at `bridge_rate`
/// per node. That trade keeps per-shard generator state O(1), which is what
/// makes 10⁴+-node streams possible.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedCommunityConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of shards (communities); nodes are split into contiguous
    /// blocks of near-equal size.
    pub shards: usize,
    /// Trace span.
    pub span: SimDuration,
    /// Contact rate of each intra-shard pair (contacts per second).
    pub intra_rate: f64,
    /// Rate of cross-shard contacts per node (contacts per second). With a
    /// single shard there are no cross-shard pairs and this is ignored.
    pub bridge_rate: f64,
    /// Mean contact duration (exponentially distributed, clipped to the
    /// span).
    pub mean_contact_duration: SimDuration,
}

impl ShardedCommunityConfig {
    /// Defaults: intra-shard pairs meet every 2 hours on average, each node
    /// sees a cross-shard contact about once a day, 5-minute contacts.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, `shards == 0`, `shards > nodes`, or `span`
    /// is zero.
    #[must_use]
    pub fn new(nodes: usize, shards: usize, span: SimDuration) -> ShardedCommunityConfig {
        assert!(nodes > 0, "ShardedCommunityConfig: need at least one node");
        assert!(
            shards > 0 && shards <= nodes,
            "ShardedCommunityConfig: need 1..=nodes shards"
        );
        assert!(!span.is_zero(), "ShardedCommunityConfig: zero span");
        ShardedCommunityConfig {
            nodes,
            shards,
            span,
            intra_rate: 1.0 / (2.0 * 3600.0),
            bridge_rate: 1.0 / (24.0 * 3600.0),
            mean_contact_duration: SimDuration::from_secs(300.0),
        }
    }

    /// Sets the intra-shard pair rate.
    #[must_use]
    pub fn intra_rate(mut self, rate: f64) -> ShardedCommunityConfig {
        assert!(rate >= 0.0 && rate.is_finite());
        self.intra_rate = rate;
        self
    }

    /// Sets the per-node cross-shard contact rate.
    #[must_use]
    pub fn bridge_rate(mut self, rate: f64) -> ShardedCommunityConfig {
        assert!(rate >= 0.0 && rate.is_finite());
        self.bridge_rate = rate;
        self
    }

    /// Sets the mean contact duration.
    #[must_use]
    pub fn mean_contact_duration(mut self, d: SimDuration) -> ShardedCommunityConfig {
        assert!(d.as_secs() > 0.0);
        self.mean_contact_duration = d;
        self
    }

    /// The shard of a node — same contiguous-block assignment as
    /// [`CommunityConfig::community_of`](super::community::CommunityConfig::community_of).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn shard_of(&self, node: NodeId) -> usize {
        assert!(node.index() < self.nodes, "node out of range");
        node.index() * self.shards / self.nodes
    }

    /// The contiguous node-index range `[start, end)` of shard `s`.
    #[must_use]
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        assert!(s < self.shards, "shard out of range");
        let start = (s * self.nodes).div_ceil(self.shards);
        let end = ((s + 1) * self.nodes).div_ceil(self.shards);
        (start, end)
    }
}

/// Decodes a linear unordered-pair index `k ∈ [0, m(m-1)/2)` over `m`
/// nodes into `(i, j)` with `i < j`, enumerating row-major: `(0, 1), (0, 2),
/// …, (0, m-1), (1, 2), …`.
///
/// Counted from the last pair back, `back = m(m-1)/2 - 1 - k`, row `i` is
/// the `r = m-2-i`-th row and starts at the triangular number `r(r+1)/2`.
/// The row of `back` is the largest `r` with `r(r+1)/2 ≤ back`, i.e.
/// `(2r+1)² ≤ 8·back+1`, so `r = (isqrt(8·back+1) - 1) / 2` exactly, in
/// integers.
fn decode_pair(k: usize, m: usize) -> (usize, usize) {
    let pairs = m * (m - 1) / 2;
    debug_assert!(k < pairs, "pair index {k} out of range for {m} nodes");
    let back = pairs - 1 - k;
    let r = ((8 * back + 1).isqrt() - 1) / 2;
    (m - 2 - r, m - 1 - (back - r * (r + 1) / 2))
}

/// The O(m) row walk [`decode_pair`] replaced, kept as its reference.
#[cfg(test)]
fn decode_pair_by_rows(mut k: usize, m: usize) -> (usize, usize) {
    for i in 0..m {
        let row = m - 1 - i;
        if k < row {
            return (i, i + 1 + k);
        }
        k -= row;
    }
    unreachable!("pair index {k} out of range for {m} nodes")
}

/// What population one generator stream draws its pairs from.
#[derive(Debug)]
enum StreamKind {
    /// Intra-shard: uniform pair within `[first, first + len)`.
    Intra { first: usize, len: usize },
    /// Cross-shard bridge: uniform node, paired with a uniform node of a
    /// different shard.
    Bridge { nodes: usize },
}

/// One aggregate Poisson contact stream with O(1) state.
#[derive(Debug)]
struct ShardStream {
    rng: StdRng,
    /// Time of the most recent arrival (seconds).
    t: f64,
    gap: Exp,
    dur: Exp,
    span_secs: f64,
    kind: StreamKind,
}

impl ShardStream {
    fn generate(&mut self, config: &ShardedCommunityConfig) -> Option<Contact> {
        loop {
            self.t += self.gap.sample(&mut self.rng);
            if self.t >= self.span_secs {
                return None;
            }
            let (a, b) = match self.kind {
                StreamKind::Intra { first, len } => {
                    let pairs = len * (len - 1) / 2;
                    let (i, j) = decode_pair(self.rng.gen_range(0..pairs), len);
                    (first + i, first + j)
                }
                StreamKind::Bridge { nodes } => {
                    let a = self.rng.gen_range(0..nodes);
                    let (lo, hi) = config.shard_range(config.shard_of(NodeId(a as u32)));
                    // Uniform over nodes outside a's shard, skipping the
                    // shard's contiguous block.
                    let other = self.rng.gen_range(0..nodes - (hi - lo));
                    let b = if other < lo { other } else { other + (hi - lo) };
                    (a, b)
                }
            };
            let end = (self.t + self.dur.sample(&mut self.rng)).min(self.span_secs);
            if end <= self.t {
                continue;
            }
            return Some(
                Contact::new(
                    NodeId(a as u32),
                    NodeId(b as u32),
                    SimTime::from_secs(self.t),
                    SimTime::from_secs(end),
                )
                .expect("generated interval is valid"),
            );
        }
    }
}

/// Builds the per-shard aggregate streams plus the bridge stream.
///
/// The merge in [`ShardedCommunitySource`] breaks `(start, end, pair)` key
/// ties by stream *index*; zero-rate streams are skipped here, so the
/// index of a stream is its position among the live streams.
fn build_streams(config: &ShardedCommunityConfig, factory: &RngFactory) -> Vec<ShardStream> {
    let span_secs = config.span.as_secs();
    let mean_dur = config.mean_contact_duration.as_secs().max(1e-6);
    let dur = Exp::new(1.0 / mean_dur).expect("positive duration rate");

    let mut streams = Vec::new();
    for s in 0..config.shards {
        let (lo, hi) = config.shard_range(s);
        let len = hi - lo;
        let pairs = len * (len - 1) / 2;
        let total_rate = config.intra_rate * pairs as f64;
        if total_rate <= 0.0 {
            continue;
        }
        streams.push(ShardStream {
            rng: factory.stream_indexed("sharded-community", s as u64),
            t: 0.0,
            gap: Exp::new(total_rate).expect("positive rate"),
            dur,
            span_secs,
            kind: StreamKind::Intra { first: lo, len },
        });
    }
    let bridge_rate = config.bridge_rate * config.nodes as f64;
    if config.shards > 1 && bridge_rate > 0.0 {
        streams.push(ShardStream {
            rng: factory.stream("sharded-bridge"),
            t: 0.0,
            gap: Exp::new(bridge_rate).expect("positive rate"),
            dur,
            span_secs,
            kind: StreamKind::Bridge {
                nodes: config.nodes,
            },
        });
    }
    streams
}

/// Heap entry: the next pending contact of one stream, min-ordered by the
/// `(start, end, pair)` trace sort key. Start/end are non-negative finite
/// floats, so their IEEE bit patterns order identically to the values.
#[derive(Debug, PartialEq, Eq)]
struct Pending {
    key: (u64, u64, u32, u32),
    stream: usize,
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Pending) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Pending) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then(self.stream.cmp(&other.stream))
    }
}

/// A streaming [`ContactSource`] over the sharded community model.
///
/// Resident state is one pending contact per live stream (≤ shards + 1),
/// independent of how many contacts the stream will ever produce.
#[derive(Debug)]
pub struct ShardedCommunitySource {
    config: ShardedCommunityConfig,
    streams: Vec<ShardStream>,
    /// The next pending contact of stream `i`, if it is not exhausted.
    pending: Vec<Option<Contact>>,
    heap: BinaryHeap<Reverse<Pending>>,
}

impl ShardedCommunitySource {
    /// Builds the per-shard streams and pulls each stream's first contact.
    ///
    /// Shard `s` draws from the factory stream `("sharded-community", s)`;
    /// the bridge process draws from `"sharded-bridge"`. Deterministic
    /// given the factory.
    #[must_use]
    pub fn new(config: &ShardedCommunityConfig, factory: &RngFactory) -> ShardedCommunitySource {
        let streams = build_streams(config, factory);
        let mut source = ShardedCommunitySource {
            config: config.clone(),
            pending: (0..streams.len()).map(|_| None).collect(),
            streams,
            heap: BinaryHeap::new(),
        };
        for i in 0..source.streams.len() {
            source.refill(i);
        }
        source
    }

    /// The configuration this source streams from.
    #[must_use]
    pub fn config(&self) -> &ShardedCommunityConfig {
        &self.config
    }

    /// Pulls stream `i`'s next contact into the merge heap.
    fn refill(&mut self, i: usize) {
        if let Some(c) = self.streams[i].generate(&self.config) {
            self.pending[i] = Some(c);
            self.heap.push(Reverse(Pending {
                key: (
                    c.start().as_secs().to_bits(),
                    c.end().as_secs().to_bits(),
                    c.a().0,
                    c.b().0,
                ),
                stream: i,
            }));
        } else {
            self.pending[i] = None;
        }
    }
}

impl ContactSource for ShardedCommunitySource {
    fn node_count(&self) -> usize {
        self.config.nodes
    }

    fn span(&self) -> SimTime {
        SimTime::ZERO + self.config.span
    }

    fn next_contact(&mut self) -> Option<Contact> {
        let Reverse(Pending { stream, .. }) = self.heap.pop()?;
        let c = self.pending[stream]
            .take()
            .expect("heap entry has a pending contact");
        self.refill(stream);
        Some(c)
    }

    fn last_contact(&self) -> LastContact {
        LastContact::Unknown
    }

    fn resident_hint(&self) -> usize {
        self.heap.len()
    }
}

/// Materializes the full sharded-community trace by generating every
/// stream to completion and letting [`TraceBuilder`] sort — the monolithic
/// counterpart of [`ShardedCommunitySource`], used to verify that the
/// streaming k-way merge yields the identical contact sequence.
///
/// # Panics
///
/// Panics on internally inconsistent generator output (never expected).
#[must_use]
pub fn generate_sharded(config: &ShardedCommunityConfig, factory: &RngFactory) -> ContactTrace {
    let mut source = ShardedCommunitySource::new(config, factory);
    let mut contacts = Vec::new();
    // Drain stream by stream (not via the merge heap) so sorting is done
    // solely by TraceBuilder.
    for i in 0..source.streams.len() {
        if let Some(c) = source.pending[i].take() {
            contacts.push(c);
        }
        while let Some(c) = source.streams[i].generate(&source.config) {
            contacts.push(c);
        }
    }
    TraceBuilder::new(config.nodes)
        .span(SimTime::ZERO + config.span)
        .contacts(contacts)
        .build()
        .expect("generator produces valid traces")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ShardedCommunityConfig {
        ShardedCommunityConfig::new(30, 3, SimDuration::from_hours(12.0))
    }

    #[test]
    fn streamed_merge_matches_materialized_trace() {
        let cfg = small_config();
        let factory = RngFactory::new(21);
        let mut src = ShardedCommunitySource::new(&cfg, &factory);
        let streamed: Vec<Contact> = std::iter::from_fn(|| src.next_contact()).collect();
        let trace = generate_sharded(&cfg, &factory);
        assert!(!streamed.is_empty());
        assert_eq!(streamed, trace.contacts());
    }

    #[test]
    fn stream_is_deterministic() {
        let cfg = small_config();
        let drain = |seed: u64| {
            let mut s = ShardedCommunitySource::new(&cfg, &RngFactory::new(seed));
            std::iter::from_fn(move || s.next_contact()).collect::<Vec<_>>()
        };
        assert_eq!(drain(3), drain(3));
        assert_ne!(drain(3), drain(4));
    }

    #[test]
    fn contacts_arrive_sorted_and_in_bounds() {
        let cfg = small_config();
        let mut src = ShardedCommunitySource::new(&cfg, &RngFactory::new(5));
        let mut prev: Option<Contact> = None;
        let mut count = 0usize;
        while let Some(c) = src.next_contact() {
            if let Some(p) = prev {
                assert!(
                    (p.start(), p.end(), p.pair()) <= (c.start(), c.end(), c.pair()),
                    "out of order: {p} then {c}"
                );
            }
            assert!(c.a().index() < cfg.nodes && c.b().index() < cfg.nodes);
            assert!(c.end() <= SimTime::ZERO + cfg.span);
            prev = Some(c);
            count += 1;
        }
        assert!(count > 0);
    }

    #[test]
    fn intra_shard_contacts_dominate() {
        let cfg = ShardedCommunityConfig::new(60, 6, SimDuration::from_days(1.0));
        let trace = generate_sharded(&cfg, &RngFactory::new(8));
        let intra = trace
            .contacts()
            .iter()
            .filter(|c| cfg.shard_of(c.a()) == cfg.shard_of(c.b()))
            .count();
        let inter = trace.len() - intra;
        assert!(intra > inter, "intra {intra} vs inter {inter}");
        assert!(inter > 0, "bridge process produced nothing");
    }

    #[test]
    fn resident_state_is_bounded_by_shards() {
        let cfg = ShardedCommunityConfig::new(1000, 20, SimDuration::from_hours(2.0));
        let mut src = ShardedCommunitySource::new(&cfg, &RngFactory::new(2));
        let mut peak = 0usize;
        let mut total = 0usize;
        while src.next_contact().is_some() {
            peak = peak.max(src.resident_hint());
            total += 1;
        }
        assert!(total > 1000, "expected a busy trace, got {total}");
        assert!(
            peak <= cfg.shards + 1,
            "resident {peak} exceeds shards+1 = {}",
            cfg.shards + 1
        );
    }

    #[test]
    fn single_shard_has_no_bridge_contacts() {
        let cfg = ShardedCommunityConfig::new(12, 1, SimDuration::from_hours(6.0));
        let trace = generate_sharded(&cfg, &RngFactory::new(9));
        assert!(!trace.is_empty());
        // All pairs are intra-shard by construction (shard_of is constant).
        assert!(trace
            .contacts()
            .iter()
            .all(|c| cfg.shard_of(c.a()) == 0 && cfg.shard_of(c.b()) == 0));
    }

    #[test]
    fn shard_ranges_partition_the_population() {
        let cfg = ShardedCommunityConfig::new(10, 3, SimDuration::from_hours(1.0));
        let mut covered = 0usize;
        for s in 0..cfg.shards {
            let (lo, hi) = cfg.shard_range(s);
            assert_eq!(lo, covered);
            covered = hi;
            for i in lo..hi {
                assert_eq!(cfg.shard_of(NodeId(i as u32)), s);
            }
        }
        assert_eq!(covered, cfg.nodes);
    }

    #[test]
    fn decode_pair_enumerates_all_pairs() {
        let m = 7;
        let mut seen = std::collections::HashSet::new();
        for k in 0..m * (m - 1) / 2 {
            let (i, j) = decode_pair(k, m);
            assert!(i < j && j < m);
            assert!(seen.insert((i, j)));
        }
        assert_eq!(seen.len(), m * (m - 1) / 2);
    }

    #[test]
    fn decode_pair_closed_form_matches_the_row_walk() {
        for m in 2..=256 {
            for k in 0..m * (m - 1) / 2 {
                assert_eq!(decode_pair(k, m), decode_pair_by_rows(k, m), "k={k} m={m}");
            }
        }
    }
}
