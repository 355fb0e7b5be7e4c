//! Sharded large-N community generation with O(shards) resident memory.
//!
//! The materializing generators ([`generate_pairwise`](super::generate_pairwise),
//! [`generate_community`](super::generate_community)) iterate every node
//! pair and hold every contact in a `Vec` — O(n²) work and O(contacts)
//! memory, which caps them at a few hundred nodes. This module scales the
//! community model to 10⁴–10⁵ nodes by generating each community's contact
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
//!   [`TraceBuilder`](crate::TraceBuilder) sort key — merges the streams,
//!   so the streamed order equals the order a materialized-and-sorted
//!   trace would have.
//!
//! Each shard draws from its own indexed
//! [`RngFactory`](omn_sim::RngFactory) stream, so shard `s` produces the
//! same contacts no matter how many other shards exist or how far the
//! merge has advanced.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use omn_sim::{RngFactory, ShardWorker, ShardedRunner, SimDuration, SimTime};
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
    /// A generated contact held back because it starts at or after the
    /// current window boundary ([`ShardStream::next_in_window`]). `next`
    /// consumes it first, so windowed and unwindowed pulls see the exact
    /// same contact sequence.
    peeked: Option<Contact>,
}

impl ShardStream {
    fn next(&mut self, config: &ShardedCommunityConfig) -> Option<Contact> {
        if let Some(c) = self.peeked.take() {
            return Some(c);
        }
        self.generate(config)
    }

    /// The next contact iff it starts before `to_secs`; otherwise the
    /// contact is held back for the window that owns it. Per-stream starts
    /// are nondecreasing, so `None` means this window is complete.
    fn next_in_window(&mut self, config: &ShardedCommunityConfig, to_secs: f64) -> Option<Contact> {
        let c = self.next(config)?;
        if c.start().as_secs() < to_secs {
            Some(c)
        } else {
            self.peeked = Some(c);
            None
        }
    }

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
/// Both merge front-ends ([`ShardedCommunitySource`] and
/// [`ParallelShardedSource`]) break `(start, end, pair)` key ties by stream
/// *index*, and zero-rate streams are skipped here, so the index assignment
/// must come from this one place for the two merges to order identically.
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
            peeked: None,
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
            peeked: None,
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
        if let Some(c) = self.streams[i].next(&self.config) {
            self.pending[i] = Some(c);
            self.heap.push(merge_key(&c, i));
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

/// The merge-heap entry for stream `i`'s contact `c`.
fn merge_key(c: &Contact, stream: usize) -> Reverse<Pending> {
    Reverse(Pending {
        key: (
            c.start().as_secs().to_bits(),
            c.end().as_secs().to_bits(),
            c.a().0,
            c.b().0,
        ),
        stream,
    })
}

/// One sharded-community stream packaged as a [`ShardWorker`]: a window
/// fill drains the stream up to the window boundary.
#[derive(Debug)]
struct ContactShard {
    stream: ShardStream,
    config: ShardedCommunityConfig,
}

impl ShardWorker for ContactShard {
    type Item = Contact;

    fn fill(&mut self, _from: SimTime, to: SimTime, out: &mut Vec<Contact>) {
        while let Some(c) = self.stream.next_in_window(&self.config, to.as_secs()) {
            out.push(c);
        }
    }
}

/// A [`ContactSource`] over the sharded community model that generates the
/// per-shard streams window by window on a [`ShardedRunner`] — optionally
/// across a pool of OS threads — and k-way merges each window at the
/// barrier.
///
/// The merge replicates [`ShardedCommunitySource`]'s algorithm exactly:
/// each stream's window batch sits in a FIFO queue and only the queue
/// *heads* compete in the heap, so even same-key contacts emerge in each
/// stream's generation order. Windows partition contacts by start time and
/// the merge key leads with the start, so no window-`w+1` contact can ever
/// precede a window-`w` contact. The output is therefore bit-identical to
/// the serial source for any thread count and any window size.
#[derive(Debug)]
pub struct ParallelShardedSource {
    config: ShardedCommunityConfig,
    runner: ShardedRunner<ContactShard>,
    /// The current window's not-yet-merged contacts, one FIFO per stream.
    queues: Vec<VecDeque<Contact>>,
    heap: BinaryHeap<Reverse<Pending>>,
}

impl ParallelShardedSource {
    /// Builds the source with the default synchronization window of
    /// 1/64th of the span. `threads <= 1` generates windows inline on the
    /// calling thread (still bit-identical); larger values use that many
    /// OS threads with one window of read-ahead.
    #[must_use]
    pub fn new(
        config: &ShardedCommunityConfig,
        factory: &RngFactory,
        threads: usize,
    ) -> ParallelShardedSource {
        ParallelShardedSource::with_window(config, factory, threads, config.span / 64.0)
    }

    /// Like [`ParallelShardedSource::new`] with an explicit window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not strictly positive.
    #[must_use]
    pub fn with_window(
        config: &ShardedCommunityConfig,
        factory: &RngFactory,
        threads: usize,
        window: SimDuration,
    ) -> ParallelShardedSource {
        let streams = build_streams(config, factory);
        let queues = (0..streams.len()).map(|_| VecDeque::new()).collect();
        let workers = streams
            .into_iter()
            .map(|stream| ContactShard {
                stream,
                config: config.clone(),
            })
            .collect();
        let runner = ShardedRunner::new(workers, SimTime::ZERO + config.span, window, threads);
        ParallelShardedSource {
            config: config.clone(),
            runner,
            queues,
            heap: BinaryHeap::new(),
        }
    }

    /// The configuration this source streams from.
    #[must_use]
    pub fn config(&self) -> &ShardedCommunityConfig {
        &self.config
    }

    /// Advances to the next window with at least one contact, seeding the
    /// merge heap with each stream's queue head. Returns `false` once the
    /// span is exhausted.
    fn load_next_window(&mut self) -> bool {
        loop {
            let Some(w) = self.runner.next_window() else {
                return false;
            };
            let mut any = false;
            for (i, batch) in w.batches.into_iter().enumerate() {
                debug_assert!(self.queues[i].is_empty(), "window merged before refill");
                self.queues[i] = batch.into();
                if let Some(c) = self.queues[i].front() {
                    self.heap.push(merge_key(c, i));
                    any = true;
                }
            }
            if any {
                return true;
            }
        }
    }
}

impl ContactSource for ParallelShardedSource {
    fn node_count(&self) -> usize {
        self.config.nodes
    }

    fn span(&self) -> SimTime {
        SimTime::ZERO + self.config.span
    }

    fn next_contact(&mut self) -> Option<Contact> {
        if self.heap.is_empty() && !self.load_next_window() {
            return None;
        }
        let Reverse(Pending { stream, .. }) = self.heap.pop()?;
        let c = self.queues[stream]
            .pop_front()
            .expect("heap entry has a queued contact");
        if let Some(next) = self.queues[stream].front() {
            self.heap.push(merge_key(next, stream));
        }
        Some(c)
    }

    fn last_contact(&self) -> LastContact {
        LastContact::Unknown
    }

    fn resident_hint(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
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
        while let Some(c) = source.streams[i].next(&source.config) {
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
    fn parallel_source_is_bit_identical_to_serial() {
        let cfg = ShardedCommunityConfig::new(60, 5, SimDuration::from_hours(18.0));
        let factory = RngFactory::new(77);
        let mut serial = ShardedCommunitySource::new(&cfg, &factory);
        let expected: Vec<Contact> = std::iter::from_fn(|| serial.next_contact()).collect();
        assert!(!expected.is_empty());
        for threads in [1, 2, 4] {
            let mut par = ParallelShardedSource::new(&cfg, &factory, threads);
            let got: Vec<Contact> = std::iter::from_fn(|| par.next_contact()).collect();
            assert_eq!(expected, got, "threads={threads} diverged from serial");
        }
    }

    #[test]
    fn parallel_source_is_window_size_independent() {
        let cfg = ShardedCommunityConfig::new(40, 4, SimDuration::from_hours(10.0));
        let factory = RngFactory::new(13);
        let drain = |threads: usize, window_mins: f64| -> Vec<Contact> {
            let mut src = ParallelShardedSource::with_window(
                &cfg,
                &factory,
                threads,
                SimDuration::from_mins(window_mins),
            );
            std::iter::from_fn(move || src.next_contact()).collect()
        };
        let base = drain(1, 600.0); // one window covers the whole span
        assert!(!base.is_empty());
        assert_eq!(base, drain(1, 7.0));
        assert_eq!(base, drain(2, 31.0));
        assert_eq!(base, drain(4, 113.0));
    }

    #[test]
    fn parallel_source_single_shard_and_zero_rate_edge_cases() {
        // Single shard: no bridge stream.
        let cfg = ShardedCommunityConfig::new(12, 1, SimDuration::from_hours(6.0));
        let factory = RngFactory::new(9);
        let mut serial = ShardedCommunitySource::new(&cfg, &factory);
        let expected: Vec<Contact> = std::iter::from_fn(|| serial.next_contact()).collect();
        let mut par = ParallelShardedSource::new(&cfg, &factory, 2);
        let got: Vec<Contact> = std::iter::from_fn(|| par.next_contact()).collect();
        assert_eq!(expected, got);

        // All rates zero: no streams at all, the source is just empty.
        let dead = ShardedCommunityConfig::new(8, 2, SimDuration::from_hours(1.0))
            .intra_rate(0.0)
            .bridge_rate(0.0);
        let mut empty = ParallelShardedSource::new(&dead, &factory, 3);
        assert!(empty.next_contact().is_none());
        assert_eq!(empty.resident_hint(), 0);
    }

    #[test]
    fn parallel_source_resident_state_is_one_window() {
        let cfg = ShardedCommunityConfig::new(200, 4, SimDuration::from_hours(4.0));
        let factory = RngFactory::new(2);
        let window = SimDuration::from_mins(15.0);
        let mut src = ParallelShardedSource::with_window(&cfg, &factory, 2, window);
        // Expected contacts per window ≈ total_rate × window; the buffered
        // peak should be the same order, far below the whole trace.
        let mut peak = 0usize;
        let mut total = 0usize;
        while src.next_contact().is_some() {
            peak = peak.max(src.resident_hint());
            total += 1;
        }
        assert!(total > 500, "expected a busy trace, got {total}");
        let windows = (cfg.span.as_secs() / window.as_secs()).ceil() as usize;
        assert!(
            peak < 4 * total.div_ceil(windows).max(1),
            "resident peak {peak} is not window-bounded (total {total}, {windows} windows)"
        );
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
