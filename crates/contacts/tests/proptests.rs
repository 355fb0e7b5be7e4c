//! Property-based tests for the contact-trace substrate.

use omn_contacts::io::{read_trace, write_trace};
use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::{Contact, ContactGraph, NodeId, TraceBuilder, TraceStats};
use omn_sim::{RngFactory, SimDuration, SimTime};
use proptest::prelude::*;

use omn_contacts::estimate::PairRateTable;

/// A strategy producing arbitrary valid contacts over `n` nodes.
fn contact_strategy(n: u32) -> impl Strategy<Value = Contact> {
    (0..n, 0..n, 0.0f64..1e5, 0.001f64..1e4).prop_filter_map(
        "self contacts are invalid",
        move |(a, b, start, dur)| {
            (a != b).then(|| {
                Contact::new(
                    NodeId(a),
                    NodeId(b),
                    SimTime::from_secs(start),
                    SimTime::from_secs(start + dur),
                )
                .expect("constructed valid")
            })
        },
    )
}

/// The reference model of a [`PairRateTable`]: a contact count per
/// unordered pair in a hash map, with rate `n / (now − start)`.
struct ReferenceTable {
    start: SimTime,
    counts: std::collections::HashMap<(NodeId, NodeId), u64>,
}

impl ReferenceTable {
    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        (a.min(b), a.max(b))
    }

    fn record_contact(&mut self, a: NodeId, b: NodeId) {
        *self.counts.entry(ReferenceTable::key(a, b)).or_insert(0) += 1;
    }

    fn rate_of(&self, n: u64, now: SimTime) -> f64 {
        let elapsed = now.as_secs() - self.start.as_secs();
        if elapsed > 0.0 {
            n as f64 / elapsed
        } else {
            0.0
        }
    }

    fn rate(&self, a: NodeId, b: NodeId, now: SimTime) -> f64 {
        self.counts
            .get(&ReferenceTable::key(a, b))
            .map_or(0.0, |&n| self.rate_of(n, now))
    }

    fn to_graph(&self, node_count: usize, now: SimTime) -> ContactGraph {
        let mut g = ContactGraph::new(node_count);
        for (&(a, b), &n) in &self.counts {
            if a.index() < node_count && b.index() < node_count {
                g.set_rate(a, b, self.rate_of(n, now));
            }
        }
        g
    }
}

/// The per-contact accumulation the batch graph builders replaced: each
/// pair adds `delta` onto its current rate through a sorted-row lookup and
/// insert.
fn graph_by_contact(
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

/// Every `(peer, rate bits)` adjacency entry of a graph, row by row.
fn entries(g: &ContactGraph) -> Vec<Vec<(NodeId, u64)>> {
    (0..g.node_count() as u32)
        .map(|i| {
            g.neighbors(NodeId(i))
                .map(|(p, r)| (p, r.to_bits()))
                .collect()
        })
        .collect()
}

proptest! {
    /// Traces built from arbitrary contacts are sorted and round-trip
    /// through the text format unchanged.
    #[test]
    fn trace_io_roundtrip(contacts in prop::collection::vec(contact_strategy(12), 0..60)) {
        let trace = TraceBuilder::new(12).contacts(contacts).build().unwrap();
        // Sorted by start time:
        for w in trace.contacts().windows(2) {
            prop_assert!(w[0].start() <= w[1].start());
        }
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let parsed = read_trace(buf.as_slice()).unwrap();
        prop_assert_eq!(parsed, trace);
    }

    /// Windowing never yields contacts outside the window and preserves
    /// the per-contact pair structure.
    #[test]
    fn windowing_clips(
        contacts in prop::collection::vec(contact_strategy(8), 1..60),
        from in 0.0f64..5e4,
        len in 1.0f64..5e4,
    ) {
        let trace = TraceBuilder::new(8).contacts(contacts).build().unwrap();
        let w = trace.window(SimTime::from_secs(from), SimTime::from_secs(from + len));
        for c in w.contacts() {
            prop_assert!(c.end() <= w.span());
            prop_assert!(c.start() >= SimTime::ZERO);
        }
        prop_assert!(w.len() <= trace.len());
    }

    /// Trace statistics are internally consistent.
    #[test]
    fn stats_consistency(contacts in prop::collection::vec(contact_strategy(10), 1..80)) {
        let trace = TraceBuilder::new(10).contacts(contacts).build().unwrap();
        let s = TraceStats::compute(&trace);
        prop_assert_eq!(s.total_contacts, trace.len());
        prop_assert!(s.connected_pairs <= 45); // C(10,2)
        prop_assert!(s.degrees.iter().all(|&d| d < 10));
        // Sum of degrees = 2 * connected pairs.
        prop_assert_eq!(s.degrees.iter().sum::<usize>(), 2 * s.connected_pairs);
    }

    /// Dijkstra expected delays satisfy the triangle property along the
    /// found paths and direct edges are never beaten by themselves.
    #[test]
    fn graph_delays_are_consistent(
        edges in prop::collection::vec((0u32..8, 0u32..8, 0.01f64..10.0), 1..20)
    ) {
        let mut g = ContactGraph::new(8);
        for (a, b, r) in edges {
            if a != b {
                g.set_rate(NodeId(a), NodeId(b), r);
            }
        }
        for src in 0..8u32 {
            let d = g.shortest_expected_delays(NodeId(src));
            prop_assert_eq!(d[src as usize], Some(0.0));
            for dst in 0..8u32 {
                if let Some(dd) = d[dst as usize] {
                    // Never worse than the direct edge.
                    if let Some(direct) = g.expected_delay(NodeId(src), NodeId(dst)) {
                        prop_assert!(dd <= direct + 1e-9);
                    }
                    // Path reconstruction agrees with the distance.
                    let path = g.shortest_path(NodeId(src), NodeId(dst)).unwrap();
                    let path_delay: f64 = path
                        .windows(2)
                        .map(|w| 1.0 / g.rate(w[0], w[1]))
                        .sum();
                    prop_assert!((path_delay - dd).abs() < 1e-6);
                }
            }
        }
    }

    /// Centrality top-k returns k distinct nodes for every metric.
    #[test]
    fn top_k_distinct(
        edges in prop::collection::vec((0u32..10, 0u32..10, 0.01f64..10.0), 1..30),
        k in 1usize..10,
    ) {
        use omn_contacts::Centrality;
        let mut g = ContactGraph::new(10);
        for (a, b, r) in edges {
            if a != b {
                g.set_rate(NodeId(a), NodeId(b), r);
            }
        }
        for metric in [Centrality::Degree, Centrality::Closeness] {
            let top = g.top_k(metric, k);
            prop_assert_eq!(top.len(), k.min(10));
            let set: std::collections::HashSet<_> = top.iter().collect();
            prop_assert_eq!(set.len(), top.len());
        }
    }

    /// The pairwise generator respects basic invariants for arbitrary
    /// configurations.
    #[test]
    fn generator_invariants(
        nodes in 2usize..12,
        hours in 1.0f64..100.0,
        seed in any::<u64>(),
    ) {
        let cfg = PairwiseConfig::new(nodes, SimDuration::from_hours(hours))
            .mean_rate(1.0 / 1800.0);
        let trace = generate_pairwise(&cfg, &RngFactory::new(seed));
        prop_assert_eq!(trace.node_count(), nodes);
        for c in trace.contacts() {
            prop_assert!(c.end() <= trace.span());
            prop_assert!(c.a() < c.b());
        }
        // MLE graph estimated from the trace has zero diagonal and
        // symmetric rates by construction.
        if !trace.is_empty() {
            let g = ContactGraph::from_trace(&trace);
            for i in 0..nodes as u32 {
                for j in 0..nodes as u32 {
                    prop_assert!((g.rate(NodeId(i), NodeId(j)) - g.rate(NodeId(j), NodeId(i))).abs() < 1e-15);
                }
            }
        }
    }

    /// Fault plans are a pure function of (config, trace, seed): two builds
    /// agree on every schedule and on every transmission-loss draw.
    #[test]
    fn fault_plans_are_deterministic(
        seed in any::<u64>(),
        loss in 0.0f64..1.0,
        churn in 0.0f64..1.0,
        dep_frac in 0.0f64..1.0,
        corruption in 0.0f64..1.0,
        crash in 0.0f64..1.0,
        outages in 0u32..6,
    ) {
        use omn_contacts::faults::{
            DepartureConfig, DowntimeConfig, FaultConfig, FaultPlan, RegionalOutageConfig,
        };
        let cfg = PairwiseConfig::new(10, SimDuration::from_days(2.0))
            .mean_rate(1.0 / 3600.0);
        let trace = generate_pairwise(&cfg, &RngFactory::new(seed));
        let fc = FaultConfig {
            transmission_loss: loss,
            downtime: Some(DowntimeConfig {
                node_fraction: churn,
                mean_uptime: SimDuration::from_hours(10.0),
                mean_downtime: SimDuration::from_hours(4.0),
                exempt: Some(NodeId(0)),
            }),
            departures: Some(DepartureConfig {
                fraction: dep_frac,
                at_frac: 0.5,
                exempt: Some(NodeId(0)),
            }),
            corruption,
            crashes: Some(DowntimeConfig {
                node_fraction: crash,
                mean_uptime: SimDuration::from_hours(16.0),
                mean_downtime: SimDuration::from_hours(2.0),
                exempt: Some(NodeId(0)),
            }),
            regional: Some(RegionalOutageConfig {
                regions: 2,
                outages,
                mean_duration: SimDuration::from_hours(3.0),
            }),
        };
        let factory = RngFactory::new(seed ^ 0x9e37_79b9);
        let mut p1 = FaultPlan::build(fc, trace.node_count(), trace.span(), &factory);
        let mut p2 = FaultPlan::build(fc, trace.node_count(), trace.span(), &factory);
        prop_assert_eq!(p1.departed(), p2.departed());
        for n in trace.nodes() {
            prop_assert_eq!(p1.down_windows_of(n), p2.down_windows_of(n));
            prop_assert_eq!(p1.crash_windows_of(n), p2.crash_windows_of(n));
            for w in p1.down_windows_of(n).iter().chain(p1.crash_windows_of(n)) {
                prop_assert!(w.0 < w.1);
            }
        }
        prop_assert_eq!(p1.regional_windows(), p2.regional_windows());
        prop_assert_eq!(p1.regional_windows().len(), outages as usize);
        prop_assert_eq!(p1.rejoin_events(), p2.rejoin_events());
        let draws1: Vec<(bool, bool)> =
            (0..64).map(|_| (p1.transfer_fails(), p1.transfer_corrupts())).collect();
        let draws2: Vec<(bool, bool)> =
            (0..64).map(|_| (p2.transfer_fails(), p2.transfer_corrupts())).collect();
        prop_assert_eq!(draws1, draws2);
        // The exempt node is never scheduled down or crashed.
        prop_assert!(p1.down_windows_of(NodeId(0)).is_empty());
        prop_assert!(p1.crash_windows_of(NodeId(0)).is_empty());
    }

    /// An all-zero fault config yields an inert plan no matter the trace or
    /// seed: nobody down, no loss draw ever fires.
    #[test]
    fn zero_fault_config_is_always_inert(seed in any::<u64>(), nodes in 2usize..12) {
        use omn_contacts::faults::{FaultConfig, FaultPlan};
        let cfg = PairwiseConfig::new(nodes, SimDuration::from_days(1.0))
            .mean_rate(1.0 / 1800.0);
        let trace = generate_pairwise(&cfg, &RngFactory::new(seed));
        let mut plan = FaultPlan::build(
            FaultConfig::default(),
            trace.node_count(),
            trace.span(),
            &RngFactory::new(seed),
        );
        prop_assert!(plan.is_inert());
        prop_assert!(plan.departed().is_empty());
        prop_assert!((0..64).all(|_| !plan.transfer_fails()));
        prop_assert!((0..64).all(|_| !plan.transfer_corrupts()));
        prop_assert!(plan.rejoin_events().is_empty());
    }

    /// Zero-intensity corruption / crash / regional configs are inert: the
    /// plan reports inert, never fires any of the new faults, and its
    /// legacy schedules are bit-identical to a plan built without the new
    /// kinds configured at all (extending the PR 1 zero-fault pattern).
    #[test]
    fn zero_intensity_new_faults_are_inert(
        seed in any::<u64>(),
        loss in 0.0f64..1.0,
        churn in 0.0f64..1.0,
    ) {
        use omn_contacts::faults::{
            DowntimeConfig, FaultConfig, FaultPlan, RegionalOutageConfig,
        };
        let legacy = FaultConfig {
            transmission_loss: loss,
            downtime: Some(DowntimeConfig {
                node_fraction: churn,
                mean_uptime: SimDuration::from_hours(12.0),
                mean_downtime: SimDuration::from_hours(3.0),
                exempt: Some(NodeId(0)),
            }),
            ..FaultConfig::default()
        };
        let with_zero_new = FaultConfig {
            corruption: 0.0,
            crashes: Some(DowntimeConfig {
                node_fraction: 0.0,
                mean_uptime: SimDuration::from_hours(12.0),
                mean_downtime: SimDuration::from_hours(3.0),
                exempt: None,
            }),
            regional: Some(RegionalOutageConfig {
                regions: 4,
                outages: 0,
                mean_duration: SimDuration::from_hours(3.0),
            }),
            ..legacy
        };
        let span = SimTime::from_days(2.0);
        let factory = RngFactory::new(seed);
        let mut base = FaultPlan::build(legacy, 10, span, &factory);
        let mut zeroed = FaultPlan::build(with_zero_new, 10, span, &factory);
        prop_assert_eq!(base.is_inert(), zeroed.is_inert());
        for n in (0..10u32).map(NodeId) {
            prop_assert_eq!(base.down_windows_of(n), zeroed.down_windows_of(n));
            prop_assert!(zeroed.crash_windows_of(n).is_empty());
        }
        prop_assert!(zeroed.regional_windows().is_empty());
        prop_assert_eq!(base.rejoin_events(), zeroed.rejoin_events());
        prop_assert!((0..64).all(|_| !zeroed.transfer_corrupts()));
        let a: Vec<bool> = (0..64).map(|_| base.transfer_fails()).collect();
        let b: Vec<bool> = (0..64).map(|_| zeroed.transfer_fails()).collect();
        prop_assert_eq!(a, b);
    }

    /// A fault plan is a pure function of (config, node count, span, seed):
    /// building over a streamed `ShardedCommunitySource` versus its
    /// materialized trace yields bit-identical fault schedules.
    #[test]
    fn fault_plans_agree_between_streamed_and_materialized(
        seed in any::<u64>(),
        nodes in 4usize..40,
        shards_hint in 1usize..6,
        crash in 0.0f64..1.0,
        outages in 0u32..4,
    ) {
        use omn_contacts::faults::{
            DowntimeConfig, FaultConfig, FaultPlan, RegionalOutageConfig,
        };
        use omn_contacts::synth::sharded::{
            generate_sharded, ShardedCommunityConfig, ShardedCommunitySource,
        };
        use omn_contacts::ContactSource;
        let shards = shards_hint.min(nodes);
        let cfg = ShardedCommunityConfig::new(nodes, shards, SimDuration::from_hours(24.0));
        let factory = RngFactory::new(seed);
        let fc = FaultConfig {
            corruption: 0.5,
            crashes: Some(DowntimeConfig {
                node_fraction: crash,
                mean_uptime: SimDuration::from_hours(10.0),
                mean_downtime: SimDuration::from_hours(2.0),
                exempt: None,
            }),
            regional: Some(RegionalOutageConfig {
                regions: shards,
                outages,
                mean_duration: SimDuration::from_hours(4.0),
            }),
            ..FaultConfig::default()
        };
        let fault_factory = RngFactory::new(seed ^ 0x5bd1_e995);

        // Streamed: the plan sees only the source's metadata.
        let src = ShardedCommunitySource::new(&cfg, &factory);
        let mut streamed_plan =
            FaultPlan::build(fc, src.node_count(), src.span(), &fault_factory);

        // Materialized: same config over the equivalent trace.
        let trace = generate_sharded(&cfg, &factory);
        let mut mat_plan =
            FaultPlan::build(fc, trace.node_count(), trace.span(), &fault_factory);

        prop_assert_eq!(streamed_plan.rejoin_events(), mat_plan.rejoin_events());
        prop_assert_eq!(streamed_plan.regional_windows(), mat_plan.regional_windows());
        for n in trace.nodes() {
            prop_assert_eq!(
                streamed_plan.crash_windows_of(n),
                mat_plan.crash_windows_of(n)
            );
            prop_assert_eq!(
                streamed_plan.down_windows_of(n),
                mat_plan.down_windows_of(n)
            );
        }
        let a: Vec<bool> = (0..32).map(|_| streamed_plan.transfer_corrupts()).collect();
        let b: Vec<bool> = (0..32).map(|_| mat_plan.transfer_corrupts()).collect();
        prop_assert_eq!(a, b);
    }

    /// The sharded generator's streaming k-way merge yields exactly the
    /// contact sequence of its materialized-and-sorted counterpart, for
    /// arbitrary shard counts and seeds.
    #[test]
    fn sharded_stream_equals_materialized(
        seed in any::<u64>(),
        nodes in 2usize..80,
        shards_hint in 1usize..12,
        hours in 1.0f64..48.0,
    ) {
        use omn_contacts::synth::sharded::{generate_sharded, ShardedCommunityConfig, ShardedCommunitySource};
        use omn_contacts::ContactSource;
        let shards = shards_hint.min(nodes);
        let cfg = ShardedCommunityConfig::new(nodes, shards, SimDuration::from_hours(hours));
        let factory = RngFactory::new(seed);
        let mut src = ShardedCommunitySource::new(&cfg, &factory);
        let streamed: Vec<Contact> = std::iter::from_fn(|| src.next_contact()).collect();
        let trace = generate_sharded(&cfg, &factory);
        prop_assert_eq!(streamed.as_slice(), trace.contacts());
        // Streamed order obeys the trace sort key.
        for w in streamed.windows(2) {
            prop_assert!(
                (w[0].start(), w[0].end(), w[0].pair()) <= (w[1].start(), w[1].end(), w[1].pair())
            );
        }
    }

    /// The log-and-fold `PairRateTable` answers exactly as a hash map of
    /// per-pair counts does: bit-equal rates `n / elapsed` for every pair,
    /// mid-run and after, the same pair count, and the same exported graph.
    /// Reads are skipped after some contacts, so the folds they trigger
    /// take pending batches of mixed sizes.
    #[test]
    fn pair_rate_table_matches_a_map_of_counts(
        start in 0.0f64..200.0,
        nodes in 2u32..14,
        contacts in prop::collection::vec(
            (0u32..14, 0u32..14, 0u8..4, 0.0f64..50.0, 0u8..8),
            0..200,
        ),
        later in 0.0f64..1e3,
    ) {
        let start = SimTime::from_secs(start);
        let mut table = PairRateTable::new(start);
        let mut reference = ReferenceTable {
            start,
            counts: std::collections::HashMap::new(),
        };
        let mut now = 0.0;
        for &(a, b, repeat, gap, read) in &contacts {
            let (a, b) = (NodeId(a % nodes), NodeId(b % nodes));
            if a == b {
                continue;
            }
            // One gap in four is zero, so equal contact times occur.
            if repeat != 0 {
                now += gap;
            }
            let t = SimTime::from_secs(now);
            table.record_contact(a, b);
            reference.record_contact(a, b);
            // Five contacts in eight are not read, so the pending batch a
            // read folds holds one contact or several.
            match read {
                0 => prop_assert_eq!(table.observed_pairs(), reference.counts.len()),
                1 => prop_assert_eq!(
                    table.to_graph(nodes as usize, t),
                    reference.to_graph(nodes as usize, t)
                ),
                2 => prop_assert_eq!(
                    table.rate(b, a, t).to_bits(),
                    reference.rate(a, b, t).to_bits()
                ),
                _ => {}
            }
        }
        prop_assert_eq!(table.observed_pairs(), reference.counts.len());
        for at in [now, now + later] {
            let at = SimTime::from_secs(at);
            for a in (0..nodes).map(NodeId) {
                for b in (0..nodes).map(NodeId) {
                    prop_assert_eq!(
                        table.rate(a, b, at).to_bits(),
                        reference.rate(a, b, at).to_bits()
                    );
                }
            }
            for node_count in [nodes as usize, nodes as usize / 2 + 1] {
                prop_assert_eq!(table.to_graph(node_count, at), reference.to_graph(node_count, at));
            }
        }
    }

    /// The batch builder equals the per-contact accumulation entry for
    /// entry, down to the rate bits, on pair multisets with duplicates,
    /// both orientations and the extreme nodes 0 and n − 1.
    #[test]
    fn batch_graph_matches_per_contact_accumulation(
        nodes in 2u32..64,
        draws in prop::collection::vec((0u32..66, 0u32..66, 1usize..5, any::<bool>()), 0..200),
        delta in 1e-6f64..10.0,
    ) {
        // Draws 64 and 65 name the extreme nodes 0 and n − 1.
        let node = |x: u32| NodeId(match x {
            64 => 0,
            65 => nodes - 1,
            x => x % nodes,
        });
        let mut pairs = vec![(NodeId(0), NodeId(nodes - 1))];
        for &(a, b, repeat, flip) in &draws {
            let (a, b) = (node(a), node(b));
            if a != b {
                let pair = if flip { (b, a) } else { (a, b) };
                pairs.extend(std::iter::repeat_n(pair, repeat));
            }
        }
        let n = nodes as usize;
        let batch = ContactGraph::from_pairs(n, pairs.iter().copied(), delta);
        let reference = graph_by_contact(n, pairs, delta);
        prop_assert_eq!(batch.edge_count(), reference.edge_count());
        prop_assert_eq!(entries(&batch), entries(&reference));
    }

    /// `ContactGraph::from_trace` equals the per-contact accumulation of
    /// `1 / span` over the trace's contacts, down to the rate bits.
    #[test]
    fn from_trace_matches_per_contact_accumulation(
        contacts in prop::collection::vec(contact_strategy(12), 1..120),
    ) {
        let trace = TraceBuilder::new(12).contacts(contacts).build().unwrap();
        let graph = ContactGraph::from_trace(&trace);
        let delta = 1.0 / trace.span().as_secs();
        let reference = graph_by_contact(12, trace.contacts().iter().map(Contact::pair), delta);
        prop_assert_eq!(entries(&graph), entries(&reference));
    }
}
