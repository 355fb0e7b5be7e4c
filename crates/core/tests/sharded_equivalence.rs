//! Property: a full freshness run over the streamed k-way merge
//! ([`ShardedCommunitySource`]) is observationally *bit-identical* to the
//! same run over the materialized-and-sorted trace
//! ([`generate_sharded`] replayed through a [`TraceSource`]) — not merely
//! "statistically similar". Final member versions, the time-weighted mean
//! freshness down to the last `f64` bit, transmission totals and their
//! per-node attribution, replica counts, and oracle verdicts all
//! coincide, with or without an injected fault plan.
//!
//! The fault plan is drawn from the shared factory and indexes contacts by
//! their global order, so the faulted case also pins that the merge emits
//! contacts in exactly the trace's sorted order. Pinned across random
//! worlds in the style of `replay_equivalence`.

use omn_contacts::faults::{DowntimeConfig, FaultConfig};
use omn_contacts::synth::sharded::{
    generate_sharded, ShardedCommunityConfig, ShardedCommunitySource,
};
use omn_contacts::{Centrality, ContactGraph, ContactSource, NodeId, TraceSource};
use omn_core::hierarchy::HierarchyStrategy;
use omn_core::scheme::{HierarchicalConfig, HierarchicalScheme, PlanningMode};
use omn_core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator, StreamStats};
use omn_sim::{OracleMode, RngFactory, SimDuration, SimTime};
use proptest::prelude::*;

fn world(
    seed: u64,
    nodes: usize,
    shards: usize,
    hours: f64,
) -> (ShardedCommunityConfig, RngFactory) {
    let factory = RngFactory::new(seed);
    let config = ShardedCommunityConfig::new(nodes, shards, SimDuration::from_hours(hours))
        .bridge_rate(1.0 / (2.0 * 3600.0));
    (config, factory)
}

fn simulator(faults: Option<FaultConfig>) -> FreshnessSimulator {
    FreshnessSimulator::new(FreshnessConfig {
        refresh_period: SimDuration::from_secs(4.0 * 3600.0),
        query_count: 0,
        lifetime: None,
        oracle_mode: OracleMode::Campaign,
        faults,
        ..FreshnessConfig::default()
    })
}

fn scheme() -> HierarchicalScheme {
    HierarchicalScheme::new(HierarchicalConfig {
        strategy: HierarchyStrategy::GreedySed { fanout: Some(3) },
        replication: None,
        max_relays: 2,
        rebuild_every: None,
        reparent: true,
        planning: PlanningMode::Oracle,
        resilience: None,
    })
}

/// Roles come from one streamed warm-up pass so every run under comparison
/// uses the exact same root, members, and planning oracle.
fn roles(
    sim: &FreshnessSimulator,
    config: &ShardedCommunityConfig,
    factory: &RngFactory,
) -> (NodeId, Vec<NodeId>, ContactGraph) {
    let cutoff = SimTime::from_secs((6.0_f64 * 3600.0).min(config.span.as_secs() / 2.0));
    let mut warmup = ShardedCommunitySource::new(config, factory);
    sim.select_roles_streamed(&mut warmup, cutoff)
}

fn run_with<S: ContactSource>(
    sim: &FreshnessSimulator,
    contacts: S,
    oracle: &ContactGraph,
    root: NodeId,
    members: &[NodeId],
    factory: &RngFactory,
) -> (FreshnessReport, StreamStats) {
    let mut scheme = scheme();
    sim.run_streamed(contacts, oracle, root, members, &mut scheme, factory)
}

/// Every observable a downstream experiment folds over must coincide
/// exactly; `mean_freshness` is compared at the bit level because the
/// time-weighted accumulation order is part of the contract.
fn assert_bit_identical(label: &str, a: &FreshnessReport, b: &FreshnessReport) {
    assert_eq!(
        a.final_member_versions, b.final_member_versions,
        "{label}: versions"
    );
    assert_eq!(
        a.mean_freshness.to_bits(),
        b.mean_freshness.to_bits(),
        "{label}: mean freshness {} vs {}",
        a.mean_freshness,
        b.mean_freshness
    );
    assert_eq!(a.transmissions, b.transmissions, "{label}: transmissions");
    assert_eq!(
        a.per_node_transmissions, b.per_node_transmissions,
        "{label}: per-node tx"
    );
    assert_eq!(a.replicas, b.replicas, "{label}: replicas");
    assert_eq!(a.version_count, b.version_count, "{label}: versions born");
    assert_eq!(
        a.oracle.total(),
        b.oracle.total(),
        "{label}: oracle violations"
    );
}

fn chaos(seed_bit: bool) -> FaultConfig {
    FaultConfig {
        transmission_loss: 0.2,
        crashes: seed_bit.then(|| DowntimeConfig {
            node_fraction: 0.3,
            mean_uptime: SimDuration::from_hours(6.0),
            mean_downtime: SimDuration::from_hours(1.0),
            exempt: None,
        }),
        ..FaultConfig::default()
    }
}

/// The streamed warm-up of a 10³-node world with E15's shard size (≈ 50
/// nodes) and bridge rate picks the same source and members, over a
/// bit-identical graph, as the per-contact accumulation loop the batch
/// builder replaced. The stream-100k output check pins only a freshness
/// and a transmission count that a role change need not move.
#[test]
fn streamed_warm_up_matches_per_contact_loop() {
    let (config, factory) = world(11, 1000, 20, 24.0);
    let sim = FreshnessSimulator::new(FreshnessConfig {
        caching_nodes: 8,
        ..FreshnessConfig::default()
    });
    let cutoff = SimTime::from_hours(6.0);
    let (source, members, graph) =
        sim.select_roles_streamed(&mut ShardedCommunitySource::new(&config, &factory), cutoff);

    let mut warmup = ShardedCommunitySource::new(&config, &factory);
    let mut reference = ContactGraph::new(warmup.node_count());
    let mut pulled = 0;
    while let Some(c) = warmup.next_contact() {
        if c.start() > cutoff {
            break;
        }
        let (a, b) = c.pair();
        let rate = reference.rate(a, b) + 1.0 / cutoff.as_secs();
        reference.set_rate(a, b, rate);
        pulled += 1;
    }
    assert!(pulled > 10_000, "warm-up pulled only {pulled} contacts");
    let ranked = reference.top_k(Centrality::Degree, reference.node_count());
    let want_source = ranked[ranked.len() / 2];
    let mut want_members: Vec<NodeId> = ranked
        .into_iter()
        .filter(|&m| m != want_source)
        .take(8)
        .collect();
    want_members.sort();

    assert_eq!(source, want_source);
    assert_eq!(members, want_members);
    assert_eq!(graph.edge_count(), reference.edge_count());
    for node in (0..1000).map(NodeId) {
        let got: Vec<(NodeId, u64)> = graph
            .neighbors(node)
            .map(|(p, r)| (p, r.to_bits()))
            .collect();
        let want: Vec<(NodeId, u64)> = reference
            .neighbors(node)
            .map(|(p, r)| (p, r.to_bits()))
            .collect();
        assert_eq!(got, want, "row {node:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `streamed merge == materialized trace` across random worlds and
    /// shard counts, fault-free (oracle-clean) and under a fault plan
    /// (loss, dead contacts, optionally crash-with-state-loss churn).
    #[test]
    fn streamed_run_is_bit_identical_to_materialized(
        seed in any::<u64>(),
        nodes in 20usize..60,
        shards in 1usize..6,
        hours in 12u32..28,
        crashes in any::<bool>(),
    ) {
        let shards = shards.min(nodes);
        let (config, factory) = world(seed, nodes, shards, f64::from(hours));
        let trace = generate_sharded(&config, &factory);
        for faults in [None, Some(chaos(crashes))] {
            let faulted = faults.is_some();
            let label = if faulted { "faulted" } else { "fault-free" };
            let sim = simulator(faults);
            let (root, members, oracle) = roles(&sim, &config, &factory);
            prop_assert!(!members.is_empty(), "warm-up window produced no members");

            let streamed = ShardedCommunitySource::new(&config, &factory);
            let (base, base_stats) = run_with(&sim, streamed, &oracle, root, &members, &factory);
            let sorted = TraceSource::new(&trace);
            let (r, s) = run_with(&sim, sorted, &oracle, root, &members, &factory);
            assert_bit_identical(label, &base, &r);
            prop_assert_eq!(base_stats.contacts_total, s.contacts_total);
            if !faulted {
                prop_assert!(base.oracle.is_clean());
            }
        }
    }
}
