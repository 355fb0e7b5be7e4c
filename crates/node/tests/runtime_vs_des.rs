//! Runtime-vs-DES cross-validation (the E18 acceptance property, as a
//! tier-1 test on small worlds).
//!
//! The async node runtime in lockstep mode and the discrete-event
//! simulator drive the *same* sans-io protocol core from the same
//! contact trace, so every observable the paper's evaluation reads must
//! coincide exactly: the final per-node version vector, the
//! time-weighted freshness ratio (bit-identical — both sides perform the
//! identical tracker update sequence), transmission and replica counts,
//! and a clean invariant-oracle report.

use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::{ContactGraph, ContactTrace, TraceSource};
use omn_core::hierarchy::HierarchyStrategy;
use omn_core::protocol::ProtocolMode;
use omn_core::scheme::{EpidemicRefresh, HierarchicalConfig, HierarchicalScheme, PlanningMode};
use omn_core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator};
use omn_core::RefreshHierarchy;
use omn_node::{run_firehose, run_lockstep, RuntimeConfig, RuntimeReport};
use omn_sim::{OracleMode, RngFactory, SimDuration};

const SEEDS: [u64; 3] = [11, 42, 1337];
const PERIOD_SECS: f64 = 6.0 * 3600.0;

fn small_world(seed: u64) -> (ContactTrace, RngFactory) {
    let factory = RngFactory::new(seed);
    let config = PairwiseConfig::new(24, SimDuration::from_days(2.0));
    (generate_pairwise(&config, &factory), factory)
}

fn des_config() -> FreshnessConfig {
    FreshnessConfig {
        refresh_period: SimDuration::from_secs(PERIOD_SECS),
        query_count: 0,
        lifetime: None,
        oracle_mode: OracleMode::Campaign,
        ..FreshnessConfig::default()
    }
}

fn runtime_config(mode: ProtocolMode) -> RuntimeConfig {
    RuntimeConfig {
        oracle_mode: OracleMode::Campaign,
        workers: 4,
        inbox_capacity: 64,
        ..RuntimeConfig::new(mode, SimDuration::from_secs(PERIOD_SECS))
    }
}

/// Every metric the cross-validation pins, compared exactly.
fn assert_reports_match(rt: &RuntimeReport, des: &FreshnessReport, label: &str) {
    assert_eq!(
        rt.final_member_versions, des.final_member_versions,
        "{label}: final per-node version vectors diverge"
    );
    assert_eq!(
        rt.mean_freshness.to_bits(),
        des.mean_freshness.to_bits(),
        "{label}: mean freshness diverges ({} vs {})",
        rt.mean_freshness,
        des.mean_freshness
    );
    assert_eq!(
        rt.version_count, des.version_count,
        "{label}: version counts diverge"
    );
    assert_eq!(
        rt.transmissions, des.transmissions,
        "{label}: transmission totals diverge"
    );
    assert_eq!(
        rt.per_node_transmissions, des.per_node_transmissions,
        "{label}: per-node transmission loads diverge"
    );
    assert_eq!(rt.replicas, des.replicas, "{label}: replica counts diverge");
    assert!(
        rt.oracle.is_clean(),
        "{label}: runtime oracle violations: {:?}",
        rt.oracle
    );
    assert!(
        des.oracle.is_clean(),
        "{label}: DES oracle violations: {:?}",
        des.oracle
    );
}

#[test]
fn tree_runtime_matches_des_on_pinned_seeds() {
    for seed in SEEDS {
        let (trace, factory) = small_world(seed);
        let sim = FreshnessSimulator::new(des_config());
        let (root, members) = sim.select_roles(&trace);

        let mut scheme = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(3) },
            replication: None,
            max_relays: 3,
            rebuild_every: None,
            reparent: false,
            planning: PlanningMode::Oracle,
            resilience: None,
        });
        let des = sim.run_with_roles(&trace, root, &members, &mut scheme, &factory);

        // The runtime is handed the same tree the DES scheme builds at
        // on_start: same root, members, oracle graph, and strategy.
        let graph = ContactGraph::from_trace(&trace);
        let tree = RefreshHierarchy::build(
            root,
            &members,
            &graph,
            HierarchyStrategy::GreedySed { fanout: Some(3) },
            &mut factory.stream("scheme"),
        );
        let rt = run_lockstep(
            TraceSource::new(&trace),
            root,
            &members,
            Some(&tree),
            &runtime_config(ProtocolMode::HierTree),
        );
        assert_reports_match(&rt, &des, &format!("tree seed {seed}"));
        assert!(
            rt.decode_errors == 0,
            "seed {seed}: wire frames failed to decode"
        );
        assert_eq!(
            rt.messages_received, rt.transmissions,
            "seed {seed}: every sent frame must arrive in lockstep"
        );
        assert!(
            rt.transmissions == 0 || rt.bytes_sent > rt.transmissions,
            "seed {seed}: every wire frame carries more than one encoded byte"
        );
    }
}

#[test]
fn epidemic_runtime_matches_des_on_pinned_seeds() {
    for seed in SEEDS {
        let (trace, factory) = small_world(seed);
        let sim = FreshnessSimulator::new(des_config());
        let (root, members) = sim.select_roles(&trace);

        let mut scheme = EpidemicRefresh::new();
        let des = sim.run_with_roles(&trace, root, &members, &mut scheme, &factory);

        let rt = run_lockstep(
            TraceSource::new(&trace),
            root,
            &members,
            None,
            &runtime_config(ProtocolMode::Epidemic),
        );
        assert_reports_match(&rt, &des, &format!("epidemic seed {seed}"));

        // Relay-occupancy seconds sum f64 contributions in hash order on
        // the DES side, so the once-truncated totals may differ by one.
        let rt_secs = rt.extras.get("relay-copy-seconds") as i64;
        let des_secs = des.extras.get("relay-copy-seconds") as i64;
        assert!(
            (rt_secs - des_secs).abs() <= 1,
            "seed {seed}: relay occupancy diverges: {rt_secs} vs {des_secs}"
        );
    }
}

#[test]
fn firehose_mode_delivers_every_frame_and_measures_throughput() {
    let (trace, _) = small_world(3);
    let sim = FreshnessSimulator::new(des_config());
    let (root, members) = sim.select_roles(&trace);
    let report = run_firehose(
        TraceSource::new(&trace),
        root,
        &members,
        &runtime_config(ProtocolMode::Epidemic),
    );
    assert_eq!(report.nodes, 24);
    assert!(report.contacts > 0);
    assert!(report.births > 0);
    assert!(
        report.messages_sent > 0,
        "announced links must exchange frames"
    );
    assert_eq!(
        report.messages_received, report.messages_sent,
        "the quiesce rounds must drain every in-flight frame"
    );
    assert_eq!(
        report.bytes_received, report.bytes_sent,
        "every byte sent must arrive and decode"
    );
    assert_eq!(report.decode_errors, 0);
    assert_eq!(report.channel_errors, 0);
}

/// With one inbox slot the supervisor's `send_blocking` parks on almost
/// every dispatch, so the firehose runs on the parked-sender wakeup path.
#[test]
fn firehose_survives_single_slot_inboxes() {
    let (trace, _) = small_world(3);
    let sim = FreshnessSimulator::new(des_config());
    let (root, members) = sim.select_roles(&trace);
    for workers in [1, 2] {
        let config = RuntimeConfig {
            workers,
            inbox_capacity: 1,
            ..runtime_config(ProtocolMode::Epidemic)
        };
        let report = run_firehose(TraceSource::new(&trace), root, &members, &config);
        assert_eq!(report.contacts, trace.len() as u64, "workers {workers}");
        assert!(report.messages_sent > 0, "workers {workers}");
        assert_eq!(
            report.messages_received, report.messages_sent,
            "workers {workers}: frames sent but not received"
        );
        assert_eq!(
            report.bytes_received, report.bytes_sent,
            "workers {workers}: bytes sent but not decoded"
        );
        assert_eq!(report.decode_errors, 0, "workers {workers}");
        assert_eq!(report.channel_errors, 0, "workers {workers}");
    }
}

#[test]
fn lockstep_runs_are_deterministic() {
    let (trace, _) = small_world(7);
    let sim = FreshnessSimulator::new(des_config());
    let (root, members) = sim.select_roles(&trace);
    let run = || {
        run_lockstep(
            TraceSource::new(&trace),
            root,
            &members,
            None,
            &runtime_config(ProtocolMode::Epidemic),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_member_versions, b.final_member_versions);
    assert_eq!(a.mean_freshness.to_bits(), b.mean_freshness.to_bits());
    assert_eq!(a.transmissions, b.transmissions);
    assert_eq!(a.per_node_transmissions, b.per_node_transmissions);
    assert_eq!(a.replicas, b.replicas);
}
