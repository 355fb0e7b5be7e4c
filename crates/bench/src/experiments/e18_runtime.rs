//! E18 — async node runtime: DES cross-validation and message throughput
//! (extension).
//!
//! The sans-io extraction's end-to-end check. One [`NodeProtocol`] core
//! drives two executions: the discrete-event simulator (every experiment
//! above) and the async node runtime in `omn-node`, where each node is a
//! task on a hand-rolled executor and every exchange crosses a real
//! serialized wire frame. In lockstep mode the runtime replays
//! the same contact trace, so every observable the paper's evaluation
//! reads must coincide *exactly* — the final per-node version vector, the
//! time-weighted freshness ratio (bit-identical), transmission totals and
//! their per-node attribution, and replica counts — with zero invariant
//! violations on either side.
//!
//! The second leg lets the runtime free-run ("firehose" mode): link-ups
//! are announced to both endpoints as they happen, and the sweep measures
//! wire-message throughput and wall-clock while the node count scales to
//! 10⁴ async tasks over the E15 sharded community generator.
//!
//! [`NodeProtocol`]: omn_core::protocol::NodeProtocol

use std::collections::HashMap;
use std::time::Instant;

use omn_contacts::synth::sharded::ShardedCommunitySource;
use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::{ContactGraph, ContactTrace, NodeId, TraceSource};
use omn_core::hierarchy::HierarchyStrategy;
use omn_core::protocol::ProtocolMode;
use omn_core::scheme::{
    EpidemicRefresh, HierarchicalConfig, HierarchicalScheme, PlanningMode, RefreshScheme,
};
use omn_core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator};
use omn_core::RefreshHierarchy;
use omn_node::{run_firehose, run_lockstep, FirehoseReport, RuntimeConfig, RuntimeReport};
use omn_sim::{OracleMode, RngFactory, SimDuration};

use crate::experiments::e15_scalability::scale_config;
use crate::scenario::{CampaignPlan, PairwiseWorld, RunLeg, WorldSpec};
use crate::{banner, Table};

/// Node counts for the firehose throughput sweep (`--nodes` overrides).
pub const THROUGHPUT_NODES: [usize; 3] = [1000, 3162, 10_000];

/// Cross-validation world: pairwise-exponential, comfortably larger than
/// the tier-1 test world but still seconds per point in lockstep. Shape
/// and mean interval are the `PairwiseConfig::new` defaults (0.8, 6 h);
/// `specs/e18.scn` commits the same world.
const WORLD: PairwiseWorld = PairwiseWorld {
    nodes: 32,
    span_days: 2.0,
    mean_interval_secs: 21_600.0,
    rate_shape: 0.8,
    world_seed: 0,
};

/// Both legs, lockstep cross-validation first.
const LEGS: [RunLeg; 2] = [RunLeg::Lockstep, RunLeg::Firehose];

/// Parameters of E18: the cross-validation world and the two legs.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// The pairwise-exponential cross-validation world. Its `world_seed`
    /// is ignored — every replication reseeds the whole world from the
    /// `[run]` seed so the DES and runtime draw identical streams.
    pub world: PairwiseWorld,
    /// Which legs run: lockstep cross-validation, firehose throughput.
    pub legs: Vec<RunLeg>,
    /// Node counts of the firehose throughput sweep.
    pub nodes: Vec<usize>,
    /// Replication seeds of the lockstep leg.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes (the planner
    /// guarantees a pairwise world for `runtime`).
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        let world = match &plan.spec.world {
            WorldSpec::Pairwise(w) => w.clone(),
            _ => WORLD,
        };
        Params {
            world,
            legs: plan.legs_or(&LEGS),
            nodes: plan.axis_usize_or("nodes", &THROUGHPUT_NODES),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Refresh period of both executions.
fn period() -> SimDuration {
    SimDuration::from_hours(6.0)
}

fn world_from(w: &PairwiseWorld, seed: u64) -> (ContactTrace, RngFactory) {
    let factory = RngFactory::new(seed);
    let config = PairwiseConfig::new(w.nodes, SimDuration::from_days(w.span_days))
        .mean_rate(1.0 / w.mean_interval_secs)
        .rate_shape(w.rate_shape);
    (generate_pairwise(&config, &factory), factory)
}

fn des_config() -> FreshnessConfig {
    FreshnessConfig {
        refresh_period: period(),
        query_count: 0,
        lifetime: None,
        oracle_mode: oracle_mode(),
        ..FreshnessConfig::default()
    }
}

/// The oracle mode of both executions: strict under `OMN_ORACLE=strict`,
/// campaign otherwise. Never off: the cross-validation asserts on both
/// oracle reports.
fn oracle_mode() -> OracleMode {
    match OracleMode::from_env() {
        OracleMode::Strict => OracleMode::Strict,
        OracleMode::Campaign | OracleMode::Off => OracleMode::Campaign,
    }
}

fn runtime_config(mode: ProtocolMode) -> RuntimeConfig {
    RuntimeConfig {
        oracle_mode: oracle_mode(),
        ..RuntimeConfig::new(mode, period())
    }
}

/// One cross-validated (seed, mode) point: the same world run through the
/// DES and through the async runtime in lockstep.
#[derive(Debug)]
pub struct CrossPoint {
    /// The DES execution's report.
    pub des: FreshnessReport,
    /// The async runtime's report.
    pub rt: RuntimeReport,
}

/// Runs one cross-validation point on the default world.
#[must_use]
pub fn cross_point(seed: u64, mode: ProtocolMode) -> CrossPoint {
    cross_point_in(&WORLD, seed, mode)
}

/// Runs one cross-validation point. For [`ProtocolMode::HierTree`] the
/// runtime is handed the same GreedySed tree the DES scheme builds at
/// `on_start` (same root, members, oracle contact graph, and RNG stream),
/// so both executions refresh along identical paths.
#[must_use]
pub fn cross_point_in(w: &PairwiseWorld, seed: u64, mode: ProtocolMode) -> CrossPoint {
    let (trace, factory) = world_from(w, seed);
    let sim = FreshnessSimulator::new(des_config());
    let (root, members) = sim.select_roles(&trace);

    let mut scheme: Box<dyn RefreshScheme> = match mode {
        ProtocolMode::HierTree => Box::new(HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(3) },
            replication: None,
            max_relays: 3,
            rebuild_every: None,
            reparent: false,
            planning: PlanningMode::Oracle,
            resilience: None,
        })),
        ProtocolMode::Epidemic => Box::new(EpidemicRefresh::new()),
    };
    let des = sim.run_with_roles(&trace, root, &members, scheme.as_mut(), &factory);

    let tree = match mode {
        ProtocolMode::HierTree => Some(RefreshHierarchy::build(
            root,
            &members,
            &ContactGraph::from_trace(&trace),
            HierarchyStrategy::GreedySed { fanout: Some(3) },
            &mut factory.stream("scheme"),
        )),
        ProtocolMode::Epidemic => None,
    };
    let rt = run_lockstep(
        TraceSource::new(&trace),
        root,
        &members,
        tree.as_ref(),
        &runtime_config(mode),
    );
    CrossPoint { des, rt }
}

/// Asserts the exact-equality contract of a cross-validation point.
///
/// # Panics
///
/// Panics on any divergence: version vectors, bit-level mean freshness,
/// transmission totals or their per-node attribution, replica counts, a
/// dirty oracle report on either side, or a wire frame that failed to
/// decode.
pub fn assert_cross(point: &CrossPoint, label: &str) {
    let CrossPoint { des, rt } = point;
    let des_versions: HashMap<NodeId, u64> = des.final_member_versions.iter().copied().collect();
    let rt_versions: HashMap<NodeId, u64> = rt.final_member_versions.iter().copied().collect();
    assert_eq!(
        rt_versions, des_versions,
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
    assert_eq!(rt.decode_errors, 0, "{label}: wire frames failed to decode");
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

/// Runs one firehose throughput point: `nodes` async node tasks over one
/// simulated day of the E15 sharded community generator, epidemic mode
/// (the traffic upper bound), root `0` with the evaluation's 8 caching
/// members.
#[must_use]
pub fn throughput_point(nodes: usize, seed: u64) -> FirehoseReport {
    let cfg = scale_config(nodes);
    let factory = RngFactory::new(seed);
    let members: Vec<NodeId> = (1..=8).map(NodeId).collect();
    run_firehose(
        ShardedCommunitySource::new(&cfg, &factory),
        NodeId(0),
        &members,
        &runtime_config(ProtocolMode::Epidemic),
    )
}

/// Runs E18: the lockstep cross-validation over the active seeds for both
/// locally-decidable protocol modes, then the firehose throughput sweep —
/// each leg gated by `params.legs`.
///
/// # Panics
///
/// Panics if any cross-validation point diverges from the DES in any
/// pinned observable, if either side records an invariant violation, or
/// if the firehose runs drop or fail to decode any wire frame or byte.
pub fn run(plan: &CampaignPlan) {
    let params = &Params::from_plan(plan);
    banner(
        "E18",
        "async node runtime: DES cross-validation + throughput (extension)",
    );
    let w = &params.world;
    println!(
        "world: {}-node pairwise trace, {} days, {}-hour refresh period\n\
         runtime: one async task per node, serialized wire frames,\n\
         invariant oracles in campaign mode on both executions\n",
        w.nodes,
        w.span_days,
        period().as_secs() / 3600.0
    );

    if params.legs.contains(&RunLeg::Lockstep) {
        run_lockstep_leg(params);
    }
    if params.legs.contains(&RunLeg::Firehose) {
        run_firehose_leg(params, !plan.no_wall);
    }
}

/// The lockstep cross-validation leg.
fn run_lockstep_leg(params: &Params) {
    let mut table = Table::new([
        "seed",
        "mode",
        "freshness (DES)",
        "freshness (runtime)",
        "tx",
        "replicas",
        "frames rx",
        "violations",
        "match",
    ]);
    let mut points = 0usize;
    for &seed in &params.seeds {
        for (mode, name) in [
            (ProtocolMode::HierTree, "tree"),
            (ProtocolMode::Epidemic, "epidemic"),
        ] {
            let point = cross_point_in(&params.world, seed, mode);
            assert_cross(&point, &format!("seed {seed} {name}"));
            let violations = point.des.oracle.total() + point.rt.oracle.total();
            table.row([
                seed.to_string(),
                name.to_owned(),
                format!("{:.6}", point.des.mean_freshness),
                format!("{:.6}", point.rt.mean_freshness),
                point.rt.transmissions.to_string(),
                point.rt.replicas.to_string(),
                point.rt.messages_received.to_string(),
                violations.to_string(),
                "exact".to_owned(),
            ]);
            points += 1;
        }
    }
    table.print();
    println!(
        "\n(all {points} cross-validation points coincide exactly: identical \
         version vectors, bit-identical mean freshness, identical transmission \
         and replica counts, zero invariant violations)\n"
    );
}

/// The firehose throughput leg. Message counts depend on how far the
/// node tasks lag the link supervisor, so only `show_wall` runs print them
/// beside the wall-clock columns.
fn run_firehose_leg(params: &Params, show_wall: bool) {
    let mut header = vec!["nodes", "contacts", "births"];
    if show_wall {
        header.extend(["msgs sent", "msgs recv", "wall s", "msgs/s"]);
    }
    let mut sweep = Table::new(header);
    for &nodes in &params.nodes {
        let start = Instant::now();
        let report = throughput_point(nodes, 11);
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            report.messages_received, report.messages_sent,
            "{nodes} nodes: the quiesce rounds must drain every in-flight frame"
        );
        assert_eq!(
            report.bytes_received, report.bytes_sent,
            "{nodes} nodes: bytes sent but not decoded"
        );
        assert_eq!(
            report.decode_errors, 0,
            "{nodes} nodes: frames failed to decode"
        );
        let mut row = vec![
            nodes.to_string(),
            report.contacts.to_string(),
            report.births.to_string(),
        ];
        if show_wall {
            row.extend([
                report.messages_sent.to_string(),
                report.messages_received.to_string(),
                format!("{wall:.1}"),
                format!("{:.0}", report.msgs_per_sec()),
            ]);
        }
        sweep.row(row);
    }
    sweep.print();
    println!(
        "\n(firehose mode: every link-up announced to both endpoints, every \
         exchange a serialized wire frame; sent == received after quiesce, \
         so no frame was dropped at any scale)"
    );
}
