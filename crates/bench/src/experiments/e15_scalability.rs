//! E15 — Scalability with network size: the streaming contact pipeline
//! (sharded generation → pull-based driver) run from 10² to 10⁵ nodes,
//! plus a 10⁶-node headline point (`--headline`).
//!
//! Nothing in this sweep materializes the contact trace: the
//! [`ShardedCommunitySource`] generates contacts shard-by-shard with
//! O(shards) resident state, and the
//! [`ContactDriver`](omn_contacts::ContactDriver) pulls them one
//! contact at a time, keeping only a bounded residency window. The headline
//! claim — checked by the golden test and printed per row — is that the
//! peak number of resident contacts stays **sublinear** in the number of
//! contacts pulled, so memory no longer scales with trace length.

use std::time::Instant;

use omn_contacts::synth::sharded::{ShardedCommunityConfig, ShardedCommunitySource};
use omn_core::freshness::FreshnessRequirement;
use omn_core::scheme::PlanningMode;
use omn_core::sim::{
    FreshnessConfig, FreshnessReport, FreshnessSimulator, SchemeChoice, StreamStats,
};
use omn_sim::{RngFactory, SimDuration, SimTime};

use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, per_seed, Table};

/// The default node-count sweep (`--nodes` overrides it). Roughly
/// half-decade steps from 10² to 10⁵.
pub const NODE_COUNTS: [usize; 6] = [100, 316, 1000, 3162, 10_000, 100_000];

/// The `--headline` point: a million nodes, one seed, one simulated hour.
pub const HEADLINE_NODES: usize = 1_000_000;

/// The schemes compared at each size: the paper's tree scheme (cheap, but
/// starved of usable pairwise rates when mixing is uniform) and epidemic
/// flooding (the reachability upper bound, with cost that grows with the
/// contact volume).
const SCHEMES: [SchemeChoice; 2] = [SchemeChoice::Hierarchical, SchemeChoice::Epidemic];

/// Hours of the stream given to role selection (rate warm-up window),
/// clipped to half the span at the reduced spans of the largest sizes.
const WARMUP_HOURS: f64 = 6.0;

/// Parameters of E15: sweep sizes, schemes, seeds, and output columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Node counts swept.
    pub nodes: Vec<usize>,
    /// Schemes compared at each size.
    pub schemes: Vec<SchemeChoice>,
    /// Replication seeds.
    pub seeds: Vec<u64>,
    /// Whether to print the wall-clock column.
    pub show_wall: bool,
    /// Node count of the `--headline` point.
    pub headline_nodes: usize,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            nodes: plan.axis_usize_or("nodes", &NODE_COUNTS),
            schemes: plan.schemes_or(&SCHEMES),
            seeds: plan.seeds().to_vec(),
            show_wall: !plan.no_wall,
            headline_nodes: plan.scalar_usize_or("headline-nodes", HEADLINE_NODES),
        }
    }
}

/// Shards for a node count: ~50-node communities, at least one.
#[must_use]
pub fn shards_for(nodes: usize) -> usize {
    (nodes / 50).max(1)
}

/// Simulated span for a node count: one day through 10⁴ nodes (the
/// golden-pinned regime), shortened at the top sizes so the sweep's
/// contact volume grows sublinearly with node count and the 10⁵/10⁶
/// points stay tractable on one machine.
#[must_use]
pub fn span_for(nodes: usize) -> SimDuration {
    if nodes <= 10_000 {
        SimDuration::from_days(1.0)
    } else if nodes <= 100_000 {
        SimDuration::from_hours(6.0)
    } else {
        SimDuration::from_hours(1.0)
    }
}

/// The sharded-generator configuration for a node count: span from
/// [`span_for`], with cross-shard mixing raised to one bridge contact per
/// node every two hours so refresh paths exist between shards (the
/// default once-a-day rate leaves the caching set unreachable from the
/// source at large node counts, and the sweep would measure an idle
/// scheme).
#[must_use]
pub fn scale_config(nodes: usize) -> ShardedCommunityConfig {
    ShardedCommunityConfig::new(nodes, shards_for(nodes), span_for(nodes))
        .bridge_rate(1.0 / (2.0 * 3600.0))
}

/// The freshness configuration of the sweep: deployable planning
/// (estimated rates, periodic rebuilds), no query workload — E15 measures
/// the pipeline, not data access.
#[must_use]
fn sweep_config() -> FreshnessConfig {
    let period = SimDuration::from_hours(4.0);
    FreshnessConfig {
        caching_nodes: 8,
        refresh_period: period,
        requirement: FreshnessRequirement::new(0.9, period),
        lifetime: Some(period * 2.0),
        planning: PlanningMode::Estimated,
        rebuild_every: Some(SimDuration::from_hours(6.0)),
        query_count: 0,
        ..FreshnessConfig::default()
    }
}

/// One measured sweep point.
#[derive(Debug)]
pub struct ScalePoint {
    /// The freshness report of the run.
    pub report: FreshnessReport,
    /// Pull-pipeline statistics (contacts pulled, peak resident).
    pub stats: StreamStats,
    /// Wall-clock seconds for the whole point (warm-up + run).
    pub wall: f64,
}

/// Runs one (node count, scheme, seed) point of the sweep: selects roles
/// from a streamed warm-up window, then drives the scheme over a fresh
/// stream of the same source. Both passes draw from the same
/// [`RngFactory`], so the warm-up window is a prefix of the run's stream.
#[must_use]
pub fn run_point(nodes: usize, choice: SchemeChoice, seed: u64) -> ScalePoint {
    let start = Instant::now();
    let cfg = scale_config(nodes);
    let factory = RngFactory::new(seed);
    let sim = FreshnessSimulator::new(sweep_config());

    let cutoff = SimTime::from_secs((WARMUP_HOURS * 3600.0).min(cfg.span.as_secs() / 2.0));
    let mut warmup = ShardedCommunitySource::new(&cfg, &factory);
    let (source, members, oracle) = sim.select_roles_streamed(&mut warmup, cutoff);
    drop(warmup);

    let mut scheme = sim.make_scheme(choice);
    let stream = ShardedCommunitySource::new(&cfg, &factory);
    let (report, stats) =
        sim.run_streamed(stream, &oracle, source, &members, scheme.as_mut(), &factory);
    ScalePoint {
        report,
        stats,
        wall: start.elapsed().as_secs_f64(),
    }
}

/// Runs E15 as described by a compiled scenario plan: the node-count
/// sweep, or the single large point when the plan asks for the headline
/// (`--headline`).
pub fn run(plan: &CampaignPlan) {
    let params = Params::from_plan(plan);
    if plan.headline {
        headline(&params);
    } else {
        sweep(&params);
    }
}

/// The mean-freshness cell for one sweep row: `n/a` when a point's span
/// is shorter than one refresh period, so only the initial version exists
/// and the mean would score that version alone.
fn freshness_cell(points: &[ScalePoint]) -> String {
    if points.iter().any(|p| p.report.version_count <= 1) {
        return "n/a".to_owned();
    }
    let fresh: Vec<f64> = points.iter().map(|p| p.report.mean_freshness).collect();
    fmt_ci(&fresh, 3)
}

/// The node-count sweep of the streaming pipeline, reporting freshness,
/// refresh overhead, stream volume, peak residency, and wall-clock per
/// point (`--no-wall` hides the wall column for byte-for-byte diffing).
fn sweep(params: &Params) {
    banner("E15", "scalability with network size (streaming pipeline)");
    println!(
        "generator: sharded communities (~50 nodes/shard), span 1 day → 1 h by size\n\
         planning: estimated rates, roles from a streamed warm-up window\n"
    );
    let show_wall = params.show_wall;
    let mut headers = vec![
        "nodes",
        "shards",
        "scheme",
        "contacts",
        "peak resident",
        "mean freshness",
        "tx/member/version",
    ];
    if show_wall {
        headers.push("wall (s)");
    }
    let mut table = Table::new(headers);
    let seeds = &params.seeds;
    for &n in &params.nodes {
        for &choice in &params.schemes {
            let points = per_seed(seeds, |seed| run_point(n, choice, seed));
            let contacts: Vec<f64> = points
                .iter()
                .map(|p| p.stats.contacts_total as f64)
                .collect();
            let peak: Vec<f64> = points
                .iter()
                .map(|p| p.stats.peak_resident as f64)
                .collect();
            let overhead: Vec<f64> = points
                .iter()
                .map(|p| {
                    let denom = (p.report.members.len() as u64 * p.report.version_count).max(1);
                    p.report.transmissions as f64 / denom as f64
                })
                .collect();
            let mut row = vec![
                n.to_string(),
                shards_for(n).to_string(),
                choice.name().to_owned(),
                fmt_ci(&contacts, 0),
                fmt_ci(&peak, 0),
                freshness_cell(&points),
                fmt_ci(&overhead, 2),
            ];
            if show_wall {
                let wall: Vec<f64> = points.iter().map(|p| p.wall).collect();
                row.push(fmt_ci(&wall, 2));
            }
            table.row(row);
        }
    }
    table.print();
    println!(
        "\n(expected shape: contacts grow ~linearly with nodes — uniform \
         per-shard rates over fixed-size shards — while peak residency \
         tracks the shard count plus the driver's overlap window, staying \
         orders of magnitude below the stream volume; that gap is the \
         memory model that lets one process sweep 10⁵+ nodes. Epidemic \
         flooding keeps freshness high at every size but its per-member \
         cost grows with the contact volume; the tree scheme stays cheap \
         but starves when uniform mixing gives it no usable pairwise \
         rates — the regime the paper's community traces avoid)"
    );
}

/// The `--headline` point: 10⁶ nodes, one simulated hour, one seed, the
/// hierarchical scheme. The hour is shorter than one refresh period, so
/// only the initial version exists and the freshness cell reads `n/a`
/// rather than scoring that version.
fn headline(params: &Params) {
    banner("E15", "headline: one million nodes (streaming pipeline)");
    let headline_nodes = params.headline_nodes;
    let seed = params.seeds.first().copied().unwrap_or(11);
    println!(
        "nodes {headline_nodes}, shards {}, span {:.1} h, seed {seed}\n",
        shards_for(headline_nodes),
        span_for(headline_nodes).as_secs() / 3600.0
    );
    let p = run_point(headline_nodes, SchemeChoice::Hierarchical, seed);
    let mut headers = vec![
        "nodes",
        "contacts",
        "peak resident",
        "versions",
        "mean freshness",
        "transmissions",
    ];
    let mut row = vec![
        headline_nodes.to_string(),
        p.stats.contacts_total.to_string(),
        p.stats.peak_resident.to_string(),
        p.report.version_count.to_string(),
        freshness_cell(std::slice::from_ref(&p)),
        p.report.transmissions.to_string(),
    ];
    if params.show_wall {
        headers.push("wall (s)");
        row.push(format!("{:.2}", p.wall));
    }
    let mut table = Table::new(headers);
    table.row(row);
    table.print();
    println!(
        "\n(the resident set stays O(shards + the driver's overlap window) \
         while the stream runs to millions of contacts — the streaming \
         pipeline's memory model at its design size)"
    );
}
