//! E8 — Ablations of the design choices DESIGN.md calls out:
//! (a) probabilistic replication on/off,
//! (b) contact-aware vs random hierarchy,
//! (c) fanout bound,
//! (d) distributed maintenance (estimated planning, rebuilds,
//!     re-parenting) vs one-shot oracle planning.

use omn_contacts::synth::presets::TracePreset;
use omn_core::hierarchy::HierarchyStrategy;
use omn_core::scheme::{HierarchicalConfig, HierarchicalScheme, PlanningMode};
use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn_sim::{RngFactory, SimDuration};

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, per_seed, Table};

const FANOUTS: [Option<usize>; 5] = [Some(1), Some(2), Some(3), Some(5), None];

/// Parameters of E8: the ablation preset, fanout ladder, and seeds. The
/// replication/structure/maintenance ablations compare fixed variant
/// pairs, so only the fanout sweep is parameterized.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the ablations run on.
    pub preset: TracePreset,
    /// Fanout bounds swept in ablation (c) (`None` = unbounded).
    pub fanouts: Vec<Option<usize>>,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes (axis value `0`
    /// means unbounded fanout).
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        let fanouts = match plan.axis("fanout") {
            Some(values) => values
                .iter()
                .map(|&v| {
                    let f = v as usize;
                    (f > 0).then_some(f)
                })
                .collect(),
            None => FANOUTS.to_vec(),
        };
        Params {
            preset: plan.preset_one(),
            fanouts,
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Runs E8 on the configured trace.
pub fn run(plan: &CampaignPlan) {
    let params = &Params::from_plan(plan);
    banner("E8", "ablations");
    let preset = params.preset;
    println!("trace: {preset}");
    replication_ablation(preset, &params.seeds);
    structure_ablation(preset, &params.seeds);
    fanout_ablation(preset, &params.fanouts, &params.seeds);
    maintenance_ablation(preset, &params.seeds);
}

fn measure(
    preset: TracePreset,
    config: FreshnessConfig,
    choice: SchemeChoice,
    seeds: &[u64],
) -> (Vec<f64>, Vec<f64>) {
    per_seed(seeds, |seed| {
        let trace = trace_for(preset, seed);
        let report = FreshnessSimulator::new(config).run(&trace, choice, &RngFactory::new(seed));
        (report.mean_freshness, report.requirement_satisfaction)
    })
    .into_iter()
    .unzip()
}

fn replication_ablation(preset: TracePreset, seeds: &[u64]) {
    println!("\n(a) probabilistic replication:");
    let mut table = Table::new(["variant", "mean freshness", "satisfaction"]);
    for (name, choice) in [
        ("tree + replication", SchemeChoice::Hierarchical),
        ("tree only", SchemeChoice::HierarchicalNoReplication),
    ] {
        let (fresh, sat) = measure(preset, config_for(preset), choice, seeds);
        table.row([name.to_owned(), fmt_ci(&fresh, 3), fmt_ci(&sat, 3)]);
    }
    table.print();
}

fn structure_ablation(preset: TracePreset, seeds: &[u64]) {
    println!("\n(b) contact-aware vs random hierarchy (both without replication):");
    let mut table = Table::new(["variant", "mean freshness", "satisfaction"]);
    for (name, choice) in [
        ("greedy SED tree", SchemeChoice::HierarchicalNoReplication),
        ("random tree", SchemeChoice::RandomTree),
    ] {
        let (fresh, sat) = measure(preset, config_for(preset), choice, seeds);
        table.row([name.to_owned(), fmt_ci(&fresh, 3), fmt_ci(&sat, 3)]);
    }
    table.print();
}

fn fanout_ablation(preset: TracePreset, fanouts: &[Option<usize>], seeds: &[u64]) {
    println!("\n(c) fanout bound (tree + replication):");
    let mut table = Table::new(["fanout", "mean freshness", "satisfaction"]);
    for &fanout in fanouts {
        let config = FreshnessConfig {
            fanout,
            ..config_for(preset)
        };
        let (fresh, sat) = measure(preset, config, SchemeChoice::Hierarchical, seeds);
        let label = fanout.map_or("unbounded".to_owned(), |f| f.to_string());
        table.row([label, fmt_ci(&fresh, 3), fmt_ci(&sat, 3)]);
    }
    table.print();
    println!(
        "(fanout 1 degenerates to a chain — deep and slow; unbounded \
         converges to a star when the source is central)"
    );
}

fn maintenance_ablation(preset: TracePreset, seeds: &[u64]) {
    println!("\n(d) planning knowledge and distributed maintenance:");
    let mut table = Table::new(["variant", "mean freshness", "satisfaction"]);

    let variants: [(&str, HierarchicalConfig); 4] = [
        ("oracle, build once", HierarchicalConfig::default()),
        (
            "estimated, build once",
            HierarchicalConfig {
                planning: PlanningMode::Estimated,
                ..HierarchicalConfig::default()
            },
        ),
        (
            "estimated + rebuilds",
            HierarchicalConfig {
                planning: PlanningMode::Estimated,
                rebuild_every: Some(SimDuration::from_hours(12.0)),
                ..HierarchicalConfig::default()
            },
        ),
        (
            "estimated + rebuilds + reparent",
            HierarchicalConfig {
                planning: PlanningMode::Estimated,
                rebuild_every: Some(SimDuration::from_hours(12.0)),
                reparent: true,
                ..HierarchicalConfig::default()
            },
        ),
    ];

    for (name, mut hconfig) in variants {
        let config = config_for(preset);
        hconfig.strategy = HierarchyStrategy::GreedySed {
            fanout: config.fanout,
        };
        hconfig.replication = Some(config.requirement);
        hconfig.max_relays = config.max_relays;
        let (fresh, sat): (Vec<f64>, Vec<f64>) = per_seed(seeds, |seed| {
            let trace = trace_for(preset, seed);
            let mut scheme = HierarchicalScheme::new(hconfig);
            let report = FreshnessSimulator::new(config).run_scheme(
                &trace,
                &mut scheme,
                &RngFactory::new(seed),
            );
            (report.mean_freshness, report.requirement_satisfaction)
        })
        .into_iter()
        .unzip();
        table.row([name.to_owned(), fmt_ci(&fresh, 3), fmt_ci(&sat, 3)]);
    }
    table.print();
    println!(
        "(estimated planning without rebuilds plans from an empty rate \
         table and should underperform; rebuilds recover most of the oracle \
         gap, re-parenting closes it further between rebuilds)"
    );
}
