//! E5 — Freshness vs refresh period: faster-changing data is harder to
//! keep fresh; the gap between schemes widens as the period shrinks.

use omn_contacts::synth::presets::TracePreset;
use omn_core::freshness::FreshnessRequirement;
use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn_sim::{RngFactory, SimDuration};

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, per_seed, Table};

const PERIODS_H: [f64; 5] = [2.0, 4.0, 8.0, 16.0, 32.0];
const SCHEMES: [SchemeChoice; 4] = [
    SchemeChoice::Hierarchical,
    SchemeChoice::SourceOnly,
    SchemeChoice::Epidemic,
    SchemeChoice::NoRefresh,
];

/// Parameters of E5: the refresh-period sweep per scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the sweep runs on.
    pub preset: TracePreset,
    /// Refresh periods swept, hours (deadline = period / 2).
    pub periods_h: Vec<f64>,
    /// Schemes compared at each period.
    pub schemes: Vec<SchemeChoice>,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            preset: plan.preset_one(),
            periods_h: plan.axis_or("period-h", &PERIODS_H),
            schemes: plan.schemes_or(&SCHEMES),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Runs E5: mean freshness and fresh-access ratio across refresh periods
/// for each scheme.
pub fn run(plan: &CampaignPlan) {
    let params = &Params::from_plan(plan);
    banner("E5", "freshness vs refresh period");
    let preset = params.preset;
    println!("trace: {preset}\n");

    let seeds = &params.seeds;
    let mut table = Table::new(["period (h)", "scheme", "mean freshness", "fresh-access"]);
    for &period_h in &params.periods_h {
        for &choice in &params.schemes {
            let (fresh, access): (Vec<f64>, Vec<f64>) = per_seed(seeds, |seed| {
                let base = config_for(preset);
                let period = SimDuration::from_hours(period_h);
                let config = FreshnessConfig {
                    refresh_period: period,
                    requirement: FreshnessRequirement::new(
                        base.requirement.probability,
                        period / 2.0,
                    ),
                    ..base
                };
                let trace = trace_for(preset, seed);
                let report =
                    FreshnessSimulator::new(config).run(&trace, choice, &RngFactory::new(seed));
                (report.mean_freshness, report.fresh_access_ratio())
            })
            .into_iter()
            .unzip();
            table.row([
                format!("{period_h:.0}"),
                choice.name().to_owned(),
                fmt_ci(&fresh, 3),
                fmt_ci(&access, 3),
            ]);
        }
    }
    table.print();
    println!(
        "\n(expected shape: all schemes improve with longer periods; the \
         hierarchical scheme holds high freshness down to periods where \
         source-only has already collapsed; no-refresh ≈ period/span)"
    );
}
