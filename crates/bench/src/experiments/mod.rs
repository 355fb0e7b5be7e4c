//! The reconstructed evaluation: one module per experiment.
//!
//! | id | module | paper analogue |
//! |----|--------|----------------|
//! | E1 | [`e01_trace_stats`] | trace summary table |
//! | E2 | [`e02_delay_validation`] | analysis-vs-simulation validation |
//! | E3 | [`e03_freshness_time`] | cache freshness over time |
//! | E4 | [`e04_freshness_requirement`] | freshness vs requirement q |
//! | E5 | [`e05_refresh_period`] | freshness vs refresh period |
//! | E6 | [`e06_overhead`] | overhead comparison |
//! | E7 | [`e07_caching_nodes`] | scalability with caching nodes |
//! | E8 | [`e08_ablation`] | design-choice ablations |
//! | E9 | [`e09_data_access`] | data-access validity (with caching layer) |
//! | E11 | [`e11_robustness`] | node-departure robustness (extension) |
//! | E12 | [`e12_load_distribution`] | refresh-load distribution |
//! | E13 | [`e13_fault_tolerance`] | loss + churn fault tolerance (extension) |
//! | E14 | [`e14_joint_world`] | joint world: contact-capacity contention (extension) |
//! | E15 | [`e15_scalability`] | scalability with network size: streaming pipeline (extension) |
//! | E16 | [`e16_real_traces`] | real traces: ingestion, calibration, freshness (extension) |
//! | E17 | [`e17_chaos`] | chaos campaign: degradation envelope under adversarial faults (extension) |
//! | E18 | [`e18_runtime`] | async node runtime: DES cross-validation + wire throughput (extension) |
//! | E19 | [`e19_bandwidth`] | bandwidth-realistic links: byte-budget ladder + EWMA placement (extension) |

pub mod e01_trace_stats;
pub mod e02_delay_validation;
pub mod e03_freshness_time;
pub mod e04_freshness_requirement;
pub mod e05_refresh_period;
pub mod e06_overhead;
pub mod e07_caching_nodes;
pub mod e08_ablation;
pub mod e09_data_access;
pub mod e11_robustness;
pub mod e12_load_distribution;
pub mod e13_fault_tolerance;
pub mod e14_joint_world;
pub mod e15_scalability;
pub mod e16_real_traces;
pub mod e17_chaos;
pub mod e18_runtime;
pub mod e19_bandwidth;

use omn_contacts::synth::presets::TracePreset;
use omn_contacts::ContactTrace;
use omn_core::freshness::FreshnessRequirement;
use omn_core::sim::FreshnessConfig;
use omn_sim::{RngFactory, SimDuration};

/// Generates the preset trace for a seed (full-size evaluation traces).
#[must_use]
pub fn trace_for(preset: TracePreset, seed: u64) -> ContactTrace {
    preset.generate(&RngFactory::new(seed))
}

/// The default freshness configuration of the evaluation: 8 caching nodes,
/// 6-hour refresh period, requirement (0.9, 3 h), fanout 3, ≤3 relays.
#[must_use]
pub fn default_config() -> FreshnessConfig {
    FreshnessConfig {
        query_count: 300,
        ..FreshnessConfig::default()
    }
}

/// A shorter refresh period suited to the ~4-day conference trace.
#[must_use]
pub fn config_for(preset: TracePreset) -> FreshnessConfig {
    match preset {
        // The campus trace is sparse (mean pairwise inter-contact ~75 h),
        // so its data refreshes on a multi-day cadence; the conference
        // trace is dense and refreshes every few hours.
        // The requirement deadline equals the refresh period: "receive each
        // version before the next one arrives, with probability q".
        TracePreset::RealityLike => FreshnessConfig {
            refresh_period: SimDuration::from_hours(72.0),
            requirement: FreshnessRequirement::new(0.9, SimDuration::from_hours(72.0)),
            ..default_config()
        },
        TracePreset::InfocomLike => FreshnessConfig {
            refresh_period: SimDuration::from_hours(6.0),
            requirement: FreshnessRequirement::new(0.9, SimDuration::from_hours(6.0)),
            ..default_config()
        },
    }
}
