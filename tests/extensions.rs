//! Integration tests for the extension features: temporal oracle bounds
//! and failure injection, exercised through the public facade.

use omn::contacts::faults::{DepartureConfig, FaultConfig};
use omn::contacts::temporal;
use omn::core::freshness::FreshnessRequirement;
use omn::core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn::sim::{RngFactory, SimDuration, SimTime};

#[test]
fn oracle_bound_lower_bounds_every_scheme() {
    // The time-respecting earliest-arrival bound must be at or below the
    // refresh delays any scheme achieves — including epidemic, which
    // approaches it.
    let factory = RngFactory::new(88);
    let trace = omn::contacts::synth::presets::TracePreset::InfocomLike.generate_small(&factory);
    let period = SimDuration::from_hours(4.0);
    let config = FreshnessConfig {
        caching_nodes: 5,
        refresh_period: period,
        requirement: FreshnessRequirement::new(0.8, period),
        query_count: 0,
        ..FreshnessConfig::default()
    };
    let sim = FreshnessSimulator::new(config);
    let (source, members) = sim.select_roles(&trace);

    // Oracle mean over versions and members.
    let versions = (trace.span().as_secs() / period.as_secs()) as usize;
    let mut oracle = Vec::new();
    for v in 1..versions {
        let birth = SimTime::from_secs(v as f64 * period.as_secs());
        oracle.extend(temporal::oracle_delays(&trace, source, birth, &members));
    }
    assert!(!oracle.is_empty());
    let oracle_mean = oracle.iter().sum::<f64>() / oracle.len() as f64;

    for choice in [SchemeChoice::Epidemic, SchemeChoice::Hierarchical] {
        let report = sim.run(&trace, choice, &factory);
        if let Some(measured_mean) = report.refresh_delays.mean() {
            assert!(
                measured_mean + 1.0 >= oracle_mean,
                "{choice}: measured {measured_mean:.0}s below oracle {oracle_mean:.0}s"
            );
        }
    }
}

#[test]
fn departures_reduce_freshness_monotonically_in_expectation() {
    let factory = RngFactory::new(31);
    let trace = omn::contacts::synth::presets::TracePreset::InfocomLike.generate_small(&factory);
    let config = FreshnessConfig {
        caching_nodes: 5,
        query_count: 0,
        ..FreshnessConfig::default()
    };
    let (source, members) = FreshnessSimulator::new(config).select_roles(&trace);

    // Half-way through the trace, `fraction` of the non-source nodes leave
    // for good.
    let freshness_with_departures = |fraction: f64| {
        let sim = FreshnessSimulator::new(FreshnessConfig {
            faults: Some(FaultConfig {
                departures: Some(DepartureConfig {
                    fraction,
                    at_frac: 0.5,
                    exempt: Some(source),
                }),
                ..FaultConfig::default()
            }),
            ..config
        });
        let mut scheme = sim.make_scheme(SchemeChoice::Epidemic);
        sim.run_with_roles(&trace, source, &members, scheme.as_mut(), &factory)
            .mean_freshness
    };

    let none = freshness_with_departures(0.0);
    let heavy = freshness_with_departures(0.5);
    assert!(
        heavy <= none + 1e-9,
        "losing half the network cannot help: {heavy} vs {none}"
    );
}
