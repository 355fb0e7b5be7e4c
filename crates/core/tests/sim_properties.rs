//! Property-based invariants of the freshness simulator across random
//! scenarios, seeds, and schemes.

use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_core::freshness::FreshnessRequirement;
use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn_sim::{RngFactory, SimDuration};
use proptest::prelude::*;

fn any_scheme() -> impl Strategy<Value = SchemeChoice> {
    prop::sample::select(SchemeChoice::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Core report invariants hold for every scheme on random scenarios.
    #[test]
    fn report_invariants(
        seed in any::<u64>(),
        nodes in 6usize..20,
        caching in 2usize..5,
        period_h in 1.0f64..24.0,
        scheme in any_scheme(),
    ) {
        let factory = RngFactory::new(seed);
        let trace = generate_pairwise(
            &PairwiseConfig::new(nodes, SimDuration::from_days(2.0))
                .mean_rate(1.0 / 5400.0),
            &factory,
        );
        let period = SimDuration::from_hours(period_h);
        let config = FreshnessConfig {
            caching_nodes: caching.min(nodes - 1),
            refresh_period: period,
            requirement: FreshnessRequirement::new(0.8, period),
            query_count: 60,
            lifetime: Some(period * 2.0),
            ..FreshnessConfig::default()
        };
        let report = FreshnessSimulator::new(config).run(&trace, scheme, &factory);

        // Ratios are ratios.
        prop_assert!((0.0..=1.0).contains(&report.mean_freshness));
        prop_assert!((0.0..=1.0).contains(&report.mean_availability));
        prop_assert!((0.0..=1.0).contains(&report.requirement_satisfaction));
        prop_assert!((0.0..=1.0).contains(&report.fresh_access_ratio()));
        prop_assert!(report.fresh_access_ratio() <= report.service_ratio() + 1e-12);

        // Timeline values are ratios too.
        for &(_, v) in report.freshness_timeline.points() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }

        // With lifetime ≥ period, a fresh copy is never expired.
        prop_assert!(report.mean_availability >= report.mean_freshness - 1e-9);

        // Counting consistency.
        prop_assert!(report.queries_fresh <= report.queries_served);
        prop_assert!(report.queries_served <= report.queries_total);
        prop_assert_eq!(report.query_delays.len(), report.queries_served);
        prop_assert!(report.transmissions >= report.replicas);

        // Refresh delays lie within the trace.
        for &d in report.refresh_delays.samples() {
            prop_assert!(d >= 0.0);
            prop_assert!(d <= trace.span().as_secs() + 1e-9);
        }

        // No-refresh sanity pinned exactly.
        if scheme == SchemeChoice::NoRefresh {
            prop_assert_eq!(report.transmissions, 0);
            prop_assert_eq!(report.replicas, 0);
            prop_assert_eq!(report.refresh_delays.len(), 0);
        }
    }

    /// Freshness ordering epidemic ≥ no-refresh holds for every random
    /// scenario (not just the curated ones).
    #[test]
    fn epidemic_never_loses_to_no_refresh(
        seed in any::<u64>(),
        nodes in 8usize..20,
    ) {
        let factory = RngFactory::new(seed);
        let trace = generate_pairwise(
            &PairwiseConfig::new(nodes, SimDuration::from_days(2.0))
                .mean_rate(1.0 / 3600.0),
            &factory,
        );
        let config = FreshnessConfig {
            caching_nodes: 4.min(nodes - 1),
            refresh_period: SimDuration::from_hours(6.0),
            query_count: 0,
            ..FreshnessConfig::default()
        };
        let sim = FreshnessSimulator::new(config);
        let epidemic = sim.run(&trace, SchemeChoice::Epidemic, &factory);
        let none = sim.run(&trace, SchemeChoice::NoRefresh, &factory);
        prop_assert!(epidemic.mean_freshness >= none.mean_freshness - 1e-9);
    }
}

/// Every built-in scheme reports under its `SchemeChoice` label, both from
/// the instantiated scheme and in a run's report.
#[test]
fn scheme_names_match_their_choice() {
    let factory = RngFactory::new(3);
    let trace = generate_pairwise(
        &PairwiseConfig::new(8, SimDuration::from_days(1.0)).mean_rate(1.0 / 3600.0),
        &factory,
    );
    let config = FreshnessConfig {
        caching_nodes: 3,
        refresh_period: SimDuration::from_hours(6.0),
        query_count: 0,
        ..FreshnessConfig::default()
    };
    let sim = FreshnessSimulator::new(config);
    for choice in SchemeChoice::ALL {
        assert_eq!(sim.make_scheme(choice).name(), choice.name());
        assert_eq!(
            sim.run(&trace, choice, &factory).scheme,
            choice.name(),
            "report label of {choice}"
        );
    }
}
