//! End-to-end determinism: every layer of the stack must be exactly
//! reproducible from one master seed — the property all experiment
//! confidence intervals rely on.

use omn::caching::query::QueryWorkload;
use omn::caching::Catalog;
use omn::contacts::synth::presets::TracePreset;
use omn::core::joint::{JointConfig, JointSimulator};
use omn::core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn::sim::{RngFactory, SimDuration};

#[test]
fn trace_generation_is_deterministic() {
    for preset in TracePreset::ALL {
        let a = preset.generate(&RngFactory::new(123));
        let b = preset.generate(&RngFactory::new(123));
        assert_eq!(a, b, "{preset}");
        let c = preset.generate(&RngFactory::new(124));
        assert_ne!(a, c, "{preset}: different seeds must differ");
    }
}

#[test]
fn full_freshness_run_is_deterministic() {
    let factory = RngFactory::new(55);
    let trace = TracePreset::InfocomLike.generate_small(&factory);
    let sim = FreshnessSimulator::new(FreshnessConfig {
        query_count: 120,
        ..FreshnessConfig::default()
    });
    for choice in SchemeChoice::ALL {
        let r1 = sim.run(&trace, choice, &factory);
        let r2 = sim.run(&trace, choice, &factory);
        assert_eq!(r1.mean_freshness, r2.mean_freshness, "{choice}");
        assert_eq!(r1.transmissions, r2.transmissions, "{choice}");
        assert_eq!(r1.replicas, r2.replicas, "{choice}");
        assert_eq!(r1.queries_fresh, r2.queries_fresh, "{choice}");
        assert_eq!(
            r1.requirement_satisfaction, r2.requirement_satisfaction,
            "{choice}"
        );
    }
}

#[test]
fn caching_runs_are_deterministic() {
    let factory = RngFactory::new(66);
    let trace = TracePreset::InfocomLike.generate_small(&factory);

    let catalog = Catalog::uniform(&trace, 5, SimDuration::from_hours(4.0), &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, 100, 1.0, &factory);
    let caching = JointSimulator::new(JointConfig {
        freshness: None,
        ..JointConfig::default()
    });
    let a = caching.run(&trace, &catalog, &queries, &factory).access;
    let b = caching.run(&trace, &catalog, &queries, &factory).access;
    assert_eq!(a.satisfied, b.satisfied);
    assert_eq!(a.transmissions, b.transmissions);
    assert_eq!(a.cachers_per_item, b.cachers_per_item);
}

#[test]
fn child_factories_isolate_randomness() {
    // Using child factories per item must not change what a sibling item
    // sees — the isolation the multi-item experiments rely on.
    let f = RngFactory::new(9);
    let trace = TracePreset::InfocomLike.generate_small(&f);
    let sim = FreshnessSimulator::new(FreshnessConfig {
        query_count: 50,
        ..FreshnessConfig::default()
    });
    let with_siblings = {
        let _unused = sim.run(&trace, SchemeChoice::Hierarchical, &f.child(0));
        sim.run(&trace, SchemeChoice::Hierarchical, &f.child(1))
    };
    let alone = sim.run(&trace, SchemeChoice::Hierarchical, &f.child(1));
    assert_eq!(with_siblings.mean_freshness, alone.mean_freshness);
    assert_eq!(with_siblings.transmissions, alone.transmissions);
}
