//! Cross-crate integration: the cooperative caching layer decides *where*
//! items are cached; the freshness layer keeps those copies valid. This is
//! the full pipeline behind experiment E9.

use omn::caching::query::QueryWorkload;
use omn::caching::Catalog;
use omn::contacts::synth::presets::TracePreset;
use omn::core::joint::{JointConfig, JointSimulator};
use omn::core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn::sim::{RngFactory, SimDuration};

#[test]
fn caching_sets_feed_the_freshness_layer() {
    let factory = RngFactory::new(2024);
    let trace = TracePreset::InfocomLike.generate_small(&factory);

    // Caching layer: place 4 items and serve queries.
    let catalog = Catalog::uniform(&trace, 4, SimDuration::from_hours(6.0), &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, 150, 1.0, &factory);
    let access = JointSimulator::new(JointConfig {
        freshness: None,
        ..JointConfig::default()
    })
    .run(&trace, &catalog, &queries, &factory)
    .access;
    assert!(access.success_ratio() > 0.2, "{}", access.success_ratio());

    // Freshness layer per item, over the caching sets the caching layer
    // actually produced.
    let sim = FreshnessSimulator::new(FreshnessConfig {
        refresh_period: SimDuration::from_hours(6.0),
        query_count: 50,
        ..FreshnessConfig::default()
    });
    let mut ran = 0;
    for item in catalog.items() {
        let mut members: Vec<_> = access.cachers_per_item[item.id().index()]
            .iter()
            .copied()
            .filter(|&n| n != item.source())
            .collect();
        members.sort();
        members.dedup();
        if members.is_empty() {
            continue;
        }
        let mut scheme = sim.make_scheme(SchemeChoice::Hierarchical);
        let report = sim.run_with_roles(
            &trace,
            item.source(),
            &members,
            scheme.as_mut(),
            &factory.child(u64::from(item.id().0)),
        );
        assert_eq!(report.members, members);
        assert!(report.version_count >= 2);
        ran += 1;
    }
    assert!(ran > 0, "no item produced a non-trivial caching set");
}

#[test]
fn freshness_maintains_validity_of_access() {
    // With refreshing, the fresh-access ratio must clearly exceed the
    // no-refresh lower bound on the same trace and roles.
    let factory = RngFactory::new(7);
    let trace = TracePreset::InfocomLike.generate(&factory);
    let sim = FreshnessSimulator::new(FreshnessConfig {
        query_count: 400,
        ..FreshnessConfig::default()
    });
    let hier = sim.run(&trace, SchemeChoice::Hierarchical, &factory);
    let none = sim.run(&trace, SchemeChoice::NoRefresh, &factory);
    assert!(
        hier.fresh_access_ratio() > none.fresh_access_ratio() + 0.1,
        "hier {} vs none {}",
        hier.fresh_access_ratio(),
        none.fresh_access_ratio()
    );
    // Service ratio itself is scheme-independent (same trace, same roles,
    // same queries).
    assert_eq!(hier.queries_served, none.queries_served);
}
