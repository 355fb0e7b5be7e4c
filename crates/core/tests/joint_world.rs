//! Invariants of the joint caching + freshness world.
//!
//! The joint simulator must degenerate to the freshness-only simulator bit
//! for bit when the caching layer carries no traffic, and a per-contact
//! budget must be a hard capacity: no contact ever carries more transfers
//! than the cap across both layers. (With `freshness: None` the joint world
//! is the caching layer's only driver; `caching_layer.rs` tests that run.)

use omn_caching::ncl::select_ncls;
use omn_caching::query::QueryWorkload;
use omn_caching::{CachingConfig, Catalog};
use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::{ContactGraph, ContactTrace, NodeId};
use omn_core::joint::{ContentionPriority, JointConfig, JointSimulator};
use omn_core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator, SchemeChoice};
use omn_sim::{RngFactory, SimDuration};

fn scenario() -> (ContactTrace, Catalog, QueryWorkload, RngFactory) {
    let factory = RngFactory::new(77);
    let trace = generate_pairwise(
        &PairwiseConfig::new(24, SimDuration::from_days(3.0)).mean_rate(1.0 / 3600.0),
        &factory,
    );
    let catalog = Catalog::uniform(&trace, 5, SimDuration::from_hours(6.0), &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, 300, 1.0, &factory);
    (trace, catalog, queries, factory)
}

fn freshness_config() -> FreshnessConfig {
    FreshnessConfig {
        refresh_period: SimDuration::from_hours(6.0),
        lifetime: Some(SimDuration::from_hours(12.0)),
        query_count: 150,
        ..FreshnessConfig::default()
    }
}

fn assert_reports_identical(joint: &FreshnessReport, solo: &FreshnessReport) {
    assert_eq!(joint.scheme, solo.scheme);
    assert_eq!(joint.source, solo.source);
    assert_eq!(joint.members, solo.members);
    assert_eq!(joint.version_count, solo.version_count);
    assert_eq!(
        joint.mean_freshness.to_bits(),
        solo.mean_freshness.to_bits(),
        "mean freshness diverged: {} vs {}",
        joint.mean_freshness,
        solo.mean_freshness
    );
    assert_eq!(
        joint.mean_availability.to_bits(),
        solo.mean_availability.to_bits()
    );
    assert_eq!(
        joint.requirement_satisfaction.to_bits(),
        solo.requirement_satisfaction.to_bits()
    );
    assert_eq!(joint.transmissions, solo.transmissions);
    assert_eq!(joint.replicas, solo.replicas);
    assert_eq!(joint.per_node_transmissions, solo.per_node_transmissions);
    assert_eq!(joint.queries_total, solo.queries_total);
    assert_eq!(joint.queries_served, solo.queries_served);
    assert_eq!(joint.queries_fresh, solo.queries_fresh);
    assert_eq!(
        joint.refresh_delays.samples(),
        solo.refresh_delays.samples()
    );
    assert_eq!(joint.query_delays.samples(), solo.query_delays.samples());
    let je: Vec<(&str, u64)> = joint.extras.iter().collect();
    let se: Vec<(&str, u64)> = solo.extras.iter().collect();
    assert_eq!(je, se);
}

#[test]
fn zero_query_joint_is_bit_identical_to_standalone_freshness() {
    let (trace, catalog, _, factory) = scenario();
    let no_queries = QueryWorkload::new(Vec::new());
    let fc = freshness_config();
    let joint = JointSimulator::new(JointConfig {
        freshness: Some(fc),
        scheme: SchemeChoice::Hierarchical,
        ..JointConfig::default()
    })
    .run(&trace, &catalog, &no_queries, &factory);
    assert!(!joint.freshness.is_empty(), "no freshness participants ran");

    // Standalone replays: same roles (NCLs minus the item source), same
    // per-item child factory.
    let graph = ContactGraph::from_trace(&trace);
    let ncls = select_ncls(&graph, CachingConfig::default().ncls);
    let fsim = FreshnessSimulator::new(fc);
    for (item_id, joint_report) in &joint.freshness {
        let item = catalog.item(*item_id);
        let mut members: Vec<NodeId> = ncls
            .iter()
            .copied()
            .filter(|&n| n != item.source())
            .collect();
        members.sort();
        members.dedup();
        let mut scheme = fsim.make_scheme(SchemeChoice::Hierarchical);
        let solo = fsim.run_with_roles(
            &trace,
            item.source(),
            &members,
            scheme.as_mut(),
            &factory.child(u64::from(item_id.0)),
        );
        assert_reports_identical(joint_report, &solo);
    }
}

#[test]
fn contact_budget_is_a_hard_capacity() {
    let (trace, catalog, queries, factory) = scenario();
    for priority in [
        ContentionPriority::RefreshFirst,
        ContentionPriority::QueryFirst,
        ContentionPriority::FairInterleave,
    ] {
        let report = JointSimulator::new(JointConfig {
            freshness: Some(freshness_config()),
            contact_budget: Some(2),
            priority,
            ..JointConfig::default()
        })
        .run(&trace, &catalog, &queries, &factory);
        assert!(
            report.max_contact_used <= 2,
            "{priority:?}: contact carried {} transfers over a budget of 2",
            report.max_contact_used
        );
        assert!(
            report.access.extras.get("budget-deferred-transmissions") > 0,
            "{priority:?}: a budget of 2 should defer some traffic"
        );
    }
}

#[test]
fn unlimited_budget_reports_peak_contact_usage() {
    let (trace, catalog, queries, factory) = scenario();
    let report = JointSimulator::new(JointConfig {
        freshness: Some(freshness_config()),
        ..JointConfig::default()
    })
    .run(&trace, &catalog, &queries, &factory);
    assert!(report.max_contact_used > 0);
    assert_eq!(report.access.extras.get("budget-deferred-transmissions"), 0);
    // Versions advance, so some satisfied queries served stale copies.
    assert!(report.access.satisfied_fresh <= report.access.satisfied);
    assert!(report.mean_freshness().is_some());
}

#[test]
fn stale_demotion_evicts_and_repulls() {
    let (trace, catalog, queries, factory) = scenario();
    let base = JointConfig {
        freshness: Some(FreshnessConfig {
            // Fast births, no refreshing: replicas go stale quickly, so
            // demotion has something to demote.
            refresh_period: SimDuration::from_hours(2.0),
            ..freshness_config()
        }),
        scheme: SchemeChoice::NoRefresh,
        ..JointConfig::default()
    };
    let plain = JointSimulator::new(base.clone()).run(&trace, &catalog, &queries, &factory);
    let demoting = JointSimulator::new(JointConfig {
        demote_stale: true,
        ..base
    })
    .run(&trace, &catalog, &queries, &factory);
    assert_eq!(plain.access.extras.get("stale-demotions"), 0);
    assert!(
        demoting.access.extras.get("stale-demotions") > 0,
        "no replica was ever demoted"
    );
    assert!(
        demoting.access.extras.get("stale-repull-placements")
            <= demoting.access.extras.get("stale-demotions")
    );
}
