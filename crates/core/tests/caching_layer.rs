//! The cooperative caching layer on its own: the joint world with
//! `freshness: None`, which is the only driver of
//! [`omn_caching::CachingRun`]. Runs without an explicit seed use
//! `RngFactory::new(0)`; fault-free runs draw no randomness, so they are
//! fully determined by the trace and the workload.

use omn_caching::policy::PolicyChoice;
use omn_caching::query::{Query, QueryWorkload};
use omn_caching::{AccessReport, CachingConfig, Catalog, DataItem, DataItemId};
use omn_contacts::faults::{DowntimeConfig, FaultConfig};
use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::{Contact, ContactTrace, NodeId, TraceBuilder};
use omn_core::joint::{JointConfig, JointSimulator};
use omn_sim::{RngFactory, SimDuration, SimTime};

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn c(a: u32, b: u32, s: f64, e: f64) -> Contact {
    Contact::new(NodeId(a), NodeId(b), t(s), t(e)).unwrap()
}

fn one_item_catalog(source: u32) -> Catalog {
    Catalog::new(vec![DataItem::new(
        DataItemId(0),
        NodeId(source),
        100,
        SimDuration::from_secs(1000.0),
        SimDuration::from_secs(1e6),
    )])
}

/// Runs the caching layer alone with `policy`, `faults` and `factory`.
fn run_with(
    caching: CachingConfig,
    policy: PolicyChoice,
    faults: Option<FaultConfig>,
    trace: &ContactTrace,
    catalog: &Catalog,
    queries: &QueryWorkload,
    factory: &RngFactory,
) -> AccessReport {
    JointSimulator::new(JointConfig {
        caching,
        freshness: None,
        policy,
        faults,
        ..JointConfig::default()
    })
    .run(trace, catalog, queries, factory)
    .access
}

/// Runs the caching layer alone, fault-free with LRU replacement.
fn run(
    caching: CachingConfig,
    trace: &ContactTrace,
    catalog: &Catalog,
    queries: &QueryWorkload,
) -> AccessReport {
    run_with(
        caching,
        PolicyChoice::Lru,
        None,
        trace,
        catalog,
        queries,
        &RngFactory::new(0),
    )
}

#[test]
fn local_hit_at_source() {
    // The source queries its own item: instant hit, no contacts needed
    // beyond one to drive the loop.
    let trace = TraceBuilder::new(3)
        .contact(c(1, 2, 10.0, 11.0))
        .build()
        .unwrap();
    let catalog = one_item_catalog(0);
    let queries = QueryWorkload::new(vec![Query {
        issued: t(5.0),
        requester: NodeId(0),
        item: DataItemId(0),
    }]);
    let report = run(CachingConfig::default(), &trace, &catalog, &queries);
    assert_eq!(report.satisfied, 1);
    assert_eq!(report.local_hits, 1);
    assert_eq!(report.mean_delay(), Some(0.0));
}

#[test]
fn remote_answer_via_contact_with_source() {
    // Requester 1 meets source 0 directly: 0 answers, response
    // delivered in the same contact chain.
    let trace = TraceBuilder::new(2)
        .contact(c(0, 1, 10.0, 11.0))
        .contact(c(0, 1, 20.0, 21.0))
        .build()
        .unwrap();
    let catalog = one_item_catalog(0);
    let queries = QueryWorkload::new(vec![Query {
        issued: t(5.0),
        requester: NodeId(1),
        item: DataItemId(0),
    }]);
    let report = run(CachingConfig::default(), &trace, &catalog, &queries);
    // At t=10 the query (carried by 1) meets source 0, which answers
    // and returns the response within the same contact → delay 5.
    assert_eq!(report.satisfied, 1);
    assert!((report.mean_delay().unwrap() - 5.0).abs() < 1e-9);
}

#[test]
fn placement_reaches_ncl_and_serves_queries() {
    // Dense pair (1,2) makes them central; source 0 touches 1 once.
    let mut builder = TraceBuilder::new(4).contact(c(0, 1, 5.0, 6.0));
    for k in 0..20 {
        let s = 10.0 + f64::from(k) * 10.0;
        builder = builder.contact(c(1, 2, s, s + 1.0));
    }
    // Requester 3 meets node 1 late.
    let trace = builder
        .contact(c(1, 3, 500.0, 501.0))
        .contact(c(1, 3, 600.0, 601.0))
        .build()
        .unwrap();
    let catalog = one_item_catalog(0);
    let config = CachingConfig {
        ncls: 1,
        ..CachingConfig::default()
    };
    let queries = QueryWorkload::new(vec![Query {
        issued: t(400.0),
        requester: NodeId(3),
        item: DataItemId(0),
    }]);
    let report = run(config, &trace, &catalog, &queries);
    assert_eq!(
        report.satisfied, 1,
        "query should be answered by cached copy"
    );
    // Node 1 (the NCL or an opportunistic cacher) holds the item.
    assert!(report.cachers_per_item[0].len() >= 2);
}

#[test]
fn queries_expire_at_deadline() {
    let trace = TraceBuilder::new(3)
        .contact(c(1, 2, 5000.0, 5001.0))
        .build()
        .unwrap();
    let catalog = one_item_catalog(0);
    let config = CachingConfig {
        query_deadline: SimDuration::from_secs(100.0),
        ..CachingConfig::default()
    };
    let queries = QueryWorkload::new(vec![Query {
        issued: t(0.0),
        requester: NodeId(1),
        item: DataItemId(0),
    }]);
    let report = run(config, &trace, &catalog, &queries);
    assert_eq!(report.satisfied, 0);
}

#[test]
fn end_to_end_on_synthetic_trace() {
    let factory = RngFactory::new(42);
    let trace = generate_pairwise(
        &PairwiseConfig::new(20, SimDuration::from_days(2.0)).mean_rate(1.0 / 3600.0),
        &factory,
    );
    let catalog = Catalog::uniform(&trace, 8, SimDuration::from_hours(8.0), &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, 300, 1.0, &factory);
    let report = run(CachingConfig::default(), &trace, &catalog, &queries);
    assert!(report.created == 300);
    assert!(
        report.success_ratio() > 0.3,
        "success ratio {}",
        report.success_ratio()
    );
    assert!(report.transmissions > 0);
    // Every item is cached at least at its source.
    for cachers in &report.cachers_per_item {
        assert!(!cachers.is_empty());
    }
}

#[test]
fn alternate_policies_run_end_to_end() {
    let factory = RngFactory::new(21);
    let trace = generate_pairwise(
        &PairwiseConfig::new(18, SimDuration::from_days(2.0)).mean_rate(1.0 / 3600.0),
        &factory,
    );
    // Tight caches force evictions so the policy actually acts.
    let config = CachingConfig {
        cache_capacity: 2,
        ..CachingConfig::default()
    };
    let catalog = Catalog::uniform(&trace, 10, SimDuration::from_hours(6.0), &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, 250, 1.2, &factory);
    let run_policy = |policy| {
        run_with(
            config.clone(),
            policy,
            None,
            &trace,
            &catalog,
            &queries,
            &RngFactory::new(0),
        )
    };
    let ewma = run_policy(PolicyChoice::Ewma);
    assert_eq!(ewma.created, 250);
    assert!(ewma.success_ratio() > 0.1, "{}", ewma.success_ratio());
}

#[test]
fn deterministic() {
    let factory = RngFactory::new(9);
    let trace = generate_pairwise(
        &PairwiseConfig::new(15, SimDuration::from_days(1.0)).mean_rate(1.0 / 1800.0),
        &factory,
    );
    let catalog = Catalog::uniform(&trace, 5, SimDuration::from_hours(4.0), &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, 100, 1.0, &factory);
    let r1 = run(CachingConfig::default(), &trace, &catalog, &queries);
    let r2 = run(CachingConfig::default(), &trace, &catalog, &queries);
    assert_eq!(r1.satisfied, r2.satisfied);
    assert_eq!(r1.transmissions, r2.transmissions);
    assert_eq!(r1.cachers_per_item, r2.cachers_per_item);
}

fn fault_scenario() -> (ContactTrace, Catalog, QueryWorkload) {
    let factory = RngFactory::new(33);
    let trace = generate_pairwise(
        &PairwiseConfig::new(16, SimDuration::from_days(2.0)).mean_rate(1.0 / 3600.0),
        &factory,
    );
    let catalog = Catalog::uniform(&trace, 6, SimDuration::from_hours(8.0), &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, 200, 1.0, &factory);
    (trace, catalog, queries)
}

/// Runs the fault scenario's caching layer under `faults`, seeded like the
/// scenario.
fn run_faulted(
    faults: FaultConfig,
    trace: &ContactTrace,
    catalog: &Catalog,
    queries: &QueryWorkload,
) -> AccessReport {
    run_with(
        CachingConfig::default(),
        PolicyChoice::Lru,
        Some(faults),
        trace,
        catalog,
        queries,
        &RngFactory::new(33),
    )
}

#[test]
fn zero_fault_plan_is_bit_identical_to_no_plan() {
    let (trace, catalog, queries) = fault_scenario();
    let free = run(CachingConfig::default(), &trace, &catalog, &queries);
    let zeroed = run_faulted(FaultConfig::default(), &trace, &catalog, &queries);
    assert_eq!(free.satisfied, zeroed.satisfied);
    assert_eq!(free.local_hits, zeroed.local_hits);
    assert_eq!(free.transmissions, zeroed.transmissions);
    assert_eq!(free.cachers_per_item, zeroed.cachers_per_item);
    assert_eq!(zeroed.extras.get("down-contacts"), 0);
    assert_eq!(zeroed.extras.get("failed-transmissions"), 0);
}

#[test]
fn total_transmission_loss_leaves_only_local_hits() {
    let (trace, catalog, queries) = fault_scenario();
    let report = run_faulted(
        FaultConfig {
            transmission_loss: 1.0,
            ..FaultConfig::default()
        },
        &trace,
        &catalog,
        &queries,
    );
    // Every hop fails: nothing remote can ever be satisfied, and every
    // counted transmission is a failed one.
    assert_eq!(report.satisfied, report.local_hits);
    assert_eq!(
        report.extras.get("failed-transmissions"),
        report.transmissions
    );
}

#[test]
fn churn_suppresses_contacts() {
    let (trace, catalog, queries) = fault_scenario();
    let churned = run_faulted(
        FaultConfig {
            downtime: Some(DowntimeConfig {
                node_fraction: 1.0,
                mean_uptime: SimDuration::from_hours(4.0),
                mean_downtime: SimDuration::from_hours(4.0),
                exempt: None,
            }),
            ..FaultConfig::default()
        },
        &trace,
        &catalog,
        &queries,
    );
    // Heavy churn suppresses a substantial share of contacts; the run
    // stays internally consistent.
    assert!(churned.extras.get("down-contacts") > 0);
    assert!(churned.satisfied <= churned.created);
    assert!(churned.local_hits <= churned.satisfied);
    assert_eq!(churned.delays.len(), churned.satisfied);
}
