//! Integration tests of the fault-injection layer end to end: zero-fault
//! plans are bit-identical to no plan at all, injected loss degrades
//! freshness, bounded retry recovers part of it, and churn produces
//! recovery observability.

use omn_contacts::faults::{DowntimeConfig, FaultConfig};
use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::ContactTrace;
use omn_core::freshness::FreshnessRequirement;
use omn_core::scheme::{ResilienceConfig, RetryPolicy};
use omn_core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator, SchemeChoice};
use omn_sim::{RngFactory, SimDuration};

fn trace(seed: u64, nodes: usize) -> ContactTrace {
    generate_pairwise(
        &PairwiseConfig::new(nodes, SimDuration::from_days(3.0)).mean_rate(1.0 / 5400.0),
        &RngFactory::new(seed),
    )
}

fn config() -> FreshnessConfig {
    FreshnessConfig {
        caching_nodes: 6,
        refresh_period: SimDuration::from_hours(8.0),
        requirement: FreshnessRequirement::new(0.8, SimDuration::from_hours(8.0)),
        query_count: 100,
        ..FreshnessConfig::default()
    }
}

/// Every observable of two reports must agree exactly.
fn assert_identical(a: &FreshnessReport, b: &FreshnessReport) {
    assert_eq!(a.scheme, b.scheme);
    assert_eq!(a.version_count, b.version_count);
    assert_eq!(a.mean_freshness.to_bits(), b.mean_freshness.to_bits());
    assert_eq!(a.freshness_timeline.points(), b.freshness_timeline.points());
    assert_eq!(a.mean_availability.to_bits(), b.mean_availability.to_bits());
    assert_eq!(a.requirement_satisfaction, b.requirement_satisfaction);
    assert_eq!(a.transmissions, b.transmissions);
    assert_eq!(a.replicas, b.replicas);
    assert_eq!(a.per_node_transmissions, b.per_node_transmissions);
    assert_eq!(a.queries_total, b.queries_total);
    assert_eq!(a.queries_served, b.queries_served);
    assert_eq!(a.queries_fresh, b.queries_fresh);
    let ea: Vec<(&str, u64)> = a.extras.iter().collect();
    let eb: Vec<(&str, u64)> = b.extras.iter().collect();
    assert_eq!(ea, eb);
    assert_eq!(a.recovery_delays.len(), b.recovery_delays.len());
}

/// A `Some(FaultConfig::default())` run (all probabilities zero) must be
/// bit-identical to a `faults: None` run for every scheme — the acceptance
/// regression for the fault layer's zero-overhead claim.
#[test]
fn zero_fault_plan_is_bit_identical_to_no_plan() {
    let t = trace(42, 20);
    for choice in SchemeChoice::ALL {
        let base = FreshnessSimulator::new(config());
        let faulted = FreshnessSimulator::new(FreshnessConfig {
            faults: Some(FaultConfig::default()),
            ..config()
        });
        let f = RngFactory::new(42);
        let a = base.run(&t, choice, &f);
        let b = faulted.run(&t, choice, &f);
        assert_identical(&a, &b);
        assert!(b.recovery_delays.is_empty());
    }
}

/// Mean freshness (averaged over seeds) degrades monotonically as the
/// transmission-loss probability grows.
#[test]
fn freshness_degrades_monotonically_with_loss() {
    let seeds = [42u64, 43, 44];
    let mut prev = f64::INFINITY;
    for loss in [0.0, 0.3, 0.7] {
        let sim = FreshnessSimulator::new(FreshnessConfig {
            faults: Some(FaultConfig {
                transmission_loss: loss,
                ..FaultConfig::default()
            }),
            ..config()
        });
        let mean: f64 = seeds
            .iter()
            .map(|&s| {
                sim.run(
                    &trace(s, 20),
                    SchemeChoice::Hierarchical,
                    &RngFactory::new(s),
                )
                .mean_freshness
            })
            .sum::<f64>()
            / seeds.len() as f64;
        assert!(
            mean <= prev + 1e-9,
            "freshness rose from {prev} to {mean} at loss {loss}"
        );
        prev = mean;
    }
}

/// Under moderate loss, bounded retry recovers freshness relative to the
/// fail-once ablation (averaged over seeds; small slack for seeds where
/// retries happen not to matter).
#[test]
fn retry_recovers_freshness_under_loss() {
    let seeds = [390u64, 391, 392, 393];
    let faults = Some(FaultConfig {
        transmission_loss: 0.2,
        ..FaultConfig::default()
    });
    let plain = FreshnessSimulator::new(FreshnessConfig { faults, ..config() });
    let retry = FreshnessSimulator::new(FreshnessConfig {
        faults,
        resilience: Some(ResilienceConfig {
            retry: RetryPolicy::fixed(3),
            suspect_after_icts: f64::INFINITY,
            ..ResilienceConfig::default()
        }),
        ..config()
    });
    let (mut plain_f, mut retry_f, mut retries) = (0.0, 0.0, 0u64);
    for &s in &seeds {
        let t = trace(s, 20);
        let a = plain.run(&t, SchemeChoice::Hierarchical, &RngFactory::new(s));
        let b = retry.run(&t, SchemeChoice::Hierarchical, &RngFactory::new(s));
        assert!(a.extras.get("failed-transmissions") > 0, "loss never fired");
        plain_f += a.mean_freshness;
        retry_f += b.mean_freshness;
        retries += b.extras.get("replication-retries") + b.extras.get("relay-retries");
    }
    assert!(retries > 0, "20% loss never exercised a retry");
    assert!(
        retry_f >= plain_f - 1e-9,
        "retry {retry_f} vs fail-once {plain_f}"
    );
}

/// Churn produces the recovery observability: rejoin events, recovery
/// delays, and suppressed contacts all show up in the report.
#[test]
fn churn_yields_recovery_metrics() {
    let seeds = [42u64, 43, 44];
    let mut rejoins = 0u64;
    let mut recoveries = 0usize;
    let mut down_contacts = 0u64;
    for &s in &seeds {
        let t = trace(s, 20);
        let sim = FreshnessSimulator::new(FreshnessConfig {
            faults: Some(FaultConfig {
                downtime: Some(DowntimeConfig {
                    node_fraction: 0.8,
                    mean_uptime: SimDuration::from_hours(12.0),
                    mean_downtime: SimDuration::from_hours(6.0),
                    exempt: None,
                }),
                ..FaultConfig::default()
            }),
            resilience: Some(ResilienceConfig::default()),
            ..config()
        });
        let r = sim.run(&t, SchemeChoice::Hierarchical, &RngFactory::new(s));
        rejoins += r.extras.get("rejoin-events");
        recoveries += r.recovery_delays.len();
        down_contacts += r.extras.get("down-contacts");
        for &d in r.recovery_delays.samples() {
            assert!((0.0..=t.span().as_secs() + 1e-9).contains(&d));
        }
        assert!(r.recovery_delays.len() <= r.extras.get("rejoin-events") as usize);
    }
    assert!(down_contacts > 0, "heavy churn suppressed no contacts");
    assert!(rejoins > 0, "heavy churn produced no member rejoins");
    assert!(recoveries > 0, "no rejoined member ever recovered");
}
