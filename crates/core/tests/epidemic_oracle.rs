//! Epidemic refresh meets the time-respecting-path oracle exactly.
//!
//! [`temporal::earliest_arrivals`] is the lower bound on any
//! dissemination scheme's delay, and epidemic flooding with unlimited
//! bandwidth attains it. The DES forwards at contact starts while the
//! oracle also forwards through contact tails, so the two coincide on
//! worlds where no two contacts overlap in time and no contact spans a
//! version birth. On such worlds every refresh delay the simulator
//! reports must equal the oracle's, bit for bit.

use omn_contacts::{temporal, Contact, ContactTrace, NodeId, TraceBuilder};
use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn_sim::{RngFactory, SimDuration, SimTime};
use proptest::prelude::*;
use rand::Rng;

/// A random world over `nodes` nodes whose span holds `periods` whole
/// refresh periods plus half of one. Each period gets up to
/// `per_period` contacts between random pairs, laid end to end with a
/// gap of at least a second before each, all strictly inside the
/// period: no overlap, and no contact spans a birth.
fn disjoint_world(
    nodes: usize,
    periods: u32,
    per_period: usize,
    period: SimDuration,
    factory: &RngFactory,
) -> ContactTrace {
    let mut rng = factory.stream("world");
    let p = period.as_secs();
    let slot = p / per_period as f64;
    let span = p * (f64::from(periods) + 0.5);
    let mut contacts = Vec::new();
    for k in 0..=periods {
        let window_end = (p * f64::from(k + 1)).min(span);
        let mut cursor = p * f64::from(k);
        loop {
            let start = cursor + rng.gen_range(1.0..slot / 2.0);
            let end = start + rng.gen_range(1.0..slot / 2.0);
            if end >= window_end {
                break;
            }
            let a = rng.gen_range(0..nodes);
            let b = (a + rng.gen_range(1..nodes)) % nodes;
            contacts.push(
                Contact::new(
                    NodeId(a as u32),
                    NodeId(b as u32),
                    SimTime::from_secs(start),
                    SimTime::from_secs(end),
                )
                .expect("distinct endpoints, positive duration"),
            );
            cursor = end;
        }
    }
    TraceBuilder::new(nodes)
        .span(SimTime::from_secs(span))
        .contacts(contacts)
        .build()
        .expect("contacts lie inside the span")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Sorted epidemic refresh delays equal the sorted oracle delays of
    /// every version ≥ 1 to every member, with exact `f64` equality.
    #[test]
    fn epidemic_refresh_delays_equal_the_temporal_oracle(
        seed in any::<u64>(),
        nodes in 4usize..25,
        periods in 1u32..6,
        per_period in 4usize..80,
    ) {
        let factory = RngFactory::new(seed);
        let config = FreshnessConfig {
            query_count: 0,
            ..FreshnessConfig::default()
        };
        let period = config.refresh_period;
        let trace = disjoint_world(nodes, periods, per_period, period, &factory);
        let sim = FreshnessSimulator::new(config);
        let (source, members) = sim.select_roles(&trace);
        let report = sim.run(&trace, SchemeChoice::Epidemic, &factory);

        prop_assert!(report.oracle.is_clean(), "{:?}", report.oracle);
        prop_assert_eq!(report.source, source);
        prop_assert_eq!(&report.members, &members);
        prop_assert_eq!(report.version_count, u64::from(periods) + 1);

        let mut simulated = report.refresh_delays.samples().to_vec();
        let mut oracle: Vec<f64> = (1..report.version_count)
            .flat_map(|v| {
                let birth = SimTime::ZERO + period * v as f64;
                temporal::oracle_delays(&trace, source, birth, &members)
            })
            .collect();
        simulated.sort_by(f64::total_cmp);
        oracle.sort_by(f64::total_cmp);
        prop_assert_eq!(simulated, oracle);
    }
}
