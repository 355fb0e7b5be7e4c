//! Criterion micro-benchmarks for the performance-critical paths:
//! the event queue, centrality computation, hierarchy builders, the
//! replication planner, and end-to-end simulations.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use omn_caching::ncl::{select_ncls, NclConfig};
use omn_contacts::synth::presets::TracePreset;
use omn_contacts::{Centrality, ContactGraph, NodeId};
use omn_core::freshness::FreshnessRequirement;
use omn_core::hierarchy::{HierarchyStrategy, RefreshHierarchy};
use omn_core::replication::ReplicationPlanner;
use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn_sim::{EventQueue, RngFactory, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/schedule_pop_10k", |b| {
        b.iter_batched(
            || {
                let times: Vec<SimTime> = (0..10_000)
                    .map(|i| SimTime::from_secs(f64::from((i * 7919) % 10_000)))
                    .collect();
                times
            },
            |times| {
                let mut q = EventQueue::new();
                for (i, t) in times.into_iter().enumerate() {
                    q.schedule(t, i);
                }
                while q.pop().is_some() {}
            },
            BatchSize::SmallInput,
        );
    });
}

fn dense_graph(n: usize) -> ContactGraph {
    let mut g = ContactGraph::new(n);
    let mut rng_state = 0x12345u64;
    for i in 0..n {
        for j in (i + 1)..n {
            rng_state = omn_sim::split_mix64(rng_state);
            let r = (rng_state % 1000) as f64 / 1e6 + 1e-5;
            g.set_rate(NodeId(i as u32), NodeId(j as u32), r);
        }
    }
    g
}

fn bench_centrality(c: &mut Criterion) {
    let g = dense_graph(97);
    c.bench_function("centrality/betweenness_97", |b| {
        b.iter(|| g.centrality_scores(Centrality::Betweenness));
    });
    c.bench_function("centrality/closeness_97", |b| {
        b.iter(|| g.centrality_scores(Centrality::Closeness));
    });
    c.bench_function("ncl/select_8_of_97", |b| {
        b.iter(|| select_ncls(&g, &NclConfig::new(8).min_separation(100.0)));
    });
}

fn bench_hierarchy(c: &mut Criterion) {
    let g = dense_graph(97);
    let members: Vec<NodeId> = (1..33).map(NodeId).collect();
    c.bench_function("hierarchy/greedy_sed_32_members", |b| {
        b.iter_batched(
            || RngFactory::new(1).stream("h"),
            |mut rng| {
                RefreshHierarchy::build(
                    NodeId(0),
                    &members,
                    &g,
                    HierarchyStrategy::GreedySed { fanout: Some(3) },
                    &mut rng,
                )
            },
            BatchSize::SmallInput,
        );
    });
    c.bench_function("hierarchy/random_32_members", |b| {
        b.iter_batched(
            || RngFactory::new(1).stream("h"),
            |mut rng| {
                RefreshHierarchy::build(
                    NodeId(0),
                    &members,
                    &g,
                    HierarchyStrategy::Random { fanout: Some(3) },
                    &mut rng,
                )
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_replication(c: &mut Criterion) {
    let g = dense_graph(97);
    let members: Vec<NodeId> = (1..17).map(NodeId).collect();
    let mut rng = RngFactory::new(1).stream("h");
    let h = RefreshHierarchy::build(
        NodeId(0),
        &members,
        &g,
        HierarchyStrategy::GreedySed { fanout: Some(3) },
        &mut rng,
    );
    let planner = ReplicationPlanner::new(
        FreshnessRequirement::new(0.9, SimDuration::from_hours(3.0)),
        3,
    );
    c.bench_function("replication/plan_hierarchy_16_members_97_nodes", |b| {
        b.iter(|| planner.plan_hierarchy(&h, &g));
    });
}

fn bench_simulations(c: &mut Criterion) {
    let factory = RngFactory::new(5);
    let trace = TracePreset::InfocomLike.generate_small(&factory);

    c.bench_function("sim/freshness_hierarchical_small_trace", |b| {
        let sim = FreshnessSimulator::new(FreshnessConfig {
            caching_nodes: 5,
            query_count: 50,
            ..FreshnessConfig::default()
        });
        b.iter(|| sim.run(&trace, SchemeChoice::Hierarchical, &factory));
    });

    c.bench_function("synth/infocom_like_small", |b| {
        b.iter(|| TracePreset::InfocomLike.generate_small(&factory));
    });

    c.bench_function("temporal/earliest_arrivals_small_trace", |b| {
        b.iter(|| {
            omn_contacts::temporal::earliest_arrivals(
                &trace,
                omn_contacts::NodeId(0),
                omn_sim::SimTime::ZERO,
            )
        });
    });
}

fn bench_delay_models(c: &mut Criterion) {
    use omn_core::delay::DelayModel;
    let hop = |d: f64, r1: f64, r2: f64| {
        DelayModel::min_of(vec![
            DelayModel::exponential(d),
            DelayModel::hypoexponential(vec![r1, r2]),
        ])
    };
    let deep = DelayModel::sum_of(vec![
        hop(0.1, 0.3, 0.3),
        hop(0.05, 0.2, 0.4),
        hop(0.08, 0.3, 0.2),
    ]);
    c.bench_function("delay/sum_of_minima_cdf", |b| {
        b.iter(|| deep.cdf(25.0));
    });
    c.bench_function("delay/expected_capped", |b| {
        b.iter(|| deep.expected_capped(100.0));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_event_queue, bench_centrality, bench_hierarchy,
              bench_replication, bench_simulations, bench_delay_models
}
criterion_main!(benches);
