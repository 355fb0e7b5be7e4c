//! End-to-end Criterion benchmark: one fixed-seed freshness-maintenance
//! run on the full-size conference-like trace — the workload every
//! experiment in the campaign repeats per seed, and the path the unified
//! event kernel (Engine + ContactDriver + World) must keep fast.

use criterion::{criterion_group, criterion_main, Criterion};

use omn_bench::experiments::e15_scalability::scale_config;
use omn_bench::experiments::{config_for, trace_for};
use omn_contacts::synth::presets::TracePreset;
use omn_contacts::synth::sharded::ShardedCommunitySource;
use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::ContactSource;
use omn_core::sim::{FreshnessSimulator, SchemeChoice};
use omn_sim::{OracleMode, RngFactory, SimDuration};
use omn_traces::haggle::{write_haggle, HaggleFormat};
use omn_traces::{IdPolicy, IngestConfig, TraceReader};

fn bench_freshness_run(c: &mut Criterion) {
    let preset = TracePreset::InfocomLike;
    let seed = 11;
    let trace = trace_for(preset, seed);
    let config = config_for(preset);
    let factory = RngFactory::new(seed);

    c.bench_function("freshness/infocom_like_hierarchical_full", |b| {
        b.iter(|| {
            FreshnessSimulator::new(config).run(&trace, SchemeChoice::Hierarchical, &factory)
        });
    });

    c.bench_function("freshness/infocom_like_epidemic_full", |b| {
        b.iter(|| FreshnessSimulator::new(config).run(&trace, SchemeChoice::Epidemic, &factory));
    });
}

fn bench_oracle_overhead(c: &mut Criterion) {
    // The always-on-oracles claim: running the full invariant-oracle suite
    // must cost well under 5% of a full run. Two identical runs differ
    // only in oracle mode; both land in the bench_trend baseline, so the
    // ratio stays auditable run over run.
    let preset = TracePreset::InfocomLike;
    let seed = 11;
    let trace = trace_for(preset, seed);
    let factory = RngFactory::new(seed);
    let mut on = config_for(preset);
    on.oracle_mode = OracleMode::Campaign;
    let mut off = config_for(preset);
    off.oracle_mode = OracleMode::Off;

    c.bench_function("freshness/oracles_campaign", |b| {
        b.iter(|| FreshnessSimulator::new(on).run(&trace, SchemeChoice::Hierarchical, &factory));
    });
    c.bench_function("freshness/oracles_off", |b| {
        b.iter(|| FreshnessSimulator::new(off).run(&trace, SchemeChoice::Hierarchical, &factory));
    });
}

fn bench_sharded_stream(c: &mut Criterion) {
    // The E15 substrate: drain a 1000-node sharded community stream
    // through the k-way merge — the generation cost every scalability
    // point pays per contact.
    let cfg = scale_config(1000);
    let factory = RngFactory::new(11);
    c.bench_function("contacts/sharded_stream_1000_nodes_1_day", |b| {
        b.iter(|| {
            let mut source = ShardedCommunitySource::new(&cfg, &factory);
            let mut n = 0usize;
            while source.next_contact().is_some() {
                n += 1;
            }
            n
        });
    });
}

fn bench_trace_parse(c: &mut Criterion) {
    // The E16 ingestion path: parse + normalize an in-memory ~1 MiB Haggle
    // dump (deterministic synthetic contents, so the byte volume is fixed
    // and the mean time converts directly to MB/s).
    let config = PairwiseConfig::new(30, SimDuration::from_days(1.5))
        .mean_rate(1.0 / 3600.0)
        .mean_contact_duration(SimDuration::from_secs(120.0));
    let trace = generate_pairwise(&config, &RngFactory::new(11));
    let mut dump = Vec::new();
    write_haggle(&trace, &mut dump).expect("in-memory write");
    let mb = dump.len() as f64 / 1e6;
    println!(
        "traces/haggle_parse_1mb input: {:.2} MB, {} contacts",
        mb,
        trace.len()
    );

    c.bench_function("traces/haggle_parse_1mb", |b| {
        b.iter(|| {
            let cfg = IngestConfig::new(trace.node_count(), trace.span()).ids(IdPolicy::Dense);
            let mut reader = TraceReader::new(dump.as_slice(), HaggleFormat::new(), cfg);
            let mut n = 0usize;
            while reader.next_contact().is_some() {
                n += 1;
            }
            assert!(reader.error().is_none());
            n
        });
    });
}

fn bench_scenario_compile(c: &mut Criterion) {
    // The scenario compiler front-end + planner over the full committed
    // E1–E19 spec set: parse every embedded `.scn` and expand its matrix
    // into a campaign plan. This is pure string/struct work on the
    // harness's startup path — it must stay far below a single seed's
    // simulation cost (microseconds, not milliseconds).
    use omn_bench::scenario::{compile, parse, EMBEDDED};
    use omn_bench::CliOverrides;

    let overrides = CliOverrides::default();
    c.bench_function("scenario/compile_all_specs", |b| {
        b.iter(|| {
            let mut points = 0usize;
            for (_, text) in EMBEDDED {
                let spec = parse(text).expect("embedded spec parses");
                let plan = compile(&spec, &overrides).expect("embedded spec compiles");
                points += plan.points.len();
            }
            points
        });
    });
}

fn bench_byte_budget(c: &mut Criterion) {
    // One joint run under a biting byte budget (the E19 16 B/s rung at a
    // moderate query load): sized transfers, per-contact byte capacities
    // and the refresh transmission queues all on the hot path. Keeps the
    // link model's cost relative to the slot-counting world on the
    // trend radar.
    use omn_bench::experiments::e19_bandwidth::bandwidth_run;
    use omn_caching::policy::PolicyChoice;

    c.bench_function("link/byte_budget", |b| {
        b.iter(|| {
            bandwidth_run(
                TracePreset::InfocomLike,
                11,
                300,
                Some(2),
                16.0,
                256,
                64,
                PolicyChoice::Lru,
                None,
                6,
                12.0,
            )
        });
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    // The E18 wire path: every exchange between async node tasks encodes
    // a protocol message into a serialized wire frame and decodes it
    // on arrival, so this round trip is paid twice per message — at the
    // 10^4-node firehose scale, millions of times per simulated day.
    use omn_contacts::NodeId;
    use omn_core::protocol::{PeerSummary, ProtocolMsg};
    use omn_node::codec;
    use std::hint::black_box;

    let summary = ProtocolMsg::Summary(PeerSummary {
        node: NodeId(7),
        is_member: true,
        cache: Some(41),
        carried: Some(40),
    });
    let refresh = ProtocolMsg::Refresh { version: 42 };
    let at = omn_sim::SimTime::from_secs(86_400.0);

    c.bench_function("node/message_encode_decode", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for msg in [&summary, &refresh] {
                let bytes = codec::encode(black_box(9), NodeId(3), NodeId(7), at, msg);
                let (_, _, decoded) = codec::decode(black_box(&bytes)).expect("round trip");
                n += usize::from(decoded == *msg);
            }
            n
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_freshness_run, bench_oracle_overhead, bench_sharded_stream, bench_trace_parse, bench_scenario_compile, bench_byte_budget, bench_wire_codec
}
criterion_main!(benches);
