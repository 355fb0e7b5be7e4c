//! Golden-value tests pinning the headline numbers of E2 (analysis vs
//! simulation), E3 (freshness over time), E9 (data-access validity), E14
//! (joint-world contention), E15 (streaming scalability), E16 (real-trace
//! ingestion and calibration), E17 (chaos ladder), E18 (async-runtime
//! cross-validation) and E19 (bandwidth ladder) against committed golden
//! files, plus the streamed-vs-materialized identity check of the
//! pull-based driver.
//!
//! Each golden file's *name* comes from the committed scenario spec's
//! `[output] golden = …` field (resolved by
//! [`omn_bench::golden::golden_name`]), so the spec and the test can
//! never disagree about where a campaign's numbers are pinned.
//!
//! The pinned values are written with full bit patterns, so any change to
//! the simulation kernel, the RNG stream layout, or the schemes that
//! perturbs these runs fails loudly. To (re-)record the goldens after an
//! intentional change:
//!
//! ```text
//! OMN_BLESS_GOLDEN=1 cargo test -p omn-bench --test golden_experiments
//! ```
//!
//! When no golden file has been recorded yet the comparison is skipped
//! (with a note), but the always-on invariant assertions still run. Set
//! `OMN_REQUIRE_GOLDEN=1` (CI does) to turn a missing golden file into a
//! hard failure instead, so the suite can never pass vacuously.

use omn_bench::experiments::e09_data_access;
use omn_bench::experiments::e14_joint_world::{joint_run, BUDGET, LOADS};
use omn_bench::experiments::e15_scalability::{run_point, shards_for};
use omn_bench::experiments::e16_real_traces::{repo_root, seed_point};
use omn_bench::experiments::e17_chaos::{chaos_run, default_ladder};
use omn_bench::experiments::e18_runtime::{assert_cross, cross_point};
use omn_bench::experiments::e19_bandwidth;
use omn_bench::experiments::{config_for, trace_for};
use omn_bench::golden::{check_golden, golden_name, line};
use omn_bench::scenario::{compile_str, embedded};
use omn_bench::CliOverrides;
use omn_caching::policy::PolicyChoice;
use omn_contacts::synth::presets::TracePreset;
use omn_contacts::synth::{generate_pairwise, PairwiseConfig};
use omn_contacts::{ContactGraph, TraceSource};
use omn_core::analysis;
use omn_core::joint::ContentionPriority;
use omn_core::protocol::ProtocolMode;
use omn_core::scheme::{HierarchicalConfig, HierarchicalScheme};
use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
use omn_sim::{RngFactory, SimDuration};

#[test]
fn e2_headline_numbers() {
    // Mirrors the E2 setup: pairwise-exponential trace where the
    // analytical assumptions hold by construction.
    let factory = RngFactory::new(17);
    let trace = generate_pairwise(
        &PairwiseConfig::new(40, SimDuration::from_days(8.0))
            .mean_rate(1.0 / 7200.0)
            .rate_shape(1.5),
        &factory,
    );
    let config = FreshnessConfig {
        caching_nodes: 8,
        refresh_period: SimDuration::from_hours(12.0),
        query_count: 0,
        ..FreshnessConfig::default()
    };
    let sim = FreshnessSimulator::new(config);
    let (source, members) = sim.select_roles(&trace);
    let graph = ContactGraph::from_trace(&trace);
    let mut scheme = HierarchicalScheme::new(HierarchicalConfig {
        replication: Some(config.requirement),
        ..HierarchicalConfig::default()
    });
    let report = sim.run_with_roles(&trace, source, &members, &mut scheme, &factory);
    let summary = analysis::analyze(
        scheme.hierarchy().expect("built"),
        scheme.plans(),
        &graph,
        config.refresh_period.as_secs(),
        config.requirement,
    );

    // Always-on invariants, independent of the recorded golden.
    assert!((0.0..=1.0).contains(&report.mean_freshness));
    assert!((0.0..=1.0).contains(&report.requirement_satisfaction));
    assert!((0.0..=1.0).contains(&summary.mean_freshness));
    assert!(report.transmissions > 0);
    assert!(report.version_count > 0);

    let mut out = String::new();
    line(&mut out, "sim_mean_freshness", report.mean_freshness);
    line(
        &mut out,
        "sim_requirement_satisfaction",
        report.requirement_satisfaction,
    );
    line(&mut out, "analysis_mean_freshness", summary.mean_freshness);
    line(
        &mut out,
        "analysis_within_deadline",
        summary.mean_within_deadline,
    );
    line(&mut out, "transmissions", report.transmissions as f64);
    check_golden(&golden_name("e02"), &out);
}

#[test]
fn e3_headline_numbers() {
    // One seed of the E3 configuration: the full-size conference trace,
    // hierarchical vs epidemic vs no-refresh.
    let preset = TracePreset::InfocomLike;
    let seed = 11;
    let trace = trace_for(preset, seed);
    let config = config_for(preset);
    let factory = RngFactory::new(seed);

    let run = |choice| FreshnessSimulator::new(config).run(&trace, choice, &factory);
    let hier = run(SchemeChoice::Hierarchical);
    let epi = run(SchemeChoice::Epidemic);
    let none = run(SchemeChoice::NoRefresh);

    // Always-on invariants: refreshing must beat not refreshing.
    for r in [&hier, &epi, &none] {
        assert!((0.0..=1.0).contains(&r.mean_freshness));
        assert!((0.0..=1.0).contains(&r.requirement_satisfaction));
    }
    assert!(hier.mean_freshness > none.mean_freshness);
    assert!(epi.mean_freshness > none.mean_freshness);
    assert!(hier.transmissions > 0);

    let mut out = String::new();
    line(&mut out, "hierarchical_mean_freshness", hier.mean_freshness);
    line(
        &mut out,
        "hierarchical_satisfaction",
        hier.requirement_satisfaction,
    );
    line(
        &mut out,
        "hierarchical_transmissions",
        hier.transmissions as f64,
    );
    line(&mut out, "epidemic_mean_freshness", epi.mean_freshness);
    line(&mut out, "no_refresh_mean_freshness", none.mean_freshness);
    check_golden(&golden_name("e03"), &out);
}

#[test]
fn e9_headline_numbers() {
    // One seed of the E9 stack at the committed spec's parameters: the
    // caching layer's access numbers, the freshness layer's per-scheme
    // ratios over the caching sets it produced, and the caching layer
    // under the loss and churn scenarios of the fault sweep.
    let text = embedded("e09").expect("e09 embedded");
    let plan = compile_str(text, &CliOverrides::default()).expect("specs/e09.scn compiles");
    let params = e09_data_access::Params::from_plan(&plan);
    let seed = 11;
    let (access, per_scheme) = e09_data_access::stack_point(&params, seed);
    let [_, (_, loss), (_, churn)] = e09_data_access::fault_scenarios(&params);
    let (lossy, _, _) = e09_data_access::caching_run(&params, seed, loss);
    let (churned, _, _) = e09_data_access::caching_run(&params, seed, churn);

    // Always-on invariants, independent of the recorded golden.
    for r in [&access, &lossy, &churned] {
        assert!(r.satisfied <= r.created);
        assert!(r.local_hits <= r.satisfied);
        assert_eq!(r.delays.len(), r.satisfied);
    }
    assert!(access.transmissions > 0);
    assert_eq!(access.extras.get("failed-transmissions"), 0);
    assert_eq!(access.extras.get("down-contacts"), 0);
    assert!(lossy.extras.get("failed-transmissions") > 0);
    assert!(lossy.extras.get("failed-transmissions") <= lossy.transmissions);
    assert!(churned.extras.get("down-contacts") > 0);
    let ratios: Vec<(f64, f64)> = per_scheme
        .iter()
        .map(|r| r.expect("items have caching sets"))
        .collect();
    // Serving ignores versions, so the service ratio is scheme-independent.
    for &(fresh, service) in &ratios {
        assert!(fresh <= service);
        assert_eq!(service.to_bits(), ratios[0].1.to_bits());
    }

    let mut out = String::new();
    line(&mut out, "caching_success_ratio", access.success_ratio());
    line(&mut out, "caching_local_hits", access.local_hits as f64);
    line(
        &mut out,
        "caching_transmissions",
        access.transmissions as f64,
    );
    for (choice, (fresh, service)) in params.schemes.iter().zip(&ratios) {
        let name = choice.name().replace('-', "_");
        line(&mut out, &format!("{name}_fresh_access"), *fresh);
        line(&mut out, &format!("{name}_service"), *service);
    }
    line(&mut out, "loss_success_ratio", lossy.success_ratio());
    line(
        &mut out,
        "loss_failed_tx",
        lossy.extras.get("failed-transmissions") as f64,
    );
    line(&mut out, "churn_success_ratio", churned.success_ratio());
    line(
        &mut out,
        "churn_down_contacts",
        churned.extras.get("down-contacts") as f64,
    );
    check_golden(&golden_name("e09"), &out);
}

#[test]
fn e14_headline_numbers() {
    // One seed of the E14 configuration: the joint world under a tight
    // per-contact budget, sweeping the query load under query-first
    // priority (the contention-sensitive direction), plus a refresh-first
    // run at the heaviest load.
    let preset = TracePreset::InfocomLike;
    let seed = 11;

    let swept: Vec<_> = LOADS
        .iter()
        .map(|&load| {
            joint_run(
                preset,
                seed,
                load,
                Some(BUDGET),
                ContentionPriority::QueryFirst,
            )
        })
        .collect();
    let refresh_first = joint_run(
        preset,
        seed,
        LOADS[LOADS.len() - 1],
        Some(BUDGET),
        ContentionPriority::RefreshFirst,
    );

    // Always-on invariants, independent of the recorded golden.
    for r in swept.iter().chain([&refresh_first]) {
        assert!(
            r.max_contact_used <= BUDGET,
            "contact carried {} transfers over a budget of {BUDGET}",
            r.max_contact_used
        );
        assert!(r.access.satisfied_fresh <= r.access.satisfied);
    }
    // The monotone trade-off: under a fixed budget, raising the query load
    // consumes capacity refresh traffic needs, so mean cache freshness
    // does not increase, and neither does the fresh-access ratio between
    // the positive loads (at load 0 the ratio is trivially 0).
    for w in swept.windows(2) {
        let (lo, hi) = (&w[0], &w[1]);
        let (f_lo, f_hi) = (
            lo.mean_freshness().expect("items ran"),
            hi.mean_freshness().expect("items ran"),
        );
        assert!(
            f_hi <= f_lo,
            "freshness increased with query load: {f_lo} -> {f_hi}"
        );
        if lo.access.created > 0 {
            assert!(
                hi.fresh_access_ratio() <= lo.fresh_access_ratio(),
                "fresh-access ratio increased with query load: {} -> {}",
                lo.fresh_access_ratio(),
                hi.fresh_access_ratio()
            );
        }
    }
    // Refresh-first protects freshness relative to query-first at the same
    // load.
    let heaviest = swept.last().expect("loads");
    assert!(
        refresh_first.mean_freshness().expect("items ran")
            >= heaviest.mean_freshness().expect("items ran")
    );

    let mut out = String::new();
    for (r, &load) in swept.iter().zip(LOADS.iter()) {
        line(
            &mut out,
            &format!("query_first_load{load}_mean_freshness"),
            r.mean_freshness().expect("items ran"),
        );
        line(
            &mut out,
            &format!("query_first_load{load}_fresh_access"),
            r.fresh_access_ratio(),
        );
        line(
            &mut out,
            &format!("query_first_load{load}_deferred"),
            r.access.extras.get("budget-deferred-transmissions") as f64,
        );
    }
    line(
        &mut out,
        "refresh_first_load1200_mean_freshness",
        refresh_first.mean_freshness().expect("items ran"),
    );
    line(
        &mut out,
        "refresh_first_load1200_success",
        refresh_first.access.success_ratio(),
    );
    check_golden(&golden_name("e14"), &out);
}

#[test]
fn e15_headline_numbers() {
    // The smallest point of the E15 sweep, one seed per scheme. Wall-clock
    // is deliberately excluded: only simulation outputs are pinned.
    let nodes = 100;
    let seed = 11;
    let hier = run_point(nodes, SchemeChoice::Hierarchical, seed);
    let epi = run_point(nodes, SchemeChoice::Epidemic, seed);

    // Always-on invariants, independent of the recorded golden.
    for p in [&hier, &epi] {
        assert!((0.0..=1.0).contains(&p.report.mean_freshness));
        assert!(p.stats.contacts_total > 0);
        // The memory-model claim: the pull pipeline never holds more than
        // the generator's per-stream lookahead plus the driver's bounded
        // window — far below (and independent of) the stream volume.
        assert!(
            p.stats.peak_resident < p.stats.contacts_total,
            "peak residency {} is not below the stream volume {}",
            p.stats.peak_resident,
            p.stats.contacts_total
        );
        assert!(
            p.stats.peak_resident <= shards_for(nodes) + 8,
            "peak residency {} exceeds the O(shards) bound",
            p.stats.peak_resident
        );
    }
    // Both schemes pull the identical contact stream.
    assert_eq!(hier.stats.contacts_total, epi.stats.contacts_total);
    assert!(epi.report.transmissions > hier.report.transmissions);

    let mut out = String::new();
    line(&mut out, "hier_mean_freshness", hier.report.mean_freshness);
    line(
        &mut out,
        "hier_satisfaction",
        hier.report.requirement_satisfaction,
    );
    line(
        &mut out,
        "hier_transmissions",
        hier.report.transmissions as f64,
    );
    line(&mut out, "epi_mean_freshness", epi.report.mean_freshness);
    line(&mut out, "contacts_total", hier.stats.contacts_total as f64);
    line(&mut out, "peak_resident", hier.stats.peak_resident as f64);
    check_golden(&golden_name("e15"), &out);
}

#[test]
fn e16_headline_numbers() {
    // The vendored MIT Reality fixture, one seed: ingestion is pinned by
    // the registry checksum, so everything downstream — the fitted model,
    // the calibration check, and the freshness runs on the real and the
    // fitted-synthetic trace — is deterministic. Wall-clock throughput is
    // deliberately excluded.
    let specs = omn_traces::registry(&repo_root());
    let spec = specs
        .iter()
        .find(|s| s.name == "mit-reality")
        .expect("vendored reality fixture is registered");
    let ingested = spec.ingest().expect("fixture ingests cleanly");
    let cal = omn_traces::Calibration::fit(&ingested.trace);
    let point = seed_point(&ingested.trace, &cal, 11);

    // Always-on invariants, independent of the recorded golden.
    assert!(ingested.stats.merged > 0, "sighting runs must merge");
    assert_eq!(ingested.stats.dropped(), 0, "{:?}", ingested.stats);
    assert!(cal.mean_rate > 0.0 && cal.pair_coverage > 0.5);
    assert!(
        (0.2..=5.0).contains(&point.check.intensity_ratio),
        "calibrated intensity ratio {} is far from 1",
        point.check.intensity_ratio
    );
    for r in point.real.iter().chain(point.synth.iter()) {
        assert!((0.0..=1.0).contains(&r.mean_freshness));
        assert!((0.0..=1.0).contains(&r.requirement_satisfaction));
        assert!(r.transmissions > 0);
    }
    // Epidemic flooding is at least as fresh as the tree scheme on the
    // real trace, at higher overhead.
    assert!(point.real[1].mean_freshness >= point.real[0].mean_freshness);
    assert!(point.real[1].transmissions > point.real[0].transmissions);

    let mut out = String::new();
    line(&mut out, "real_contacts", ingested.trace.len() as f64);
    line(&mut out, "real_intensity", point.check.real_intensity);
    line(&mut out, "fitted_mean_rate", cal.mean_rate);
    line(&mut out, "fitted_rate_shape", cal.rate_shape);
    line(
        &mut out,
        "fitted_exp_ks",
        cal.ict_ks_exponential.expect("repeat pairs exist"),
    );
    line(&mut out, "synth_intensity", point.check.synth_intensity);
    line(
        &mut out,
        "ict_ks",
        point
            .check
            .ict_ks
            .expect("both traces have repeat meetings"),
    );
    line(
        &mut out,
        "real_hier_mean_freshness",
        point.real[0].mean_freshness,
    );
    line(
        &mut out,
        "real_epi_mean_freshness",
        point.real[1].mean_freshness,
    );
    line(
        &mut out,
        "real_hier_transmissions",
        point.real[0].transmissions as f64,
    );
    line(
        &mut out,
        "synth_hier_mean_freshness",
        point.synth[0].mean_freshness,
    );
    check_golden(&golden_name("e16"), &out);
}

#[test]
fn e17_headline_numbers() {
    // One seed of the E17 chaos ladder: every rung runs with the full
    // oracle suite in campaign mode, so the pinned numbers double as an
    // invariant audit — any change to the fault streams, the retry
    // policy's deterministic jitter, or the crash-recovery path perturbs
    // these runs and fails loudly.
    let preset = TracePreset::InfocomLike;
    let seed = 11;
    let runs: Vec<_> = default_ladder()
        .into_iter()
        .map(|rung| {
            let r = chaos_run(preset, seed, &rung);
            (rung, r)
        })
        .collect();

    // Always-on invariants, independent of the recorded golden.
    for (level, r) in &runs {
        assert!((0.0..=1.0).contains(&r.mean_freshness));
        assert!(
            r.oracle.is_clean(),
            "invariant violations at rung {}: {:?}",
            level.name,
            r.oracle
        );
        // Every corrupted transfer is a stale replay the receiver must
        // reject — none may ever be absorbed.
        assert_eq!(
            r.extras.get("corrupted-transfers"),
            r.extras.get("corrupted-rejections"),
            "a stale replay was absorbed at rung {}",
            level.name
        );
    }
    // The single-seed envelope endpoints: extreme chaos must not beat the
    // fault-free baseline (per-rung monotonicity is asserted over seed
    // means inside `e17_chaos::run`, where the noise averages out).
    let zero = &runs.first().expect("ladder is non-empty").1;
    let extreme = &runs.last().expect("ladder is non-empty").1;
    assert!(extreme.mean_freshness <= zero.mean_freshness);
    // The adversarial rungs actually fired all three fault kinds.
    assert!(extreme.extras.get("corrupted-transfers") > 0);
    assert!(extreme.extras.get("crash-rejoins") > 0);
    assert!(extreme.extras.get("rejoin-events") > extreme.extras.get("crash-rejoins"));

    let mut out = String::new();
    for (level, r) in &runs {
        line(
            &mut out,
            &format!("{}_mean_freshness", level.name),
            r.mean_freshness,
        );
        line(
            &mut out,
            &format!("{}_corrupted_rejections", level.name),
            r.extras.get("corrupted-rejections") as f64,
        );
        line(
            &mut out,
            &format!("{}_crash_rejoins", level.name),
            r.extras.get("crash-rejoins") as f64,
        );
        line(
            &mut out,
            &format!("{}_oracle_violations", level.name),
            r.oracle.total() as f64,
        );
    }
    check_golden(&golden_name("e17"), &out);
}

#[test]
fn e18_headline_numbers() {
    // One seed of the E18 cross-validation: the async node runtime in
    // lockstep mode against the DES, for both locally-decidable protocol
    // modes. The pinned values are the *runtime's* numbers; the always-on
    // assertion is that they coincide exactly with the DES, so the golden
    // doubles as a pin on both executions. Wall-clock and the firehose
    // throughput sweep are deliberately excluded — only deterministic
    // observables are recorded.
    let seed = 11;
    let mut out = String::new();
    for (mode, name) in [
        (ProtocolMode::HierTree, "tree"),
        (ProtocolMode::Epidemic, "epidemic"),
    ] {
        let point = cross_point(seed, mode);
        assert_cross(&point, &format!("golden seed {seed} {name}"));
        line(
            &mut out,
            &format!("{name}_mean_freshness"),
            point.rt.mean_freshness,
        );
        line(
            &mut out,
            &format!("{name}_transmissions"),
            point.rt.transmissions as f64,
        );
        line(
            &mut out,
            &format!("{name}_replicas"),
            point.rt.replicas as f64,
        );
        line(
            &mut out,
            &format!("{name}_frames_received"),
            point.rt.messages_received as f64,
        );
        line(
            &mut out,
            &format!("{name}_version_count"),
            point.rt.version_count as f64,
        );
    }
    check_golden(&golden_name("e18"), &out);
}

#[test]
fn e19_headline_numbers() {
    // One seed of the E19 bandwidth ladder under LRU at the E14 cache
    // capacity, plus one EWMA point under eviction pressure. The
    // always-on assertions are the campaign's two contracts: the
    // unlimited rung is bit-identical to E14's slot-counting run (no
    // byte ever denied, no frame ever queued, no extra randomness), and
    // every finite rung respects its byte capacities with a clean
    // bandwidth oracle.
    let preset = TracePreset::InfocomLike;
    let seed = 11;
    let run = |bw: f64, policy, capacity| {
        e19_bandwidth::bandwidth_run(
            preset,
            seed,
            e19_bandwidth::LOAD,
            Some(e19_bandwidth::BUDGET),
            bw,
            e19_bandwidth::REFRESH_BYTES,
            e19_bandwidth::QUEUE_DEPTH,
            policy,
            capacity,
            6,
            12.0,
        )
    };

    let ladder: Vec<_> = e19_bandwidth::BANDWIDTHS
        .iter()
        .map(|&bw| (bw, run(bw, PolicyChoice::Lru, None)))
        .collect();

    // Contract 1: the unlimited rung reproduces slot counting exactly.
    let slot_only = joint_run(
        preset,
        seed,
        e19_bandwidth::LOAD,
        Some(e19_bandwidth::BUDGET),
        ContentionPriority::QueryFirst,
    );
    let (_, unlimited) = ladder.last().expect("ladder is non-empty");
    assert_eq!(
        unlimited.mean_freshness().expect("items ran").to_bits(),
        slot_only.mean_freshness().expect("items ran").to_bits(),
        "the unlimited rung diverged from E14's slot counting"
    );
    assert_eq!(
        unlimited.access.success_ratio().to_bits(),
        slot_only.access.success_ratio().to_bits()
    );
    assert_eq!(
        unlimited.access.extras.get("byte-deferred-transmissions"),
        0,
        "an unlimited link byte-denied a hop"
    );
    let stats = unlimited.link.expect("link model attached");
    assert_eq!(stats.enqueued_msgs, 0, "an unlimited link queued a frame");

    // Contract 2: every rung is oracle-clean, and starving the link can
    // only hurt: the bottom rung must not beat the unlimited one.
    for (bw, r) in &ladder {
        assert!(
            r.oracle.is_clean(),
            "oracle violations at {bw} B/s: {:?}",
            r.oracle
        );
        assert!(r.access.satisfied_fresh <= r.access.satisfied);
    }
    let (_, starved) = ladder.first().expect("ladder is non-empty");
    assert!(
        starved.mean_freshness().expect("items ran")
            <= unlimited.mean_freshness().expect("items ran")
    );
    assert!(starved.access.success_ratio() <= unlimited.access.success_ratio());

    let ewma = run(
        e19_bandwidth::BANDWIDTHS[2],
        PolicyChoice::Ewma,
        Some(e19_bandwidth::POLICY_CAPACITY),
    );
    assert!(ewma.oracle.is_clean());

    let mut out = String::new();
    for (bw, r) in &ladder {
        let label = if *bw == 0.0 {
            "unlimited".to_owned()
        } else {
            format!("bw{bw}")
        };
        line(
            &mut out,
            &format!("{label}_mean_freshness"),
            r.mean_freshness().expect("items ran"),
        );
        line(
            &mut out,
            &format!("{label}_success"),
            r.access.success_ratio(),
        );
        line(
            &mut out,
            &format!("{label}_byte_deferred"),
            r.access.extras.get("byte-deferred-transmissions") as f64,
        );
        let stats = r.link.expect("link model attached");
        line(
            &mut out,
            &format!("{label}_queued"),
            stats.enqueued_msgs as f64,
        );
        line(
            &mut out,
            &format!("{label}_peak_bytes"),
            r.max_contact_bytes as f64,
        );
    }
    line(
        &mut out,
        "ewma_capacity2_mean_freshness",
        ewma.mean_freshness().expect("items ran"),
    );
    line(
        &mut out,
        "ewma_capacity2_success",
        ewma.access.success_ratio(),
    );
    check_golden(&golden_name("e19"), &out);
}

#[test]
fn streamed_run_matches_materialized_run() {
    // The tentpole identity: driving a simulation from a streamed
    // `TraceSource` must be bit-identical to the materialized
    // `run_with_roles` path on the same trace — same roles, same scheme,
    // same RNG factory.
    let factory = RngFactory::new(17);
    let trace = generate_pairwise(
        &PairwiseConfig::new(40, SimDuration::from_days(8.0))
            .mean_rate(1.0 / 7200.0)
            .rate_shape(1.5),
        &factory,
    );
    let config = FreshnessConfig {
        caching_nodes: 8,
        refresh_period: SimDuration::from_hours(12.0),
        query_count: 120,
        ..FreshnessConfig::default()
    };
    let sim = FreshnessSimulator::new(config);
    let (source, members) = sim.select_roles(&trace);
    let oracle = ContactGraph::from_trace(&trace);

    let mut scheme_a = sim.make_scheme(SchemeChoice::Hierarchical);
    let materialized = sim.run_with_roles(&trace, source, &members, scheme_a.as_mut(), &factory);
    let mut scheme_b = sim.make_scheme(SchemeChoice::Hierarchical);
    let (streamed, stats) = sim.run_streamed(
        TraceSource::new(&trace),
        &oracle,
        source,
        &members,
        scheme_b.as_mut(),
        &factory,
    );

    assert_eq!(stats.contacts_total, trace.len());
    assert_eq!(
        materialized.mean_freshness.to_bits(),
        streamed.mean_freshness.to_bits()
    );
    assert_eq!(
        materialized.requirement_satisfaction.to_bits(),
        streamed.requirement_satisfaction.to_bits()
    );
    assert_eq!(
        materialized.mean_availability.to_bits(),
        streamed.mean_availability.to_bits()
    );
    assert_eq!(materialized.transmissions, streamed.transmissions);
    assert_eq!(materialized.replicas, streamed.replicas);
    assert_eq!(materialized.version_count, streamed.version_count);
    assert_eq!(materialized.queries_served, streamed.queries_served);
    assert_eq!(materialized.queries_fresh, streamed.queries_fresh);
    assert_eq!(
        materialized.per_node_transmissions,
        streamed.per_node_transmissions
    );
}
