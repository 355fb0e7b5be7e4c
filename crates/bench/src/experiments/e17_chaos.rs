//! E17 — chaos campaign: the degradation envelope under adversarial and
//! crash-recovery faults (extension beyond the reconstructed evaluation).
//!
//! One sweep over the conference trace climbs a ladder of chaos
//! intensities from fault-free to extreme, at every rung combining all
//! three adversarial fault kinds of the fault layer
//! ([`omn_contacts::faults::FaultPlan`]):
//!
//! * **stale-version corruption** — transfers deliver a replayed stale
//!   version the receiver's monotonicity check must reject,
//! * **crash with state loss** — nodes vanish and rejoin amnesiac, forcing
//!   re-attachment from scratch, and
//! * **correlated regional outages** — whole id-blocks of nodes go down
//!   together.
//!
//! The ladder itself is a scenario-compiler concept: each rung is a
//! [`FaultRung`] straight out of a spec's `[faults]` section (the default
//! ladder is [`default_ladder`], committed as `specs/e17.scn`).
//!
//! Every run executes with the full invariant-oracle suite in campaign
//! mode and the failure-aware hierarchy (exponential-backoff retry with
//! timeout escalation, failure detector with re-parenting). The campaign
//! asserts the degradation envelope: mean freshness declines monotonically
//! as chaos intensifies, and not a single protocol invariant — version
//! monotonicity, tree structure, budget accounting, timer liveness — is
//! violated at any rung.

use omn_contacts::faults::{DowntimeConfig, FaultConfig, RegionalOutageConfig};
use omn_contacts::synth::presets::TracePreset;
use omn_contacts::NodeId;
use omn_core::scheme::{ResilienceConfig, RetryPolicy};
use omn_core::sim::{FreshnessReport, FreshnessSimulator, SchemeChoice};
use omn_sim::{OracleMode, OracleReport, RngFactory, SimDuration};

use crate::experiments::{config_for, trace_for};
use crate::scenario::{CampaignPlan, FaultRung, RetrySpec};
use crate::{banner, fmt_ci, fmt_ci_count, per_seed, Table};

/// The default chaos ladder, fault-free to extreme. The zero rung
/// configures no fault at all (the plan is inert), so it doubles as the
/// campaign's baseline. `specs/e17.scn` commits the same ladder in spec
/// form.
#[must_use]
pub fn default_ladder() -> Vec<FaultRung> {
    let rung = |name: &str, corruption: f64, crash_fraction: f64, outages: u32| FaultRung {
        name: name.to_owned(),
        corruption,
        crash_fraction,
        outages,
    };
    vec![
        rung("zero", 0.0, 0.0, 0),
        rung("mild", 0.10, 0.15, 1),
        rung("moderate", 0.25, 0.35, 3),
        rung("severe", 0.45, 0.60, 6),
        rung("extreme", 0.70, 0.85, 10),
    ]
}

/// Parameters of E17: the fault ladder and the retry policy climbing it.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the campaign runs on.
    pub preset: TracePreset,
    /// The chaos ladder, in climbing order (the envelope assertion reads
    /// the rungs as monotonically intensifying).
    pub ladder: Vec<FaultRung>,
    /// Retry policy of the failure-aware hierarchy.
    pub retry: RetrySpec,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes (an empty
    /// `[faults]` section falls back to the default ladder).
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        let ladder = if plan.faults().is_empty() {
            default_ladder()
        } else {
            plan.faults().to_vec()
        };
        Params {
            preset: plan.preset_one(),
            ladder,
            retry: plan.retry().unwrap_or(RetrySpec::Exponential {
                attempts: 3,
                base_hours: 1.0,
            }),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// The fault configuration of one rung. Zero-intensity kinds stay `None`
/// so the zero rung builds a fully inert plan.
fn fault_config(rung: &FaultRung, source: NodeId) -> FaultConfig {
    FaultConfig {
        corruption: rung.corruption,
        crashes: (rung.crash_fraction > 0.0).then_some(DowntimeConfig {
            node_fraction: rung.crash_fraction,
            // The data source never crashes: graceful degradation when
            // members fail is the point, a dead source stalls everything.
            mean_uptime: SimDuration::from_hours(18.0),
            mean_downtime: SimDuration::from_hours(6.0),
            exempt: Some(source),
        }),
        regional: (rung.outages > 0).then_some(RegionalOutageConfig {
            regions: 4,
            outages: rung.outages,
            mean_duration: SimDuration::from_hours(6.0),
        }),
        ..FaultConfig::default()
    }
}

/// One chaos run with an explicit retry policy.
#[must_use]
pub fn chaos_run_with(
    preset: TracePreset,
    seed: u64,
    rung: &FaultRung,
    retry: RetryPolicy,
) -> FreshnessReport {
    let trace = trace_for(preset, seed);
    let factory = RngFactory::new(seed);
    let mut base = config_for(preset);
    base.rebuild_every = Some(SimDuration::from_hours(12.0));
    base.reparent = true;
    // Campaign mode explicitly (not from the environment): the whole point
    // of E17 is asserting on the accumulated oracle report, which `off`
    // would silence. Oracles are pure observers, so the mode never
    // perturbs the simulated outcome.
    base.oracle_mode = OracleMode::Campaign;
    let (source, _) = FreshnessSimulator::new(base).select_roles(&trace);
    base.faults = Some(fault_config(rung, source));
    base.resilience = Some(ResilienceConfig {
        retry,
        ..ResilienceConfig::default()
    });
    FreshnessSimulator::new(base).run(&trace, SchemeChoice::Hierarchical, &factory)
}

/// One chaos run of the E17 configuration: conference trace, failure-aware
/// hierarchy (exponential-backoff retry with escalation, failure detector,
/// periodic rebuild), all invariant oracles in campaign mode, and the
/// given rung's fault mix.
#[must_use]
pub fn chaos_run(preset: TracePreset, seed: u64, rung: &FaultRung) -> FreshnessReport {
    chaos_run_with(
        preset,
        seed,
        rung,
        RetryPolicy::exponential(3, SimDuration::from_hours(1.0)),
    )
}

/// Runs E17 on the conference trace: the chaos-intensity ladder, with the
/// degradation-envelope assertions (monotone freshness decline over the
/// seed means, zero invariant violations anywhere).
///
/// # Panics
///
/// Panics if any run records an invariant violation, or if the seed-mean
/// freshness ever *rises* from one rung to the next.
pub fn run(plan: &CampaignPlan) {
    let params = &Params::from_plan(plan);
    banner("E17", "chaos campaign: degradation envelope (extension)");
    let preset = params.preset;
    println!(
        "trace: {preset}; corruption + crash-with-state-loss + regional outages,\n\
         failure-aware hierarchy (exponential backoff, escalation, re-parenting),\n\
         invariant oracles in campaign mode\n"
    );
    let mut table = Table::new([
        "intensity",
        "freshness",
        "corrupted tx",
        "rejected replays",
        "crash rejoins",
        "reattaches",
        "escalations",
        "violations",
    ]);

    let seeds = &params.seeds;
    let retry = params.retry.to_policy();
    let mut envelope: Vec<f64> = Vec::new();
    let mut merged = OracleReport::new();
    let mut runs = 0usize;
    for rung in &params.ladder {
        let mut freshness = Vec::new();
        let mut corrupted = Vec::new();
        let mut rejected = Vec::new();
        let mut rejoins = Vec::new();
        let mut reattaches = Vec::new();
        let mut escalations = Vec::new();
        let per = per_seed(seeds, |seed| {
            let r = chaos_run_with(preset, seed, rung, retry);
            (
                r.mean_freshness,
                r.extras.get("corrupted-transfers") as f64,
                r.extras.get("corrupted-rejections") as f64,
                r.extras.get("crash-rejoins") as f64,
                r.extras.get("crash-reattaches") as f64,
                r.extras.get("retry-escalations") as f64,
                r.oracle,
            )
        });
        for (f, ct, cr, rj, ra, esc, oracle) in per {
            freshness.push(f);
            corrupted.push(ct);
            rejected.push(cr);
            rejoins.push(rj);
            reattaches.push(ra);
            escalations.push(esc);
            merged.merge(&oracle);
            runs += 1;
        }
        envelope.push(freshness.iter().sum::<f64>() / freshness.len() as f64);
        table.row([
            rung.name.clone(),
            fmt_ci(&freshness, 3),
            fmt_ci_count(&corrupted),
            fmt_ci_count(&rejected),
            fmt_ci_count(&rejoins),
            fmt_ci_count(&reattaches),
            fmt_ci_count(&escalations),
            merged.total().to_string(),
        ]);
    }
    table.print();

    assert!(
        merged.is_clean(),
        "invariant violations under chaos: {merged:?}"
    );
    for (w, pair) in envelope.windows(2).enumerate() {
        assert!(
            pair[1] <= pair[0] + 1e-9,
            "freshness rose from {} to {} between rungs {} and {}",
            pair[0],
            pair[1],
            params.ladder[w].name,
            params.ladder[w + 1].name
        );
    }
    println!(
        "\n(degradation envelope held: mean freshness declined monotonically \
         {:.3} -> {:.3} across the ladder, with zero invariant violations \
         over {runs} oracle-audited runs — every stale replay was rejected, \
         every amnesiac rejoiner re-attached, and the tree stayed a bounded-\
         fanout forest throughout)",
        envelope.first().copied().unwrap_or(0.0),
        envelope.last().copied().unwrap_or(0.0),
    );
}
