//! E3 — Cache freshness ratio over time, per scheme and trace.

use omn_contacts::synth::presets::TracePreset;
use omn_core::sim::{FreshnessSimulator, SchemeChoice};
use omn_sim::RngFactory;

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, per_seed, window_mean, Table};

const POINTS: usize = 12;

/// Parameters of E3: presets × schemes time-series, seed-averaged over
/// `points` consecutive windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace presets, one series block each.
    pub presets: Vec<TracePreset>,
    /// Schemes, one series column each.
    pub schemes: Vec<SchemeChoice>,
    /// Number of time windows the span is split into.
    pub points: usize,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes.
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        Params {
            presets: plan.presets(),
            schemes: plan.schemes_or(&SchemeChoice::ALL),
            points: plan.scalar_usize_or("points", POINTS),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// Runs E3: prints, for each trace, the freshness-ratio time series (one
/// column per scheme), seed-averaged over consecutive time windows
/// (window averages rather than instants, so the series does not alias
/// with version-birth times).
pub fn run(plan: &CampaignPlan) {
    let params = &Params::from_plan(plan);
    banner("E3", "cache freshness ratio over time");
    let seeds = &params.seeds;
    let schemes = &params.schemes;
    let points = params.points;
    for &preset in &params.presets {
        println!("\ntrace: {preset}");
        let config = config_for(preset);
        let sim = FreshnessSimulator::new(config);

        // One independent (span, per-scheme window means) result per seed.
        let per = per_seed(seeds, |seed| {
            let trace = trace_for(preset, seed);
            let span_secs = trace.span().as_secs();
            let mut windows = vec![vec![0.0f64; points]; schemes.len()];
            for (si, &choice) in schemes.iter().enumerate() {
                let report = sim.run(&trace, choice, &RngFactory::new(seed));
                for (pi, slot) in windows[si].iter_mut().enumerate() {
                    let a = span_secs * pi as f64 / points as f64;
                    let b = span_secs * (pi + 1) as f64 / points as f64;
                    *slot = window_mean(&report.freshness_timeline, a, b);
                }
            }
            (span_secs, windows)
        });

        // series[scheme][window], folded in seed order for determinism.
        let mut series = vec![vec![0.0f64; points]; schemes.len()];
        let mut span_secs = 0.0;
        for (span, windows) in per {
            span_secs = span;
            for (si, scheme_windows) in windows.iter().enumerate() {
                for (pi, w) in scheme_windows.iter().enumerate() {
                    series[si][pi] += w / seeds.len() as f64;
                }
            }
        }

        let mut headers = vec!["window (h)".to_owned()];
        headers.extend(schemes.iter().map(|c| c.name().to_owned()));
        let mut table = Table::new(headers);
        for pi in 0..points {
            let a = span_secs * pi as f64 / points as f64 / 3600.0;
            let b = span_secs * (pi + 1) as f64 / points as f64 / 3600.0;
            let mut row = vec![format!("{a:.0}-{b:.0}")];
            row.extend(series.iter().map(|s| format!("{:.3}", s[pi])));
            table.row(row);
        }
        table.print();
    }
    println!(
        "\n(expected shape: epidemic ≳ hierarchical > hier-no-repl > \
         random-tree ≈ source-only ≫ no-refresh, which decays to ~0)"
    );
}
