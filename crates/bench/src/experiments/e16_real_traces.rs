//! E16 — Real traces: ingest the registered datasets (MIT Reality /
//! Haggle-Infocom'06 dumps, or their vendored fixture excerpts), fit the
//! pairwise-exponential model, check the calibrated synthetic stand-in
//! against the real trace (the E1 statistics), and run the freshness
//! campaign on both.
//!
//! Modes:
//!
//! * default — every dataset the built-in registry finds (full files under
//!   `datasets/`, else the fixture excerpts under `tests/data/`; with
//!   neither present the calibrated synthetic presets stand in);
//! * `--trace path [--trace-format name]` — one user-supplied dataset
//!   file, its population and span discovered by a probing pass.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use omn_contacts::synth::generate_pairwise;
use omn_contacts::synth::presets::TracePreset;
use omn_contacts::ContactTrace;
use omn_core::freshness::FreshnessRequirement;
use omn_core::sim::{FreshnessConfig, FreshnessReport, FreshnessSimulator, SchemeChoice};
use omn_sim::SimDuration;
use omn_sim::{RngFactory, SimTime};
use omn_traces::{
    calibration_check, ingest_file, probe, registry, Calibration, CalibrationCheck, IngestConfig,
    Ingested, RecordPolicy, TraceFormat,
};

use crate::experiments::default_config;
use crate::scenario::{CampaignPlan, WorldSpec};
use crate::{banner, fmt_ci, per_seed, Table, TraceOverride, SEEDS};

/// The schemes compared on every ingested trace.
pub const SCHEMES: [SchemeChoice; 2] = [SchemeChoice::Hierarchical, SchemeChoice::Epidemic];

/// Parameters of E16: which dataset(s) to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// One user-supplied dataset file; `None` runs the built-in registry.
    pub trace: Option<TraceOverride>,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes (a `[world]` of
    /// `kind = trace` selects one dataset file; `kind = registry` runs
    /// the built-in registry).
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        let trace = match &plan.spec.world {
            WorldSpec::TraceFile { path, format } => Some(TraceOverride {
                path: path.clone(),
                format: format.clone(),
            }),
            _ => None,
        };
        Params {
            trace,
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// The repository root the built-in registry is rooted at (fixtures are
/// vendored relative to it).
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The freshness configuration for an ingested trace, derived from the
/// trace itself so short excerpts and multi-month dumps both exercise
/// several refresh rounds: the refresh period is one eighth of the span
/// (clamped to [1 h, 72 h]) and the caching set is a third of the
/// population (clamped to [2, 8]).
#[must_use]
pub fn campaign_config(trace: &ContactTrace) -> FreshnessConfig {
    let period =
        SimDuration::from_secs((trace.span().as_secs() / 8.0).clamp(3600.0, 72.0 * 3600.0));
    FreshnessConfig {
        caching_nodes: (trace.node_count() / 3).clamp(2, 8),
        refresh_period: period,
        requirement: FreshnessRequirement::new(0.9, period),
        ..default_config()
    }
}

/// One seed's worth of the campaign: the calibration check of the fitted
/// synthetic stand-in, and the freshness reports of both schemes on both
/// worlds.
#[derive(Debug)]
pub struct SeedPoint {
    /// Real-vs-synthetic aggregate statistics.
    pub check: CalibrationCheck,
    /// Freshness reports on the real trace, in [`SCHEMES`] order.
    pub real: [FreshnessReport; 2],
    /// Freshness reports on the fitted synthetic trace, in [`SCHEMES`]
    /// order.
    pub synth: [FreshnessReport; 2],
}

/// Runs one seed: generates the fitted synthetic trace, compares its
/// aggregate statistics against the real one, and runs both schemes on
/// both traces under the same [`campaign_config`].
#[must_use]
pub fn seed_point(real: &ContactTrace, cal: &Calibration, seed: u64) -> SeedPoint {
    let factory = RngFactory::new(seed);
    let synth = generate_pairwise(&cal.preset(), &factory);
    let check = calibration_check(real, &synth);
    let sim = FreshnessSimulator::new(campaign_config(real));
    let run = |trace: &ContactTrace, choice| sim.run(trace, choice, &factory);
    SeedPoint {
        check,
        real: SCHEMES.map(|c| run(real, c)),
        synth: SCHEMES.map(|c| run(&synth, c)),
    }
}

/// Resolves the dump format of a `--trace` file: an explicit
/// `--trace-format` name, or sniffing the file's first lines.
///
/// # Errors
///
/// Returns a usage message for an unknown format name, an unrecognizable
/// file, or an unreadable one.
pub fn resolve_format(path: &Path, name: Option<&str>) -> Result<TraceFormat, String> {
    match name {
        Some(n) => TraceFormat::from_name(n).ok_or_else(|| {
            format!(
                "unknown --trace-format `{n}` (expected one of: {})",
                TraceFormat::ALL.map(TraceFormat::name).join(", ")
            )
        }),
        None => match TraceFormat::sniff(path) {
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err(format!(
                "{}: could not recognize the trace format; pass --trace-format (one of: {})",
                path.display(),
                TraceFormat::ALL.map(TraceFormat::name).join(", ")
            )),
            Err(e) => Err(format!("{}: {e}", path.display())),
        },
    }
}

/// Why an ingested trace is not scored: with no contacts, the calibration
/// ratios divide by zero and every freshness measure reads a perfect 1.
const NO_CONTACTS: &str = "no contacts to score";

/// Runs E16: the one `--trace`/spec-selected dataset, or every registry
/// dataset.
pub fn run(plan: &CampaignPlan) {
    let params = &Params::from_plan(plan);
    banner("E16", "real traces: ingestion, calibration, freshness");
    match &params.trace {
        Some(over) => run_override(over, &params.seeds, plan.no_wall),
        None => run_registry(&params.seeds, plan.no_wall),
    }
}

fn run_registry(seeds: &[u64], no_wall: bool) {
    let specs = registry(&repo_root());
    if specs.is_empty() {
        println!(
            "no dataset files present (neither datasets/ nor tests/data/); \
             running the calibrated synthetic presets instead\n\
             (see the README for how to obtain the public datasets)"
        );
        for preset in TracePreset::ALL {
            println!("\nsynthetic stand-in: {preset}");
            campaign(&preset.generate_small(&RngFactory::new(SEEDS[0])), seeds);
        }
        return;
    }
    for spec in &specs {
        println!(
            "\ndataset: {} ({})",
            spec.name,
            shown_path(&spec.path, no_wall)
        );
        let start = Instant::now();
        match spec.ingest() {
            Ok(ingested) => {
                report_ingestion(&ingested, (!no_wall).then(|| start.elapsed()));
                if ingested.trace.is_empty() {
                    println!("  {NO_CONTACTS}; skipping");
                } else {
                    campaign(&ingested.trace, seeds);
                }
            }
            Err(e) => println!("  ingest failed: {e}; skipping"),
        }
    }
}

fn run_override(over: &TraceOverride, seeds: &[u64], no_wall: bool) {
    let path = Path::new(&over.path);
    let format = resolve_format(path, over.format.as_deref()).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    let fail = |stage: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("error: {}: {stage}: {e}", path.display());
        std::process::exit(2);
    };
    println!(
        "\ndataset: --trace override ({}, format {format})",
        shown_path(path, no_wall)
    );
    let start = Instant::now();
    let found = probe(path, format).unwrap_or_else(|e| fail("probe", &e));
    let span = if found.span.as_secs() > 0.0 {
        found.span
    } else {
        SimTime::from_secs(1.0)
    };
    let config = IngestConfig::new(found.nodes.max(2), span).policy(RecordPolicy::Lenient);
    let ingested = ingest_file(path, format, config).unwrap_or_else(|e| fail("ingest", &e));
    report_ingestion(&ingested, (!no_wall).then(|| start.elapsed()));
    if ingested.trace.is_empty() {
        fail("ingest", &NO_CONTACTS);
    }
    campaign(&ingested.trace, seeds);
}

/// How a dataset path is printed: as given, or, for an absolute path
/// under `--no-wall`, relative to the repository root (else just its file
/// name), so the table does not depend on where the checkout lives.
fn shown_path(path: &Path, no_wall: bool) -> String {
    if !no_wall || path.is_relative() {
        return path.display().to_string();
    }
    path.strip_prefix(repo_root())
        .ok()
        .or_else(|| path.file_name().map(Path::new))
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Prints the ingestion summary: volume, normalization counters, checksum,
/// and, given the parse's wall-clock time (`None` under `--no-wall`),
/// parse throughput.
fn report_ingestion(ingested: &Ingested, wall: Option<Duration>) {
    let s = ingested.stats;
    println!(
        "  ingested: {} contacts from {} records ({} devices, span {:.2} days, {} bytes, \
         fnv1a64 {:#018x})",
        ingested.trace.len(),
        s.records,
        ingested.nodes_seen,
        ingested.trace.span().as_days(),
        ingested.bytes,
        ingested.checksum,
    );
    println!(
        "  normalization: {} merged, {} dropped ({} malformed, {} out-of-order, {} unmapped, \
         {} past-span), {} clamped",
        s.merged,
        s.dropped(),
        s.malformed,
        s.out_of_order,
        s.unmapped,
        s.past_span,
        s.clamped,
    );
    if let Some(wall) = wall {
        let wall = wall.as_secs_f64();
        let mb_s = ingested.bytes as f64 / 1e6 / wall.max(1e-9);
        println!("  parse throughput: {mb_s:.1} MB/s ({wall:.4} s wall)");
    }
}

/// Fits the model, prints the calibration check, and runs the freshness
/// campaign on the real trace and its fitted synthetic stand-in.
fn campaign(real: &ContactTrace, seeds: &[u64]) {
    let cal = Calibration::fit(real);
    println!(
        "  fitted pairwise model: mean rate {:.3e} /s/pair, Gamma shape {:.2}, \
         {:.0}% of pairs observed",
        cal.mean_rate,
        cal.rate_shape,
        cal.pair_coverage * 100.0,
    );
    match cal.ict_ks_exponential {
        Some(ks) => println!(
            "  exponential goodness-of-fit: KS = {ks:.3} over {} normalized inter-contact gaps",
            cal.ict_samples
        ),
        None => println!("  exponential goodness-of-fit: n/a (no pair met three times)"),
    }

    let points = per_seed(seeds, |seed| seed_point(real, &cal, seed));

    let check0 = points[0].check;
    let synth_int: Vec<f64> = points.iter().map(|p| p.check.synth_intensity).collect();
    let ratio: Vec<f64> = points.iter().map(|p| p.check.intensity_ratio).collect();
    let synth_ict: Vec<f64> = points
        .iter()
        .filter_map(|p| p.check.synth_mean_ict)
        .map(|s| s / 3600.0)
        .collect();
    let ks: Vec<f64> = points.iter().filter_map(|p| p.check.ict_ks).collect();
    let dash = "—".to_owned();

    println!("\n  calibration check (E1 statistics, real vs fitted synthetic):");
    let mut table = Table::new(["statistic", "real", "fitted synthetic"]);
    table.row([
        "contacts/node/day".to_owned(),
        format!("{:.2}", check0.real_intensity),
        fmt_ci(&synth_int, 2),
    ]);
    table.row([
        "mean inter-contact (h)".to_owned(),
        check0
            .real_mean_ict
            .map_or_else(|| dash.clone(), |s| format!("{:.2}", s / 3600.0)),
        if synth_ict.is_empty() {
            dash.clone()
        } else {
            fmt_ci(&synth_ict, 2)
        },
    ]);
    table.row([
        "intensity ratio (synth/real)".to_owned(),
        dash.clone(),
        fmt_ci(&ratio, 2),
    ]);
    table.row([
        "inter-contact CDF distance (KS)".to_owned(),
        dash.clone(),
        if ks.is_empty() {
            dash.clone()
        } else {
            fmt_ci(&ks, 3)
        },
    ]);
    table.print();

    println!("\n  freshness campaign (same configuration on both worlds):");
    let mut table = Table::new([
        "world",
        "scheme",
        "mean freshness",
        "satisfaction",
        "tx/version/member",
    ]);
    for (world, pick) in [("real", 0usize), ("fitted synthetic", 1usize)] {
        for (si, choice) in SCHEMES.iter().enumerate() {
            let reports: Vec<&FreshnessReport> = points
                .iter()
                .map(|p| if pick == 0 { &p.real[si] } else { &p.synth[si] })
                .collect();
            let per: Vec<f64> = reports
                .iter()
                .map(|r| r.overhead_per_version_per_member())
                .collect();
            table.row([
                world.to_owned(),
                choice.name().to_owned(),
                scored_cell(&reports, |r| r.mean_freshness),
                scored_cell(&reports, |r| r.requirement_satisfaction),
                fmt_ci(&per, 2),
            ]);
        }
    }
    table.print();
    println!(
        "\n  (expected shape: the fitted synthetic stand-in reproduces the \
         real trace's contact intensity to within a few tens of percent, and \
         the scheme ordering — epidemic freshest, hierarchical close behind \
         at lower overhead — carries over from real to synthetic; a large \
         inter-contact KS distance flags structure, e.g. diurnal cycles, \
         that the pairwise-exponential model cannot express)"
    );
}

/// A freshness-measure cell over one world's per-seed reports: `n/a` when
/// a trace is shorter than one refresh period, so only the initial version
/// exists and the measure would score that version alone (as E15's sweep
/// does).
fn scored_cell(reports: &[&FreshnessReport], measure: fn(&FreshnessReport) -> f64) -> String {
    if reports.iter().any(|r| r.version_count <= 1) {
        return "n/a".to_owned();
    }
    let values: Vec<f64> = reports.iter().map(|r| measure(r)).collect();
    fmt_ci(&values, 3)
}
