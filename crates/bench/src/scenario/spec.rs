//! The scenario front-end: a typed [`ScenarioSpec`] parsed from the small
//! declarative `.scn` format committed under `specs/`.
//!
//! The format is line-oriented:
//!
//! ```text
//! # full-line comments start with `#`
//! scenario e17                     # header: the scenario name
//! title = chaos campaign           # top-level key/value pairs
//! campaign = chaos                 # which executor driver runs the plan
//!
//! [world]                          # sections group related keys
//! kind = preset
//! presets = infocom-like
//!
//! [faults]
//! rung = mild 0.10 0.15 1          # repeated keys build ladders
//! ```
//!
//! Every diagnostic is a [`ScenarioError`] carrying the 1-based line
//! number and the offending field, so a broken spec reads like a compiler
//! error (`specs/e17.scn:12: [faults] rung: expected a number, got
//! `much``). [`ScenarioSpec::render`] emits the canonical form of a spec;
//! parse → render → parse is idempotent (pinned by a proptest).

use std::fmt;

use omn_core::joint::ContentionPriority;
use omn_core::sim::SchemeChoice;

use omn_contacts::synth::presets::TracePreset;

/// A parse or validation diagnostic, positioned at a line and field of
/// the spec text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number of the offending text (0 = whole file).
    pub line: usize,
    /// The section-qualified field the diagnostic is about (e.g.
    /// `[world] kind`), or a bare marker like `scenario` for structural
    /// errors.
    pub field: String,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl ScenarioError {
    fn new(line: usize, field: impl Into<String>, message: impl Into<String>) -> ScenarioError {
        ScenarioError {
            line,
            field: field.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}", self.field, self.message)
        } else {
            write!(f, "line {}: {}: {}", self.line, self.field, self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which executor driver a scenario runs on. One variant per experiment
/// family; a *new* scenario combines an existing driver with new
/// parameters (world, seeds, axes, fault ladder …) and needs zero new
/// Rust.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// E1 — trace characteristics table.
    TraceStats,
    /// E2 — analytical model vs simulation on a pairwise world.
    DelayValidation,
    /// E3 — freshness-ratio time series per scheme.
    FreshnessTime,
    /// E4 — replication sizing vs the freshness requirement `q`.
    FreshnessRequirement,
    /// E5 — freshness vs refresh period.
    RefreshPeriod,
    /// E6 — overhead comparison per scheme.
    Overhead,
    /// E7 — scalability with the caching-set size.
    CachingNodes,
    /// E8 — design-choice ablations.
    Ablation,
    /// E9 — data-access validity with the caching stack.
    DataAccess,
    /// E11 — robustness to permanent departures.
    Robustness,
    /// E12 — refresh-load distribution.
    LoadDistribution,
    /// E13 — loss + churn fault tolerance.
    FaultTolerance,
    /// E14 — joint caching+freshness world under budget contention.
    JointWorld,
    /// E15 — streaming-pipeline scalability sweep.
    Scalability,
    /// E16 — real-trace ingestion, calibration, freshness.
    RealTraces,
    /// E17 — chaos ladder with invariant oracles.
    Chaos,
    /// E18 — async node runtime: DES cross-validation + throughput.
    Runtime,
    /// E19 — bandwidth-realistic links: byte-budget contacts and queues.
    Bandwidth,
}

impl CampaignKind {
    /// Every campaign kind, in experiment order.
    pub const ALL: [CampaignKind; 18] = [
        CampaignKind::TraceStats,
        CampaignKind::DelayValidation,
        CampaignKind::FreshnessTime,
        CampaignKind::FreshnessRequirement,
        CampaignKind::RefreshPeriod,
        CampaignKind::Overhead,
        CampaignKind::CachingNodes,
        CampaignKind::Ablation,
        CampaignKind::DataAccess,
        CampaignKind::Robustness,
        CampaignKind::LoadDistribution,
        CampaignKind::FaultTolerance,
        CampaignKind::JointWorld,
        CampaignKind::Scalability,
        CampaignKind::RealTraces,
        CampaignKind::Chaos,
        CampaignKind::Runtime,
        CampaignKind::Bandwidth,
    ];

    /// The spec-file name of the kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CampaignKind::TraceStats => "trace-stats",
            CampaignKind::DelayValidation => "delay-validation",
            CampaignKind::FreshnessTime => "freshness-time",
            CampaignKind::FreshnessRequirement => "freshness-requirement",
            CampaignKind::RefreshPeriod => "refresh-period",
            CampaignKind::Overhead => "overhead",
            CampaignKind::CachingNodes => "caching-nodes",
            CampaignKind::Ablation => "ablation",
            CampaignKind::DataAccess => "data-access",
            CampaignKind::Robustness => "robustness",
            CampaignKind::LoadDistribution => "load-distribution",
            CampaignKind::FaultTolerance => "fault-tolerance",
            CampaignKind::JointWorld => "joint-world",
            CampaignKind::Scalability => "scalability",
            CampaignKind::RealTraces => "real-traces",
            CampaignKind::Chaos => "chaos",
            CampaignKind::Runtime => "runtime",
            CampaignKind::Bandwidth => "bandwidth",
        }
    }

    fn from_name(name: &str) -> Option<CampaignKind> {
        CampaignKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for CampaignKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The pairwise-exponential synthetic world of the validation campaign
/// (analytical assumptions hold by construction).
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseWorld {
    /// Node count.
    pub nodes: usize,
    /// Simulated span in days.
    pub span_days: f64,
    /// Mean pairwise inter-contact interval in seconds (rate = 1/this).
    pub mean_interval_secs: f64,
    /// Gamma shape of the per-pair rate heterogeneity.
    pub rate_shape: f64,
    /// The dedicated generation seed of the world (the validation world
    /// is one fixed trace, not a per-seed replication).
    pub world_seed: u64,
}

/// Where a scenario's contacts come from.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldSpec {
    /// One or more synthetic presets (`reality-like`, `infocom-like`).
    Presets(Vec<TracePreset>),
    /// One fixed pairwise-exponential trace.
    Pairwise(PairwiseWorld),
    /// The sharded-community streaming generator; node counts come from
    /// the `nodes` matrix axis.
    Sharded,
    /// The built-in real-trace registry (vendored fixtures as fallback).
    Registry,
    /// One real trace file on disk.
    TraceFile {
        /// Dataset path.
        path: String,
        /// Dump-format name (`reality`, `haggle`, `omn-v1`); sniffed when
        /// absent.
        format: Option<String>,
    },
}

/// A retry policy named in a spec, mapped onto
/// [`omn_core::scheme::RetryPolicy`] by the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrySpec {
    /// No retries (fail-once transfers).
    Off,
    /// The classic fixed bound: up to `n` retries at the very next
    /// contacts.
    Fixed(u32),
    /// Exponential backoff with deterministic jitter and escalation.
    Exponential {
        /// Maximum extra attempts.
        attempts: u32,
        /// Base backoff in hours.
        base_hours: f64,
    },
}

impl RetrySpec {
    fn render(self) -> String {
        match self {
            RetrySpec::Off => "off".to_owned(),
            RetrySpec::Fixed(n) => format!("fixed({n})"),
            RetrySpec::Exponential {
                attempts,
                base_hours,
            } => format!("exponential({attempts}, {base_hours}h)"),
        }
    }

    /// The [`omn_core::scheme::RetryPolicy`] this spec names.
    #[must_use]
    pub fn to_policy(self) -> omn_core::scheme::RetryPolicy {
        use omn_core::scheme::RetryPolicy;
        match self {
            RetrySpec::Off => RetryPolicy::fixed(0),
            RetrySpec::Fixed(n) => RetryPolicy::fixed(n),
            RetrySpec::Exponential {
                attempts,
                base_hours,
            } => RetryPolicy::exponential(attempts, omn_sim::SimDuration::from_hours(base_hours)),
        }
    }

    fn parse(value: &str) -> Option<RetrySpec> {
        let value = value.trim();
        if value == "off" {
            return Some(RetrySpec::Off);
        }
        let (fun, rest) = value.split_once('(')?;
        let args = rest.strip_suffix(')')?;
        match fun.trim() {
            "fixed" => args.trim().parse().ok().map(RetrySpec::Fixed),
            "exponential" => {
                let (a, b) = args.split_once(',')?;
                let attempts = a.trim().parse().ok()?;
                let base_hours: f64 = b.trim().strip_suffix('h')?.trim().parse().ok()?;
                (base_hours.is_finite() && base_hours >= 0.0).then_some(RetrySpec::Exponential {
                    attempts,
                    base_hours,
                })
            }
            _ => None,
        }
    }
}

/// One leg of the runtime campaign: which execution mode runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLeg {
    /// Trace-replay lockstep mode, cross-validated against the DES.
    Lockstep,
    /// Free-running throughput mode over the sharded generator.
    Firehose,
}

impl RunLeg {
    /// The spec-file name of the leg.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RunLeg::Lockstep => "lockstep",
            RunLeg::Firehose => "firehose",
        }
    }

    fn from_name(name: &str) -> Option<RunLeg> {
        [RunLeg::Lockstep, RunLeg::Firehose]
            .into_iter()
            .find(|l| l.name() == name)
    }
}

/// The `[run]` section: seed set, scheme choice, retry policy, and
/// runtime legs. Every field is optional — the campaign driver's defaults
/// apply when absent, and command-line flags override whatever the spec
/// says.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSpec {
    /// Replication seed set (`None` = the harness default).
    pub seeds: Option<Vec<u64>>,
    /// Schemes to compare (`None` = the campaign's default set).
    pub schemes: Option<Vec<SchemeChoice>>,
    /// Retry policy for resilient campaigns.
    pub retry: Option<RetrySpec>,
    /// Which legs of a runtime campaign run (`None` = all legs).
    pub legs: Option<Vec<RunLeg>>,
}

/// One rung of a fault ladder: the intensity of each adversarial fault
/// kind (shared with E17's chaos campaign).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRung {
    /// Human-readable rung name.
    pub name: String,
    /// Probability that a successful transfer is a stale-version replay.
    pub corruption: f64,
    /// Fraction of nodes subject to crash-with-state-loss windows.
    pub crash_fraction: f64,
    /// Number of correlated regional outage events over the span.
    pub outages: u32,
}

/// The `[contention]` section: the joint-world budget sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionSpec {
    /// Per-contact transfer budget (`None` = unlimited).
    pub budget: Option<u32>,
    /// Query loads of the sweep.
    pub loads: Vec<usize>,
    /// Contention priorities compared.
    pub priorities: Vec<ContentionPriority>,
}

/// The `[link]` section: the bandwidth-realistic link model of the E19
/// campaign. Contact capacity = bandwidth × contact duration in bytes;
/// the ladder sweeps it from starvation to effectively infinite.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth ladder in bytes/second, in sweep order. The value `0` is
    /// the *unlimited* sentinel (an infinite link, bit-identical to pure
    /// slot counting).
    pub bandwidth: Vec<f64>,
    /// Wire length of one refresh frame in bytes (`None` = driver
    /// default).
    pub refresh_bytes: Option<u64>,
    /// Per-node transmission-queue depth bound (`None` = driver default).
    pub queue_depth: Option<usize>,
}

/// One named axis of the `[matrix]` section: a sweep when it has several
/// values, a scalar parameter when it has one.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixAxis {
    /// Axis name (e.g. `nodes`, `period-h`, `q`).
    pub key: String,
    /// Axis values, in sweep order.
    pub values: Vec<f64>,
}

/// The `[output]` section: golden-file binding and presentation knobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutputSpec {
    /// Name of the committed golden file this scenario's headline numbers
    /// are pinned by (under `crates/bench/tests/golden/`).
    pub golden: Option<String>,
    /// Hide wall-clock columns (byte-diffable output).
    pub no_wall: bool,
}

/// A parsed scenario: the typed form of one `.scn` file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name from the `scenario <name>` header.
    pub name: String,
    /// Optional human-readable title.
    pub title: Option<String>,
    /// Which executor driver runs this scenario.
    pub campaign: CampaignKind,
    /// Contact-world selection.
    pub world: WorldSpec,
    /// Seeds, schemes, retry policy, runtime legs.
    pub run: RunSpec,
    /// Fault ladder (empty = fault-free).
    pub faults: Vec<FaultRung>,
    /// Joint-world contention sweep.
    pub contention: Option<ContentionSpec>,
    /// Bandwidth-realistic link model (the E19 campaign).
    pub link: Option<LinkSpec>,
    /// Named sweep axes and scalar parameters.
    pub matrix: Vec<MatrixAxis>,
    /// Golden binding and presentation.
    pub output: OutputSpec,
}

/// Scheme-name helpers shared by parser and renderer.
fn scheme_from_name(name: &str) -> Option<SchemeChoice> {
    SchemeChoice::ALL.into_iter().find(|c| c.name() == name)
}

fn preset_from_name(name: &str) -> Option<TracePreset> {
    TracePreset::ALL.into_iter().find(|p| p.name() == name)
}

fn priority_name(p: ContentionPriority) -> &'static str {
    match p {
        ContentionPriority::RefreshFirst => "refresh-first",
        ContentionPriority::QueryFirst => "query-first",
        ContentionPriority::FairInterleave => "fair-interleave",
    }
}

fn priority_from_name(name: &str) -> Option<ContentionPriority> {
    [
        ContentionPriority::RefreshFirst,
        ContentionPriority::QueryFirst,
        ContentionPriority::FairInterleave,
    ]
    .into_iter()
    .find(|&p| priority_name(p) == name)
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// The sections a spec may contain, in canonical render order.
const SECTIONS: [&str; 7] = [
    "world",
    "run",
    "faults",
    "contention",
    "link",
    "matrix",
    "output",
];

/// One `key = value` occurrence with its source line.
struct RawKv {
    line: usize,
    key: String,
    value: String,
}

/// A raw section: name, header line, and its key/value pairs in order.
struct RawSection {
    name: String,
    line: usize,
    kvs: Vec<RawKv>,
}

fn err(line: usize, field: impl Into<String>, message: impl Into<String>) -> ScenarioError {
    ScenarioError::new(line, field, message)
}

/// Parses one `.scn` document into a typed [`ScenarioSpec`].
///
/// # Errors
///
/// Returns the first [`ScenarioError`] encountered: structural problems
/// (missing header, unknown or duplicate sections), unknown keys, or
/// malformed values — each positioned at its line and field.
pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let mut name: Option<String> = None;
    let mut top: Vec<RawKv> = Vec::new();
    let mut sections: Vec<RawSection> = Vec::new();
    let mut current: Option<usize> = None;

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(section) = rest.strip_suffix(']') else {
                return Err(err(line_no, "section", "unterminated section header"));
            };
            let section = section.trim();
            if !SECTIONS.contains(&section) {
                return Err(err(
                    line_no,
                    format!("[{section}]"),
                    format!("unknown section (expected one of: {})", SECTIONS.join(", ")),
                ));
            }
            if let Some(first) = sections.iter().find(|s| s.name == section) {
                return Err(err(
                    line_no,
                    format!("[{section}]"),
                    format!(
                        "conflicting section: [{section}] already given at line {}",
                        first.line
                    ),
                ));
            }
            sections.push(RawSection {
                name: section.to_owned(),
                line: line_no,
                kvs: Vec::new(),
            });
            current = Some(sections.len() - 1);
            continue;
        }
        if name.is_none() {
            let Some(rest) = line.strip_prefix("scenario") else {
                return Err(err(
                    line_no,
                    "scenario",
                    "a spec must start with `scenario <name>`",
                ));
            };
            let n = rest.trim();
            if n.is_empty() || n.contains(char::is_whitespace) {
                return Err(err(
                    line_no,
                    "scenario",
                    "the scenario name must be one word",
                ));
            }
            name = Some(n.to_owned());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(
                line_no,
                line.split_whitespace().next().unwrap_or("line").to_owned(),
                "expected `key = value`",
            ));
        };
        let kv = RawKv {
            line: line_no,
            key: key.trim().to_owned(),
            value: value.trim().to_owned(),
        };
        match current {
            Some(i) => sections[i].kvs.push(kv),
            None => top.push(kv),
        }
    }

    let Some(name) = name else {
        return Err(err(0, "scenario", "missing `scenario <name>` header"));
    };

    // Top-level keys: title, campaign.
    let mut title: Option<String> = None;
    let mut campaign: Option<(CampaignKind, usize)> = None;
    for kv in &top {
        match kv.key.as_str() {
            "title" => {
                reject_dup(title.is_some(), kv, "title")?;
                title = Some(kv.value.clone());
            }
            "campaign" => {
                reject_dup(campaign.is_some(), kv, "campaign")?;
                let kind = CampaignKind::from_name(&kv.value).ok_or_else(|| {
                    err(
                        kv.line,
                        "campaign",
                        format!(
                            "unknown campaign `{}` (expected one of: {})",
                            kv.value,
                            CampaignKind::ALL.map(CampaignKind::name).join(", ")
                        ),
                    )
                })?;
                campaign = Some((kind, kv.line));
            }
            other => {
                return Err(err(
                    kv.line,
                    other.to_owned(),
                    "unknown key (expected `title` or `campaign` before the first section)",
                ))
            }
        }
    }
    let Some((campaign, _)) = campaign else {
        return Err(err(0, "campaign", "missing `campaign = <kind>`"));
    };

    let mut spec = ScenarioSpec {
        name,
        title,
        campaign,
        world: WorldSpec::Presets(Vec::new()),
        run: RunSpec::default(),
        faults: Vec::new(),
        contention: None,
        link: None,
        matrix: Vec::new(),
        output: OutputSpec::default(),
    };

    let mut world_seen = false;
    for section in &sections {
        match section.name.as_str() {
            "world" => {
                spec.world = parse_world(section)?;
                world_seen = true;
            }
            "run" => spec.run = parse_run(section)?,
            "faults" => spec.faults = parse_faults(section)?,
            "contention" => spec.contention = Some(parse_contention(section)?),
            "link" => spec.link = Some(parse_link(section)?),
            "matrix" => spec.matrix = parse_matrix(section)?,
            "output" => spec.output = parse_output(section)?,
            _ => unreachable!("unknown sections are rejected above"),
        }
    }
    if !world_seen {
        return Err(err(0, "[world]", "missing [world] section"));
    }
    Ok(spec)
}

fn reject_dup(seen: bool, kv: &RawKv, field: &str) -> Result<(), ScenarioError> {
    if seen {
        return Err(err(kv.line, field.to_owned(), "duplicate key"));
    }
    Ok(())
}

fn qualified(section: &RawSection, key: &str) -> String {
    format!("[{}] {key}", section.name)
}

fn parse_f64(section: &RawSection, kv: &RawKv, value: &str) -> Result<f64, ScenarioError> {
    match value.trim().parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(err(
            kv.line,
            qualified(section, &kv.key),
            format!("expected a number, got `{value}`"),
        )),
    }
}

fn parse_int<T: std::str::FromStr>(
    section: &RawSection,
    kv: &RawKv,
    value: &str,
) -> Result<T, ScenarioError> {
    value.trim().parse::<T>().map_err(|_| {
        err(
            kv.line,
            qualified(section, &kv.key),
            format!("expected an integer, got `{value}`"),
        )
    })
}

fn parse_bool(section: &RawSection, kv: &RawKv) -> Result<bool, ScenarioError> {
    match kv.value.as_str() {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(err(
            kv.line,
            qualified(section, &kv.key),
            format!("expected `true` or `false`, got `{other}`"),
        )),
    }
}

fn split_list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

fn parse_world(section: &RawSection) -> Result<WorldSpec, ScenarioError> {
    // Gather every key, then resolve the kind and reject keys that belong
    // to a different kind (a conflicting world description).
    let mut kind: Option<(String, usize)> = None;
    let mut presets: Option<(Vec<TracePreset>, usize)> = None;
    let mut nodes: Option<usize> = None;
    let mut span_days: Option<f64> = None;
    let mut mean_interval: Option<f64> = None;
    let mut rate_shape: Option<f64> = None;
    let mut world_seed: Option<u64> = None;
    let mut path: Option<String> = None;
    let mut format: Option<String> = None;
    let mut pairwise_line = 0usize;
    let mut trace_line = 0usize;

    for kv in &section.kvs {
        match kv.key.as_str() {
            "kind" => {
                reject_dup(kind.is_some(), kv, "[world] kind")?;
                kind = Some((kv.value.clone(), kv.line));
            }
            "presets" | "preset" => {
                reject_dup(presets.is_some(), kv, "[world] presets")?;
                let mut list = Vec::new();
                for name in split_list(&kv.value) {
                    list.push(preset_from_name(name).ok_or_else(|| {
                        err(
                            kv.line,
                            qualified(section, &kv.key),
                            format!(
                                "unknown preset `{name}` (expected one of: {})",
                                TracePreset::ALL.map(TracePreset::name).join(", ")
                            ),
                        )
                    })?);
                }
                if list.is_empty() {
                    return Err(err(
                        kv.line,
                        qualified(section, &kv.key),
                        "expected at least one preset",
                    ));
                }
                presets = Some((list, kv.line));
            }
            "nodes" => {
                nodes = Some(parse_int(section, kv, &kv.value)?);
                pairwise_line = pairwise_line.max(kv.line);
            }
            "span-days" => {
                span_days = Some(parse_f64(section, kv, &kv.value)?);
                pairwise_line = pairwise_line.max(kv.line);
            }
            "mean-interval-secs" => {
                mean_interval = Some(parse_f64(section, kv, &kv.value)?);
                pairwise_line = pairwise_line.max(kv.line);
            }
            "rate-shape" => {
                rate_shape = Some(parse_f64(section, kv, &kv.value)?);
                pairwise_line = pairwise_line.max(kv.line);
            }
            "world-seed" => {
                world_seed = Some(parse_int(section, kv, &kv.value)?);
                pairwise_line = pairwise_line.max(kv.line);
            }
            "path" => {
                path = Some(kv.value.clone());
                trace_line = trace_line.max(kv.line);
            }
            "format" => {
                format = Some(kv.value.clone());
                trace_line = trace_line.max(kv.line);
            }
            other => {
                return Err(err(
                    kv.line,
                    qualified(section, other),
                    "unknown key in [world]",
                ))
            }
        }
    }

    let kind_name = match (&kind, &presets) {
        (Some((k, _)), _) => k.clone(),
        (None, Some(_)) => "preset".to_owned(),
        (None, None) => {
            return Err(err(
                section.line,
                "[world] kind",
                "missing `kind` (preset, pairwise, sharded, registry, or trace)",
            ))
        }
    };

    let conflict = |field: &str, line: usize, kind_name: &str| {
        err(
            line,
            format!("[world] {field}"),
            format!("conflicts with `kind = {kind_name}` — one world per scenario"),
        )
    };

    match kind_name.as_str() {
        "preset" => {
            if pairwise_line > 0 {
                return Err(conflict("nodes/span-days/…", pairwise_line, "preset"));
            }
            if trace_line > 0 {
                return Err(conflict("path/format", trace_line, "preset"));
            }
            let Some((list, _)) = presets else {
                return Err(err(
                    section.line,
                    "[world] presets",
                    "kind = preset needs `presets = …`",
                ));
            };
            Ok(WorldSpec::Presets(list))
        }
        "pairwise" => {
            if let Some((_, line)) = presets {
                return Err(conflict("presets", line, "pairwise"));
            }
            if trace_line > 0 {
                return Err(conflict("path/format", trace_line, "pairwise"));
            }
            let missing = |field: &str| {
                err(
                    section.line,
                    format!("[world] {field}"),
                    "required for kind = pairwise",
                )
            };
            Ok(WorldSpec::Pairwise(PairwiseWorld {
                nodes: nodes.ok_or_else(|| missing("nodes"))?,
                span_days: span_days.ok_or_else(|| missing("span-days"))?,
                mean_interval_secs: mean_interval.ok_or_else(|| missing("mean-interval-secs"))?,
                rate_shape: rate_shape.ok_or_else(|| missing("rate-shape"))?,
                world_seed: world_seed.ok_or_else(|| missing("world-seed"))?,
            }))
        }
        "sharded" | "registry" => {
            if let Some((_, line)) = presets {
                return Err(conflict("presets", line, &kind_name));
            }
            if pairwise_line > 0 {
                return Err(conflict("nodes/span-days/…", pairwise_line, &kind_name));
            }
            if trace_line > 0 {
                return Err(conflict("path/format", trace_line, &kind_name));
            }
            Ok(if kind_name == "sharded" {
                WorldSpec::Sharded
            } else {
                WorldSpec::Registry
            })
        }
        "trace" => {
            if let Some((_, line)) = presets {
                return Err(conflict("presets", line, "trace"));
            }
            if pairwise_line > 0 {
                return Err(conflict("nodes/span-days/…", pairwise_line, "trace"));
            }
            let Some(path) = path else {
                return Err(err(
                    section.line,
                    "[world] path",
                    "kind = trace needs `path = …`",
                ));
            };
            Ok(WorldSpec::TraceFile { path, format })
        }
        other => Err(err(
            kind.map_or(section.line, |(_, l)| l),
            "[world] kind",
            format!(
                "unknown world kind `{other}` (expected preset, pairwise, sharded, registry, or trace)"
            ),
        )),
    }
}

fn parse_run(section: &RawSection) -> Result<RunSpec, ScenarioError> {
    let mut run = RunSpec::default();
    for kv in &section.kvs {
        match kv.key.as_str() {
            "seeds" => {
                reject_dup(run.seeds.is_some(), kv, "[run] seeds")?;
                let mut seeds = Vec::new();
                for s in split_list(&kv.value) {
                    seeds.push(parse_int(section, kv, s)?);
                }
                if seeds.is_empty() {
                    return Err(err(
                        kv.line,
                        qualified(section, &kv.key),
                        "expected at least one seed",
                    ));
                }
                run.seeds = Some(seeds);
            }
            "schemes" => {
                reject_dup(run.schemes.is_some(), kv, "[run] schemes")?;
                let mut schemes = Vec::new();
                for name in split_list(&kv.value) {
                    schemes.push(scheme_from_name(name).ok_or_else(|| {
                        err(
                            kv.line,
                            qualified(section, &kv.key),
                            format!(
                                "unknown scheme `{name}` (expected one of: {})",
                                SchemeChoice::ALL.map(SchemeChoice::name).join(", ")
                            ),
                        )
                    })?);
                }
                if schemes.is_empty() {
                    return Err(err(
                        kv.line,
                        qualified(section, &kv.key),
                        "expected at least one scheme",
                    ));
                }
                run.schemes = Some(schemes);
            }
            "retry" => {
                reject_dup(run.retry.is_some(), kv, "[run] retry")?;
                run.retry = Some(RetrySpec::parse(&kv.value).ok_or_else(|| {
                    err(
                        kv.line,
                        qualified(section, &kv.key),
                        format!(
                            "unknown retry policy `{}` (expected off, fixed(N), or \
                             exponential(N, Hh))",
                            kv.value
                        ),
                    )
                })?);
            }
            "legs" => {
                reject_dup(run.legs.is_some(), kv, "[run] legs")?;
                let mut legs = Vec::new();
                for name in split_list(&kv.value) {
                    legs.push(RunLeg::from_name(name).ok_or_else(|| {
                        err(
                            kv.line,
                            qualified(section, &kv.key),
                            format!("unknown leg `{name}` (expected lockstep or firehose)"),
                        )
                    })?);
                }
                if legs.is_empty() {
                    return Err(err(
                        kv.line,
                        qualified(section, &kv.key),
                        "expected at least one leg",
                    ));
                }
                run.legs = Some(legs);
            }
            other => {
                return Err(err(
                    kv.line,
                    qualified(section, other),
                    "unknown key in [run]",
                ))
            }
        }
    }
    Ok(run)
}

fn parse_faults(section: &RawSection) -> Result<Vec<FaultRung>, ScenarioError> {
    let mut rungs = Vec::new();
    for kv in &section.kvs {
        match kv.key.as_str() {
            "rung" => {
                let parts: Vec<&str> = kv.value.split_whitespace().collect();
                if parts.len() != 4 {
                    return Err(err(
                        kv.line,
                        qualified(section, &kv.key),
                        format!(
                            "expected `rung = <name> <corruption> <crash-fraction> <outages>`, \
                             got `{}`",
                            kv.value
                        ),
                    ));
                }
                let corruption = parse_f64(section, kv, parts[1])?;
                let crash_fraction = parse_f64(section, kv, parts[2])?;
                let outages = parse_int(section, kv, parts[3])?;
                for (label, v) in [
                    ("corruption", corruption),
                    ("crash-fraction", crash_fraction),
                ] {
                    if !(0.0..=1.0).contains(&v) {
                        return Err(err(
                            kv.line,
                            qualified(section, &kv.key),
                            format!("{label} must be a probability in [0, 1], got {v}"),
                        ));
                    }
                }
                rungs.push(FaultRung {
                    name: parts[0].to_owned(),
                    corruption,
                    crash_fraction,
                    outages,
                });
            }
            other => {
                return Err(err(
                    kv.line,
                    qualified(section, other),
                    "unknown key in [faults] (expected repeated `rung = …` lines)",
                ))
            }
        }
    }
    Ok(rungs)
}

fn parse_contention(section: &RawSection) -> Result<ContentionSpec, ScenarioError> {
    let mut budget: Option<u32> = None;
    let mut loads: Option<Vec<usize>> = None;
    let mut priorities: Option<Vec<ContentionPriority>> = None;
    for kv in &section.kvs {
        match kv.key.as_str() {
            "budget" => {
                reject_dup(budget.is_some(), kv, "[contention] budget")?;
                budget = Some(parse_int(section, kv, &kv.value)?);
            }
            "loads" => {
                reject_dup(loads.is_some(), kv, "[contention] loads")?;
                let mut list = Vec::new();
                for s in split_list(&kv.value) {
                    list.push(parse_int(section, kv, s)?);
                }
                loads = Some(list);
            }
            "priorities" => {
                reject_dup(priorities.is_some(), kv, "[contention] priorities")?;
                let mut list = Vec::new();
                for name in split_list(&kv.value) {
                    list.push(priority_from_name(name).ok_or_else(|| {
                        err(
                            kv.line,
                            qualified(section, &kv.key),
                            format!(
                                "unknown priority `{name}` (expected refresh-first, \
                                 query-first, or fair-interleave)"
                            ),
                        )
                    })?);
                }
                priorities = Some(list);
            }
            other => {
                return Err(err(
                    kv.line,
                    qualified(section, other),
                    "unknown key in [contention]",
                ))
            }
        }
    }
    Ok(ContentionSpec {
        budget,
        loads: loads.unwrap_or_default(),
        priorities: priorities.unwrap_or_default(),
    })
}

fn parse_link(section: &RawSection) -> Result<LinkSpec, ScenarioError> {
    let mut bandwidth: Option<Vec<f64>> = None;
    let mut refresh_bytes: Option<u64> = None;
    let mut queue_depth: Option<usize> = None;
    for kv in &section.kvs {
        match kv.key.as_str() {
            "bandwidth" => {
                reject_dup(bandwidth.is_some(), kv, "[link] bandwidth")?;
                let mut values = Vec::new();
                for s in split_list(&kv.value) {
                    let v = parse_f64(section, kv, s)?;
                    if v < 0.0 {
                        return Err(err(
                            kv.line,
                            qualified(section, &kv.key),
                            format!("bandwidth must be non-negative (0 = unlimited), got {v}"),
                        ));
                    }
                    values.push(v);
                }
                if values.is_empty() {
                    return Err(err(
                        kv.line,
                        qualified(section, &kv.key),
                        "expected at least one bandwidth value",
                    ));
                }
                bandwidth = Some(values);
            }
            "refresh-bytes" => {
                reject_dup(refresh_bytes.is_some(), kv, "[link] refresh-bytes")?;
                refresh_bytes = Some(parse_int(section, kv, &kv.value)?);
            }
            "queue-depth" => {
                reject_dup(queue_depth.is_some(), kv, "[link] queue-depth")?;
                let depth: usize = parse_int(section, kv, &kv.value)?;
                if depth == 0 {
                    return Err(err(
                        kv.line,
                        qualified(section, &kv.key),
                        "expected a positive queue depth",
                    ));
                }
                queue_depth = Some(depth);
            }
            other => {
                return Err(err(
                    kv.line,
                    qualified(section, other),
                    "unknown key in [link]",
                ))
            }
        }
    }
    let Some(bandwidth) = bandwidth else {
        return Err(err(
            section.line,
            "[link] bandwidth",
            "a [link] section needs a `bandwidth = …` ladder",
        ));
    };
    Ok(LinkSpec {
        bandwidth,
        refresh_bytes,
        queue_depth,
    })
}

fn parse_matrix(section: &RawSection) -> Result<Vec<MatrixAxis>, ScenarioError> {
    let mut axes: Vec<MatrixAxis> = Vec::new();
    for kv in &section.kvs {
        if axes.iter().any(|a| a.key == kv.key) {
            return Err(err(
                kv.line,
                qualified(section, &kv.key),
                "duplicate matrix axis",
            ));
        }
        let mut values = Vec::new();
        for s in split_list(&kv.value) {
            values.push(parse_f64(section, kv, s)?);
        }
        if values.is_empty() {
            return Err(err(
                kv.line,
                qualified(section, &kv.key),
                "expected at least one value",
            ));
        }
        axes.push(MatrixAxis {
            key: kv.key.clone(),
            values,
        });
    }
    Ok(axes)
}

fn parse_output(section: &RawSection) -> Result<OutputSpec, ScenarioError> {
    let mut out = OutputSpec::default();
    let mut golden_seen = false;
    let mut no_wall_seen = false;
    for kv in &section.kvs {
        match kv.key.as_str() {
            "golden" => {
                reject_dup(golden_seen, kv, "[output] golden")?;
                golden_seen = true;
                out.golden = Some(kv.value.clone());
            }
            "no-wall" => {
                reject_dup(no_wall_seen, kv, "[output] no-wall")?;
                no_wall_seen = true;
                out.no_wall = parse_bool(section, kv)?;
            }
            other => {
                return Err(err(
                    kv.line,
                    qualified(section, other),
                    "unknown key in [output]",
                ))
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn join_f64(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn join_u64(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

impl ScenarioSpec {
    /// Renders the canonical `.scn` text of this spec. `parse(render(s))
    /// == s` for every valid spec (pinned by a proptest), so re-rendering
    /// a hand-written file normalizes it without changing its meaning.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario {}\n", self.name));
        if let Some(title) = &self.title {
            out.push_str(&format!("title = {title}\n"));
        }
        out.push_str(&format!("campaign = {}\n", self.campaign));

        out.push_str("\n[world]\n");
        match &self.world {
            WorldSpec::Presets(presets) => {
                out.push_str("kind = preset\n");
                out.push_str(&format!(
                    "presets = {}\n",
                    presets
                        .iter()
                        .map(|p| p.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            WorldSpec::Pairwise(w) => {
                out.push_str("kind = pairwise\n");
                out.push_str(&format!("nodes = {}\n", w.nodes));
                out.push_str(&format!("span-days = {}\n", w.span_days));
                out.push_str(&format!("mean-interval-secs = {}\n", w.mean_interval_secs));
                out.push_str(&format!("rate-shape = {}\n", w.rate_shape));
                out.push_str(&format!("world-seed = {}\n", w.world_seed));
            }
            WorldSpec::Sharded => out.push_str("kind = sharded\n"),
            WorldSpec::Registry => out.push_str("kind = registry\n"),
            WorldSpec::TraceFile { path, format } => {
                out.push_str("kind = trace\n");
                out.push_str(&format!("path = {path}\n"));
                if let Some(format) = format {
                    out.push_str(&format!("format = {format}\n"));
                }
            }
        }

        let run = &self.run;
        if run != &RunSpec::default() {
            out.push_str("\n[run]\n");
            if let Some(seeds) = &run.seeds {
                out.push_str(&format!("seeds = {}\n", join_u64(seeds)));
            }
            if let Some(schemes) = &run.schemes {
                out.push_str(&format!(
                    "schemes = {}\n",
                    schemes
                        .iter()
                        .map(|c| c.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            if let Some(retry) = run.retry {
                out.push_str(&format!("retry = {}\n", retry.render()));
            }
            if let Some(legs) = &run.legs {
                out.push_str(&format!(
                    "legs = {}\n",
                    legs.iter().map(|l| l.name()).collect::<Vec<_>>().join(", ")
                ));
            }
        }

        if !self.faults.is_empty() {
            out.push_str("\n[faults]\n");
            for rung in &self.faults {
                out.push_str(&format!(
                    "rung = {} {} {} {}\n",
                    rung.name, rung.corruption, rung.crash_fraction, rung.outages
                ));
            }
        }

        if let Some(contention) = &self.contention {
            out.push_str("\n[contention]\n");
            if let Some(budget) = contention.budget {
                out.push_str(&format!("budget = {budget}\n"));
            }
            if !contention.loads.is_empty() {
                out.push_str(&format!(
                    "loads = {}\n",
                    contention
                        .loads
                        .iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            if !contention.priorities.is_empty() {
                out.push_str(&format!(
                    "priorities = {}\n",
                    contention
                        .priorities
                        .iter()
                        .map(|&p| priority_name(p))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }

        if let Some(link) = &self.link {
            out.push_str("\n[link]\n");
            out.push_str(&format!("bandwidth = {}\n", join_f64(&link.bandwidth)));
            if let Some(bytes) = link.refresh_bytes {
                out.push_str(&format!("refresh-bytes = {bytes}\n"));
            }
            if let Some(depth) = link.queue_depth {
                out.push_str(&format!("queue-depth = {depth}\n"));
            }
        }

        if !self.matrix.is_empty() {
            out.push_str("\n[matrix]\n");
            for axis in &self.matrix {
                out.push_str(&format!("{} = {}\n", axis.key, join_f64(&axis.values)));
            }
        }

        let output = &self.output;
        if output != &OutputSpec::default() {
            out.push_str("\n[output]\n");
            if let Some(golden) = &output.golden {
                out.push_str(&format!("golden = {golden}\n"));
            }
            if output.no_wall {
                out.push_str("no-wall = true\n");
            }
        }
        out
    }
}
