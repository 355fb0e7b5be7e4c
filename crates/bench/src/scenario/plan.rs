//! The scenario planner: validates a parsed [`ScenarioSpec`] against its
//! campaign's requirements, folds in the process-wide [`CliOverrides`]
//! (precedence: CLI > spec > driver default), and expands the matrix into
//! a [`CampaignPlan`] the executor can drive directly.

use crate::runner::CliOverrides;
use crate::SEEDS;

use omn_contacts::synth::presets::TracePreset;
use omn_core::sim::SchemeChoice;

use super::spec::{
    CampaignKind, ContentionSpec, FaultRung, LinkSpec, RetrySpec, RunLeg, ScenarioError,
    ScenarioSpec, WorldSpec,
};

/// One expanded point of the sweep matrix: a coordinate per axis, in the
/// spec's axis order.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPoint {
    /// `(axis key, value)` per axis.
    pub coords: Vec<(String, f64)>,
}

impl PlanPoint {
    /// This point's value on the named axis.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<f64> {
        self.coords.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Hard cap on the expanded matrix size — a typo'd axis must not
/// silently schedule a million simulations.
const MAX_POINTS: usize = 100_000;

/// A validated, override-resolved, matrix-expanded campaign: everything
/// the executor needs, with no further environment lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// The resolved spec (CLI overrides already folded into its fields).
    pub spec: ScenarioSpec,
    /// The resolved seed list (CLI `--seeds` > spec `[run] seeds` > the
    /// harness default [`SEEDS`]).
    pub seeds: Vec<u64>,
    /// The cross product of every matrix axis, in row-major axis order.
    pub points: Vec<PlanPoint>,
    /// Hide wall-clock columns (spec `[output] no-wall` OR CLI
    /// `--no-wall`).
    pub no_wall: bool,
    /// Run the campaign's single large headline point instead of the
    /// sweep (CLI `--headline`).
    pub headline: bool,
}

/// The matrix axes each campaign understands; anything else in
/// `[matrix]` is a spec error (typos must not silently become no-ops).
fn allowed_axes(kind: CampaignKind) -> &'static [&'static str] {
    match kind {
        CampaignKind::TraceStats | CampaignKind::Overhead | CampaignKind::RealTraces => &[],
        CampaignKind::DelayValidation => &["caching-nodes", "refresh-hours", "cdf-max-k"],
        CampaignKind::FreshnessTime => &["points"],
        CampaignKind::FreshnessRequirement => &["q", "max-relays"],
        CampaignKind::RefreshPeriod => &["period-h"],
        CampaignKind::CachingNodes | CampaignKind::LoadDistribution => &["caching-nodes"],
        CampaignKind::Ablation => &["fanout"],
        CampaignKind::DataAccess => &["catalog", "load", "loss", "churn"],
        CampaignKind::Robustness => &["departed"],
        CampaignKind::FaultTolerance => &["loss", "churn"],
        CampaignKind::JointWorld => &["catalog", "query-deadline-h"],
        CampaignKind::Scalability => &["nodes", "headline-nodes"],
        CampaignKind::Chaos => &[],
        CampaignKind::Runtime => &["nodes"],
        CampaignKind::Bandwidth => &["catalog", "query-deadline-h", "load"],
    }
}

/// The values a matrix axis may take. The parser already guarantees every
/// value is finite; the domain keeps out-of-range values from reaching a
/// simulator constructor that would panic on them or silently coerce them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Domain {
    /// A whole number at or above the floor, with the reason it is the
    /// floor.
    Count(f64, &'static str),
    /// A duration in hours, strictly positive.
    Hours,
    /// A probability in the closed interval `[0, 1]`.
    Fraction,
    /// A probability in the open interval `(0, 1)`.
    OpenProbability,
}

/// The domain of each matrix axis in a campaign; `None` only for keys no
/// campaign accepts (rejected earlier by [`allowed_axes`]).
fn axis_domain(kind: CampaignKind, key: &str) -> Option<Domain> {
    Some(match key {
        "q" => Domain::OpenProbability,
        "period-h" | "refresh-hours" | "query-deadline-h" => Domain::Hours,
        "loss" | "churn" | "departed" => Domain::Fraction,
        "fanout" => Domain::Count(0.0, "0 = unbounded"),
        "max-relays" => Domain::Count(0.0, "0 = no relays"),
        "caching-nodes" => Domain::Count(1.0, "at least one caching node"),
        "nodes" | "headline-nodes" if kind == CampaignKind::Scalability => {
            Domain::Count(2.0, "the source plus one member")
        }
        "nodes" => Domain::Count(1.0, "at least one node"),
        "points" => Domain::Count(1.0, "at least one timeline row"),
        "catalog" => Domain::Count(1.0, "at least one data item"),
        "load" => Domain::Count(1.0, "at least one query"),
        "cdf-max-k" => Domain::Count(1.0, "at least one CDF row"),
        _ => return None,
    })
}

/// Why `v` lies outside `domain` on axis `key`, or `None` if it is inside.
fn domain_violation(kind: CampaignKind, key: &str, domain: Domain, v: f64) -> Option<String> {
    match domain {
        Domain::Count(_, _) if v.fract() != 0.0 => {
            Some(format!("`{key}` takes whole numbers, got {v}"))
        }
        Domain::Count(min, why) if v < min => Some(format!(
            "campaign `{kind}` needs `{key}` ≥ {min} ({why}), got {v}"
        )),
        Domain::Hours if v <= 0.0 => Some(format!("`{key}` must be > 0 hours, got {v}")),
        Domain::Fraction if !(0.0..=1.0).contains(&v) => {
            Some(format!("`{key}` must be in [0, 1], got {v}"))
        }
        Domain::OpenProbability if v <= 0.0 || v >= 1.0 => {
            Some(format!("`{key}` must be in (0, 1), got {v}"))
        }
        _ => None,
    }
}

fn plan_err(field: impl Into<String>, message: impl Into<String>) -> ScenarioError {
    ScenarioError {
        line: 0,
        field: field.into(),
        message: message.into(),
    }
}

/// Validates the spec for its campaign, applies the override overlay, and
/// expands the matrix.
///
/// # Errors
///
/// Returns a [`ScenarioError`] (field-positioned, line 0 — the text
/// positions are gone after parsing) when the spec's world kind, fault
/// ladder, contention section, or matrix axes don't fit the campaign, or
/// when the matrix cross product explodes past the size cap.
pub fn compile(
    spec: &ScenarioSpec,
    overrides: &CliOverrides,
) -> Result<CampaignPlan, ScenarioError> {
    let mut spec = spec.clone();

    // --- Override overlay (CLI > spec > driver default) ---------------
    if let Some(seeds) = &overrides.seeds {
        spec.run.seeds = Some(seeds.clone());
    }
    if let Some(nodes) = &overrides.nodes {
        let values: Vec<f64> = nodes.iter().map(|&n| n as f64).collect();
        match spec.matrix.iter_mut().find(|a| a.key == "nodes") {
            Some(axis) => axis.values = values,
            None => spec.matrix.push(super::spec::MatrixAxis {
                key: "nodes".to_owned(),
                values,
            }),
        }
    }
    if let Some(trace) = &overrides.trace {
        if spec.campaign == CampaignKind::RealTraces {
            spec.world = WorldSpec::TraceFile {
                path: trace.path.clone(),
                format: trace.format.clone(),
            };
        }
    }
    spec.output.no_wall = spec.output.no_wall || overrides.no_wall;

    // --- Per-campaign validation ---------------------------------------
    let world_name = match &spec.world {
        WorldSpec::Presets(_) => "preset",
        WorldSpec::Pairwise(_) => "pairwise",
        WorldSpec::Sharded => "sharded",
        WorldSpec::Registry => "registry",
        WorldSpec::TraceFile { .. } => "trace",
    };
    let wants = |kinds: &[&str]| -> Result<(), ScenarioError> {
        if kinds.contains(&world_name) {
            Ok(())
        } else {
            Err(plan_err(
                "[world] kind",
                format!(
                    "campaign `{}` needs a {} world, got `{world_name}`",
                    spec.campaign,
                    kinds.join(" or ")
                ),
            ))
        }
    };
    match spec.campaign {
        CampaignKind::DelayValidation => wants(&["pairwise"])?,
        CampaignKind::Scalability => {
            wants(&["sharded"])?;
            if !spec.matrix.iter().any(|a| a.key == "nodes") {
                return Err(plan_err(
                    "[matrix] nodes",
                    "campaign `scalability` needs a `nodes` axis",
                ));
            }
        }
        CampaignKind::RealTraces => wants(&["registry", "trace"])?,
        CampaignKind::Chaos => {
            wants(&["preset"])?;
            if spec.faults.is_empty() {
                return Err(plan_err(
                    "[faults]",
                    "campaign `chaos` needs a fault ladder (`rung = …` lines)",
                ));
            }
        }
        CampaignKind::JointWorld => {
            wants(&["preset"])?;
            let ok = spec
                .contention
                .as_ref()
                .is_some_and(|c| !c.loads.is_empty() && !c.priorities.is_empty());
            if !ok {
                return Err(plan_err(
                    "[contention]",
                    "campaign `joint-world` needs a [contention] section with \
                     `loads` and `priorities`",
                ));
            }
        }
        CampaignKind::Runtime => wants(&["pairwise"])?,
        CampaignKind::Bandwidth => {
            wants(&["preset"])?;
            if spec.link.is_none() {
                return Err(plan_err(
                    "[link]",
                    "campaign `bandwidth` needs a [link] section with a \
                     `bandwidth = …` ladder",
                ));
            }
        }
        _ => wants(&["preset"])?,
    }
    if spec.campaign != CampaignKind::Bandwidth && spec.link.is_some() {
        return Err(plan_err(
            "[link]",
            format!(
                "campaign `{}` does not take a [link] section (only `bandwidth` does)",
                spec.campaign
            ),
        ));
    }
    if spec.campaign != CampaignKind::Runtime && spec.run.legs.is_some() {
        return Err(plan_err(
            "[run] legs",
            format!(
                "campaign `{}` does not take `legs` (only `runtime` does)",
                spec.campaign
            ),
        ));
    }
    if spec.campaign != CampaignKind::Chaos && !spec.faults.is_empty() {
        return Err(plan_err(
            "[faults]",
            format!(
                "campaign `{}` does not take a fault ladder (only `chaos` does; \
                 loss/churn sweeps are matrix axes)",
                spec.campaign
            ),
        ));
    }

    let allowed = allowed_axes(spec.campaign);
    for axis in &spec.matrix {
        if !allowed.contains(&axis.key.as_str()) {
            return Err(plan_err(
                format!("[matrix] {}", axis.key),
                if allowed.is_empty() {
                    format!("campaign `{}` takes no matrix axes", spec.campaign)
                } else {
                    format!(
                        "unknown axis for campaign `{}` (expected one of: {})",
                        spec.campaign,
                        allowed.join(", ")
                    )
                },
            ));
        }
    }

    // Every axis value lies in its axis's domain; outside it the
    // simulators would panic or coerce the value (this also covers
    // `--nodes`, which was folded into the matrix above).
    for axis in &spec.matrix {
        let Some(domain) = axis_domain(spec.campaign, &axis.key) else {
            continue;
        };
        for &v in &axis.values {
            if let Some(message) = domain_violation(spec.campaign, &axis.key, domain, v) {
                return Err(plan_err(format!("[matrix] {}", axis.key), message));
            }
        }
    }

    // --- Matrix expansion ----------------------------------------------
    let mut count: usize = 1;
    for axis in &spec.matrix {
        count = count.saturating_mul(axis.values.len());
        if count > MAX_POINTS {
            return Err(plan_err(
                "[matrix]",
                format!("matrix expands to more than {MAX_POINTS} points"),
            ));
        }
    }
    let mut points = vec![PlanPoint { coords: Vec::new() }];
    for axis in &spec.matrix {
        let mut next = Vec::with_capacity(points.len() * axis.values.len());
        for p in &points {
            for &v in &axis.values {
                let mut coords = p.coords.clone();
                coords.push((axis.key.clone(), v));
                next.push(PlanPoint { coords });
            }
        }
        points = next;
    }

    let seeds = spec.run.seeds.clone().unwrap_or_else(|| SEEDS.to_vec());
    let no_wall = spec.output.no_wall;

    Ok(CampaignPlan {
        spec,
        seeds,
        points,
        no_wall,
        headline: overrides.headline,
    })
}

impl CampaignPlan {
    /// The resolved seed list.
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The spec's scheme list, or `default` when the spec leaves it out.
    #[must_use]
    pub fn schemes_or(&self, default: &[SchemeChoice]) -> Vec<SchemeChoice> {
        self.spec
            .run
            .schemes
            .clone()
            .unwrap_or_else(|| default.to_vec())
    }

    /// The preset list of a preset world (empty for other worlds).
    #[must_use]
    pub fn presets(&self) -> Vec<TracePreset> {
        match &self.spec.world {
            WorldSpec::Presets(presets) => presets.clone(),
            _ => Vec::new(),
        }
    }

    /// The single preset of a one-preset campaign (the planner guarantees
    /// a preset world for those campaigns; the first preset wins).
    #[must_use]
    pub fn preset_one(&self) -> TracePreset {
        self.presets()
            .first()
            .copied()
            .unwrap_or(TracePreset::RealityLike)
    }

    /// The values of the named matrix axis, if present.
    #[must_use]
    pub fn axis(&self, key: &str) -> Option<&[f64]> {
        self.spec
            .matrix
            .iter()
            .find(|a| a.key == key)
            .map(|a| a.values.as_slice())
    }

    /// The named axis's values, or `default` when the axis is absent.
    #[must_use]
    pub fn axis_or(&self, key: &str, default: &[f64]) -> Vec<f64> {
        self.axis(key)
            .map_or_else(|| default.to_vec(), <[f64]>::to_vec)
    }

    /// [`Self::axis_or`] rounded to `usize` (node counts, loads, sizes).
    #[must_use]
    pub fn axis_usize_or(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.axis(key) {
            Some(values) => values.iter().map(|&v| v as usize).collect(),
            None => default.to_vec(),
        }
    }

    /// A single-valued axis read as a scalar parameter (`default` when
    /// absent; the first value when the axis has several).
    #[must_use]
    pub fn scalar_or(&self, key: &str, default: f64) -> f64 {
        self.axis(key)
            .and_then(|v| v.first().copied())
            .unwrap_or(default)
    }

    /// [`Self::scalar_or`] rounded to `usize`.
    #[must_use]
    pub fn scalar_usize_or(&self, key: &str, default: usize) -> usize {
        self.axis(key)
            .and_then(|v| v.first().copied())
            .map_or(default, |v| v as usize)
    }

    /// The retry policy named by the spec, if any.
    #[must_use]
    pub fn retry(&self) -> Option<RetrySpec> {
        self.spec.run.retry
    }

    /// The fault ladder (empty outside chaos campaigns).
    #[must_use]
    pub fn faults(&self) -> &[FaultRung] {
        &self.spec.faults
    }

    /// The contention section (planner-guaranteed for joint-world).
    #[must_use]
    pub fn contention(&self) -> Option<&ContentionSpec> {
        self.spec.contention.as_ref()
    }

    /// The link model (planner-guaranteed for the bandwidth campaign).
    #[must_use]
    pub fn link(&self) -> Option<&LinkSpec> {
        self.spec.link.as_ref()
    }

    /// The runtime campaign's legs, or `default` when the spec leaves
    /// them out.
    #[must_use]
    pub fn legs_or(&self, default: &[RunLeg]) -> Vec<RunLeg> {
        self.spec
            .run
            .legs
            .clone()
            .unwrap_or_else(|| default.to_vec())
    }

    /// A deterministic one-screen summary of the plan (the `omn-scn plan`
    /// subcommand and the plan golden files).
    #[must_use]
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan {} (campaign {})\n",
            self.spec.name, self.spec.campaign
        ));
        if let Some(title) = &self.spec.title {
            out.push_str(&format!("title: {title}\n"));
        }
        let world = match &self.spec.world {
            WorldSpec::Presets(presets) => format!(
                "preset [{}]",
                presets
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            WorldSpec::Pairwise(w) => format!(
                "pairwise (nodes {}, span {} d, mean interval {} s, shape {}, world-seed {})",
                w.nodes, w.span_days, w.mean_interval_secs, w.rate_shape, w.world_seed
            ),
            WorldSpec::Sharded => "sharded communities".to_owned(),
            WorldSpec::Registry => "real-trace registry".to_owned(),
            WorldSpec::TraceFile { path, format } => format!(
                "trace file {path} (format {})",
                format.as_deref().unwrap_or("sniffed")
            ),
        };
        out.push_str(&format!("world: {world}\n"));
        out.push_str(&format!(
            "seeds: {}\n",
            self.seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if let Some(schemes) = &self.spec.run.schemes {
            out.push_str(&format!(
                "schemes: {}\n",
                schemes
                    .iter()
                    .map(|c| c.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        if let Some(retry) = self.spec.run.retry {
            out.push_str(&format!("retry: {retry:?}\n"));
        }
        if let Some(legs) = &self.spec.run.legs {
            out.push_str(&format!(
                "legs: {}\n",
                legs.iter().map(|l| l.name()).collect::<Vec<_>>().join(", ")
            ));
        }
        for axis in &self.spec.matrix {
            out.push_str(&format!(
                "axis {}: [{}]\n",
                axis.key,
                axis.values
                    .iter()
                    .map(|v| format!("{v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        if !self.spec.faults.is_empty() {
            out.push_str(&format!(
                "faults: {} rungs ({})\n",
                self.spec.faults.len(),
                self.spec
                    .faults
                    .iter()
                    .map(|r| r.name.as_str())
                    .collect::<Vec<_>>()
                    .join(" → ")
            ));
        }
        if let Some(c) = &self.spec.contention {
            out.push_str(&format!(
                "contention: budget {}, {} loads × {} priorities\n",
                c.budget.map_or("unlimited".to_owned(), |b| b.to_string()),
                c.loads.len(),
                c.priorities.len()
            ));
        }
        if let Some(link) = &self.spec.link {
            out.push_str(&format!(
                "link: bandwidth [{}] B/s (0 = unlimited)\n",
                link.bandwidth
                    .iter()
                    .map(|v| format!("{v}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out.push_str(&format!(
            "points: {} ({} axes)\n",
            self.points.len(),
            self.spec.matrix.len()
        ));
        if let Some(golden) = &self.spec.output.golden {
            out.push_str(&format!("golden: {golden}\n"));
        }
        if self.no_wall {
            out.push_str("no-wall: true\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_allowed_axis_has_a_domain() {
        for kind in CampaignKind::ALL {
            for key in allowed_axes(kind) {
                assert!(axis_domain(kind, key).is_some(), "{kind}: `{key}`");
            }
        }
    }
}
