//! Pairwise-exponential model fitting from an ingested trace.
//!
//! The freshness protocol's analysis assumes pairwise Poisson contacts:
//! pair `(i, j)` meets at rate `λij`, with the rates heterogeneous across
//! pairs. [`Calibration::fit`] estimates that model from a real trace:
//!
//! * per-pair rates via the cumulative MLE `λ̂ij = nij / span` (the same
//!   estimator protocol nodes run online, replayed through
//!   [`PairRateTable::observe_trace`]);
//! * the across-pair rate distribution summarized as a Gamma fit by the
//!   method of moments (`shape = mean² / variance`), matching the
//!   generative model of
//!   [`generate_pairwise`](omn_contacts::synth::generate_pairwise);
//! * a goodness-of-fit figure: the one-sample Kolmogorov–Smirnov distance
//!   between the pooled per-pair-normalized inter-contact times and the
//!   unit exponential they would follow if contacts really were Poisson.
//!
//! [`Calibration::preset`] then emits the fitted [`PairwiseConfig`] — the
//! calibrated synthetic fallback used when a dataset file is absent — and
//! [`calibration_check`] quantifies how close a synthetic trace's aggregate
//! statistics come to the real one (the E16 calibration-check table).

use std::collections::HashMap;

use omn_contacts::estimate::{EstimatorKind, PairRateTable};
use omn_contacts::synth::PairwiseConfig;
use omn_contacts::{ContactTrace, NodeId, TraceStats};
use omn_sim::{SimDuration, SimTime};

/// Smallest mean rate the fitted preset will carry (an empty trace still
/// yields a generable config).
const MIN_MEAN_RATE: f64 = 1e-9;

/// Gamma-shape clamp bounds: below, generation degenerates to a handful of
/// pairs; above, rates are effectively homogeneous.
const SHAPE_BOUNDS: (f64, f64) = (0.05, 10.0);

/// A pairwise-exponential model fitted to a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Population size.
    pub node_count: usize,
    /// Trace span.
    pub span: SimTime,
    /// Total contacts observed.
    pub contacts: usize,
    /// Aggregate contact intensity (the E1 headline statistic).
    pub contacts_per_node_per_day: f64,
    /// Mean pairwise rate over all unordered pairs (contacts/s/pair).
    pub mean_rate: f64,
    /// Method-of-moments Gamma shape of the across-pair rate distribution,
    /// clamped to `[0.05, 10]`.
    pub rate_shape: f64,
    /// Mean contact duration.
    pub mean_contact_duration: SimDuration,
    /// Pairs that met at least once.
    pub observed_pairs: usize,
    /// Fraction of all unordered pairs that ever met.
    pub pair_coverage: f64,
    /// One-sample KS distance of per-pair-normalized inter-contact times
    /// against the unit exponential; `None` when no pair met three times.
    pub ict_ks_exponential: Option<f64>,
    /// Inter-contact samples behind the KS figure.
    pub ict_samples: usize,
}

impl Calibration {
    /// Fits the pairwise-exponential model to `trace`.
    #[must_use]
    pub fn fit(trace: &ContactTrace) -> Calibration {
        let n = trace.node_count();
        let span = trace.span();
        let span_secs = span.as_secs();
        let stats = TraceStats::compute(trace);

        // Per-pair cumulative-MLE rates, replayed through the same estimator
        // table the protocol nodes maintain online.
        let mut table = PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO);
        table.observe_trace(trace);
        let end = if span_secs > 0.0 {
            span
        } else {
            SimTime::from_secs(1.0)
        };
        let graph = table.to_graph(n, end);

        // Method-of-moments Gamma fit over ALL unordered pairs (never-met
        // pairs contribute zero rates — heterogeneity includes them).
        let pair_count = n * n.saturating_sub(1) / 2;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let r = graph.rate(NodeId(i as u32), NodeId(j as u32));
                sum += r;
                sum_sq += r * r;
            }
        }
        let mean_rate = if pair_count > 0 {
            sum / pair_count as f64
        } else {
            0.0
        };
        let variance = if pair_count > 0 {
            (sum_sq / pair_count as f64 - mean_rate * mean_rate).max(0.0)
        } else {
            0.0
        };
        let rate_shape = if variance > 0.0 && mean_rate > 0.0 {
            (mean_rate * mean_rate / variance).clamp(SHAPE_BOUNDS.0, SHAPE_BOUNDS.1)
        } else {
            SHAPE_BOUNDS.1
        };

        let (ict_ks_exponential, ict_samples) = exponential_ks(trace);

        Calibration {
            node_count: n,
            span,
            contacts: trace.len(),
            contacts_per_node_per_day: stats.contacts_per_node_per_day,
            mean_rate,
            rate_shape,
            mean_contact_duration: SimDuration::from_secs(
                stats.contact_duration.as_ref().map_or(300.0, |s| s.mean),
            ),
            observed_pairs: table.observed_pairs(),
            pair_coverage: if pair_count > 0 {
                table.observed_pairs() as f64 / pair_count as f64
            } else {
                0.0
            },
            ict_ks_exponential,
            ict_samples,
        }
    }

    /// The fitted generative config: running
    /// [`generate_pairwise`](omn_contacts::synth::generate_pairwise) on it
    /// produces the calibrated synthetic stand-in for the dataset.
    #[must_use]
    pub fn preset(&self) -> PairwiseConfig {
        let span_secs = self.span.as_secs().max(1.0);
        PairwiseConfig::new(self.node_count.max(2), SimDuration::from_secs(span_secs))
            .mean_rate(self.mean_rate.max(MIN_MEAN_RATE))
            .rate_shape(self.rate_shape)
            .mean_contact_duration(self.mean_contact_duration.max(SimDuration::from_secs(1.0)))
    }
}

/// Pools per-pair inter-contact times, each normalized by its own pair's
/// mean, and measures their one-sample KS distance against `Exp(1)`.
///
/// Under the pairwise-exponential model every normalized gap is a unit
/// exponential draw regardless of the pair's rate, so the distance is a
/// direct goodness-of-fit figure for the model itself. Only pairs with at
/// least three contacts (two gaps) contribute — a single gap normalized by
/// itself is identically 1.
fn exponential_ks(trace: &ContactTrace) -> (Option<f64>, usize) {
    let mut per_pair: HashMap<(NodeId, NodeId), Vec<f64>> = HashMap::new();
    for c in trace.contacts() {
        per_pair
            .entry(c.pair())
            .or_default()
            .push(c.start().as_secs());
    }
    let mut normalized = Vec::new();
    for starts in per_pair.values() {
        if starts.len() < 3 {
            continue;
        }
        let gaps: Vec<f64> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        if mean <= 0.0 {
            continue;
        }
        normalized.extend(gaps.iter().map(|g| g / mean));
    }
    if normalized.is_empty() {
        return (None, 0);
    }
    normalized.sort_by(f64::total_cmp);
    let n = normalized.len();
    let mut d = 0.0f64;
    for (i, x) in normalized.iter().enumerate() {
        let f = 1.0 - (-x).exp();
        let lo = i as f64 / n as f64;
        let hi = (i + 1) as f64 / n as f64;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    (Some(d), n)
}

/// How close a synthetic trace's aggregate statistics come to a real one —
/// the E16 calibration-check row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationCheck {
    /// Contacts/node/day of the real trace.
    pub real_intensity: f64,
    /// Contacts/node/day of the synthetic trace.
    pub synth_intensity: f64,
    /// `synth_intensity / real_intensity` (1.0 is perfect).
    pub intensity_ratio: f64,
    /// Mean inter-contact time of the real trace, seconds (`None` if no
    /// pair meets twice).
    pub real_mean_ict: Option<f64>,
    /// Mean inter-contact time of the synthetic trace, seconds.
    pub synth_mean_ict: Option<f64>,
    /// Two-sample KS distance between the inter-contact CDFs (`None` when
    /// either trace lacks repeat meetings).
    pub ict_ks: Option<f64>,
}

/// Compares a synthetic trace against the real trace it was calibrated to.
#[must_use]
pub fn calibration_check(real: &ContactTrace, synth: &ContactTrace) -> CalibrationCheck {
    let real_stats = TraceStats::compute(real);
    let synth_stats = TraceStats::compute(synth);
    let real_cdf = TraceStats::inter_contact_cdf(real);
    let synth_cdf = TraceStats::inter_contact_cdf(synth);
    let ict_ks = match (&real_cdf, &synth_cdf) {
        (Some(r), Some(s)) => Some(r.ks_distance(s)),
        _ => None,
    };
    CalibrationCheck {
        real_intensity: real_stats.contacts_per_node_per_day,
        synth_intensity: synth_stats.contacts_per_node_per_day,
        intensity_ratio: if real_stats.contacts_per_node_per_day > 0.0 {
            synth_stats.contacts_per_node_per_day / real_stats.contacts_per_node_per_day
        } else {
            f64::NAN
        },
        real_mean_ict: real_stats.inter_contact.as_ref().map(|s| s.mean),
        synth_mean_ict: synth_stats.inter_contact.as_ref().map(|s| s.mean),
        ict_ks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omn_contacts::synth::generate_pairwise;
    use omn_sim::RngFactory;

    fn synthetic(nodes: usize, days: f64, mean_rate: f64, shape: f64) -> ContactTrace {
        let config = PairwiseConfig::new(nodes, SimDuration::from_days(days))
            .mean_rate(mean_rate)
            .rate_shape(shape);
        generate_pairwise(&config, &RngFactory::new(42))
    }

    #[test]
    fn fit_recovers_mean_rate_of_pairwise_model() {
        let true_rate = 1.0 / 7200.0; // every 2 hours per pair
        let trace = synthetic(30, 5.0, true_rate, 1.0);
        let cal = Calibration::fit(&trace);
        assert!(
            (cal.mean_rate / true_rate - 1.0).abs() < 0.25,
            "fitted {} vs true {true_rate}",
            cal.mean_rate
        );
        assert!(cal.pair_coverage > 0.9, "dense model should cover pairs");
    }

    #[test]
    fn fit_detects_heterogeneity_direction() {
        let uniform = Calibration::fit(&synthetic(25, 5.0, 1.0 / 3600.0, 8.0));
        let skewed = Calibration::fit(&synthetic(25, 5.0, 1.0 / 3600.0, 0.3));
        assert!(
            uniform.rate_shape > skewed.rate_shape,
            "uniform {} should exceed skewed {}",
            uniform.rate_shape,
            skewed.rate_shape
        );
    }

    #[test]
    fn pairwise_model_passes_its_own_gof() {
        let trace = synthetic(25, 5.0, 1.0 / 3600.0, 1.0);
        let cal = Calibration::fit(&trace);
        let ks = cal
            .ict_ks_exponential
            .expect("dense trace has repeat pairs");
        assert!(cal.ict_samples > 500, "samples {}", cal.ict_samples);
        assert!(ks < 0.1, "model trace should fit its own model, KS={ks}");
    }

    #[test]
    fn preset_round_trips_through_generation() {
        let real = synthetic(25, 5.0, 1.0 / 5400.0, 0.8);
        let cal = Calibration::fit(&real);
        let synth = generate_pairwise(&cal.preset(), &RngFactory::new(7));
        let check = calibration_check(&real, &synth);
        assert!(
            (0.6..=1.6).contains(&check.intensity_ratio),
            "intensity ratio {}",
            check.intensity_ratio
        );
        let ks = check.ict_ks.expect("both traces have repeat meetings");
        assert!(ks < 0.35, "inter-contact CDFs should be close, KS={ks}");
    }

    #[test]
    fn empty_trace_still_yields_generable_preset() {
        let trace = omn_contacts::TraceBuilder::new(4)
            .span(SimTime::from_days(1.0))
            .build()
            .unwrap();
        let cal = Calibration::fit(&trace);
        assert_eq!(cal.contacts, 0);
        assert!(cal.ict_ks_exponential.is_none());
        // Must not panic: PairwiseConfig validates its inputs.
        let _ = generate_pairwise(&cal.preset(), &RngFactory::new(1));
    }
}
