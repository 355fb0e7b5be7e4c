//! Synthetic mobility and contact-trace generation.
//!
//! Real opportunistic-network traces (MIT Reality, Haggle/Infocom) are not
//! redistributable; the generators here reproduce the statistical features
//! that opportunistic protocols are sensitive to:
//!
//! * **heterogeneous pairwise contact rates** — some pairs meet hourly,
//!   others almost never ([`generate_pairwise`], Gamma-distributed rates);
//! * **community structure** — intra-community rates far exceed
//!   inter-community rates ([`community::CommunityConfig`]);
//! * **diurnal periodicity** — activity drops at night
//!   ([`diurnal::DiurnalProfile`]).
//!
//! [`presets`] combines these into trace presets calibrated to the published
//! aggregate statistics of the traces the reproduced paper evaluates on, and
//! [`sharded`] streams the community model at 10⁴–10⁵ nodes.

pub mod community;
pub mod diurnal;
pub mod presets;
pub mod sharded;

use omn_sim::{RngFactory, SimDuration, SimTime};
use rand::Rng;
use rand_distr::{Distribution, Exp, Gamma};

use crate::contact::{Contact, NodeId};
use crate::trace::{ContactTrace, TraceBuilder};

/// Configuration for the heterogeneous pairwise Poisson generator.
///
/// Each unordered pair gets an i.i.d. contact rate `λij ~ Gamma(shape,
/// scale)`; contacts of that pair then follow a Poisson process with rate
/// `λij`, with exponentially distributed contact durations (truncated so
/// same-pair contacts never overlap).
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Trace span.
    pub span: SimDuration,
    /// Gamma shape of the rate distribution. Values below 1 produce strong
    /// heterogeneity (a few chatty pairs, many quiet ones), matching real
    /// traces.
    pub rate_shape: f64,
    /// Mean pairwise contact rate (contacts per second per pair).
    /// The Gamma scale is derived as `mean_rate / rate_shape`.
    pub mean_rate: f64,
    /// Mean contact duration.
    pub mean_contact_duration: SimDuration,
}

impl PairwiseConfig {
    /// A reasonable default: mean inter-contact of 6 hours per pair, shape
    /// 0.8 (heterogeneous), 5-minute mean contacts.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `span` is zero.
    #[must_use]
    pub fn new(nodes: usize, span: SimDuration) -> PairwiseConfig {
        assert!(nodes > 0, "PairwiseConfig: need at least one node");
        assert!(!span.is_zero(), "PairwiseConfig: zero span");
        PairwiseConfig {
            nodes,
            span,
            rate_shape: 0.8,
            mean_rate: 1.0 / (6.0 * 3600.0),
            mean_contact_duration: SimDuration::from_secs(300.0),
        }
    }

    /// Sets the mean pairwise rate.
    #[must_use]
    pub fn mean_rate(mut self, rate: f64) -> PairwiseConfig {
        assert!(rate > 0.0 && rate.is_finite(), "mean_rate must be positive");
        self.mean_rate = rate;
        self
    }

    /// Sets the Gamma shape of the rate distribution.
    #[must_use]
    pub fn rate_shape(mut self, shape: f64) -> PairwiseConfig {
        assert!(
            shape > 0.0 && shape.is_finite(),
            "rate_shape must be positive"
        );
        self.rate_shape = shape;
        self
    }

    /// Sets the mean contact duration.
    #[must_use]
    pub fn mean_contact_duration(mut self, d: SimDuration) -> PairwiseConfig {
        self.mean_contact_duration = d;
        self
    }
}

/// Generates a trace from a [`PairwiseConfig`].
///
/// Deterministic given the factory: pair `(i, j)` always uses RNG stream
/// `("pair", i * nodes + j)`, so enlarging the node count does not disturb
/// existing pairs.
#[must_use]
pub fn generate_pairwise(config: &PairwiseConfig, factory: &RngFactory) -> ContactTrace {
    let n = config.nodes;
    let mut contacts = Vec::new();
    let mut rate_rng = factory.stream("pairwise-rates");
    let gamma = Gamma::new(config.rate_shape, config.mean_rate / config.rate_shape)
        .expect("validated shape/scale");
    for i in 0..n {
        for j in (i + 1)..n {
            let rate = gamma.sample(&mut rate_rng);
            let mut pair_rng = factory.stream_indexed("pair", (i * n + j) as u64);
            contacts.extend(poisson_pair_contacts(
                NodeId(i as u32),
                NodeId(j as u32),
                rate,
                config.span,
                config.mean_contact_duration,
                &mut pair_rng,
            ));
        }
    }
    TraceBuilder::new(n)
        .span(SimTime::ZERO + config.span)
        .contacts(contacts)
        .build()
        .expect("generator produces valid traces")
}

/// Generates the Poisson contact process of one pair.
///
/// Contact starts are a Poisson process with the given `rate`; durations are
/// exponential with the given mean, truncated so consecutive same-pair
/// contacts never overlap and nothing extends past the span.
///
/// This is the shared engine behind the pairwise and community generators;
/// it is public so custom generators can reuse it.
///
/// # Panics
///
/// Panics if `rate` is negative or not finite.
#[must_use]
pub fn poisson_pair_contacts<R: Rng>(
    a: NodeId,
    b: NodeId,
    rate: f64,
    span: SimDuration,
    mean_duration: SimDuration,
    rng: &mut R,
) -> Vec<Contact> {
    assert!(rate.is_finite() && rate >= 0.0, "invalid rate {rate}");
    let mut out = Vec::new();
    if rate <= 0.0 {
        return out;
    }
    let exp_gap = Exp::new(rate).expect("positive rate");
    let span_secs = span.as_secs();
    let mean_dur = mean_duration.as_secs().max(1e-6);
    let exp_dur = Exp::new(1.0 / mean_dur).expect("positive duration rate");

    // Sample all start times first, then truncate durations to the gap.
    let mut starts = Vec::new();
    let mut t = 0.0;
    loop {
        t += exp_gap.sample(rng);
        if t >= span_secs {
            break;
        }
        starts.push(t);
    }
    for (k, &start) in starts.iter().enumerate() {
        let gap_to_next = starts.get(k + 1).copied().unwrap_or(span_secs) - start;
        let dur = exp_dur
            .sample(rng)
            .min(0.9 * gap_to_next)
            .min(span_secs - start);
        if dur <= 0.0 {
            continue;
        }
        out.push(
            Contact::new(
                a,
                b,
                SimTime::from_secs(start),
                SimTime::from_secs(start + dur),
            )
            .expect("constructed interval is valid"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStats;

    #[test]
    fn generator_is_deterministic() {
        let cfg = PairwiseConfig::new(10, SimDuration::from_days(1.0));
        let f = RngFactory::new(5);
        let a = generate_pairwise(&cfg, &f);
        let b = generate_pairwise(&cfg, &f);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = PairwiseConfig::new(10, SimDuration::from_days(1.0));
        let a = generate_pairwise(&cfg, &RngFactory::new(1));
        let b = generate_pairwise(&cfg, &RngFactory::new(2));
        assert_ne!(a, b);
    }

    #[test]
    fn mean_rate_is_respected() {
        // High-rate single config: check total contacts ≈ pairs*rate*span.
        let span = SimDuration::from_days(5.0);
        let rate = 1.0 / 3600.0;
        let cfg = PairwiseConfig::new(12, span)
            .mean_rate(rate)
            .rate_shape(4.0);
        let trace = generate_pairwise(&cfg, &RngFactory::new(42));
        let pairs = 12.0 * 11.0 / 2.0;
        let expected = pairs * rate * span.as_secs();
        let actual = trace.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.15,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn same_pair_contacts_never_overlap() {
        let cfg = PairwiseConfig::new(6, SimDuration::from_days(2.0))
            .mean_rate(1.0 / 600.0) // very chatty: 1 contact/10 min
            .mean_contact_duration(SimDuration::from_secs(500.0)); // long contacts
        let trace = generate_pairwise(&cfg, &RngFactory::new(9));
        let mut per_pair: std::collections::HashMap<_, Vec<_>> = std::collections::HashMap::new();
        for c in trace.contacts() {
            per_pair.entry(c.pair()).or_default().push(*c);
        }
        for contacts in per_pair.values() {
            for w in contacts.windows(2) {
                assert!(w[0].end() <= w[1].start(), "overlap: {} vs {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn contacts_stay_within_span() {
        let span = SimDuration::from_hours(10.0);
        let cfg = PairwiseConfig::new(8, span).mean_rate(1.0 / 1800.0);
        let trace = generate_pairwise(&cfg, &RngFactory::new(3));
        assert!(!trace.is_empty());
        for c in trace.contacts() {
            assert!(c.end() <= SimTime::ZERO + span);
        }
    }

    #[test]
    fn heterogeneity_increases_with_small_shape() {
        let span = SimDuration::from_days(10.0);
        let skewed = generate_pairwise(
            &PairwiseConfig::new(15, span)
                .rate_shape(0.3)
                .mean_rate(1.0 / 7200.0),
            &RngFactory::new(7),
        );
        let even = generate_pairwise(
            &PairwiseConfig::new(15, span)
                .rate_shape(20.0)
                .mean_rate(1.0 / 7200.0),
            &RngFactory::new(7),
        );
        // With strong skew, fewer pairs account for the contacts.
        let s_skewed = TraceStats::compute(&skewed);
        let s_even = TraceStats::compute(&even);
        assert!(
            s_skewed.connected_pairs < s_even.connected_pairs,
            "skewed {} vs even {}",
            s_skewed.connected_pairs,
            s_even.connected_pairs
        );
    }

    #[test]
    fn zero_rate_pair_produces_nothing() {
        let mut rng = RngFactory::new(1).stream("x");
        let out = poisson_pair_contacts(
            NodeId(0),
            NodeId(1),
            0.0,
            SimDuration::from_days(1.0),
            SimDuration::from_secs(100.0),
            &mut rng,
        );
        assert!(out.is_empty());
    }
}
