//! Trace presets calibrated to the published statistics of the real traces
//! the reproduced paper evaluates on.
//!
//! The real *MIT Reality* (Eagle & Pentland) and *Haggle/Infocom'06*
//! (Chaintreau et al.) traces are not redistributable, so these presets
//! generate synthetic traces matched to their published aggregate
//! characteristics:
//!
//! | trace | nodes | span (scaled) | texture |
//! |---|---|---|---|
//! | MIT Reality | 97 | 9 months → 30 days | campus: strong communities, sparse (~5 contacts/node/day), long diurnal troughs |
//! | Infocom'06 | 78 | ~3.9 days | conference: dense (>100 contacts/node/day), weak communities, strong diurnal |
//!
//! The Reality span is compressed so experiment campaigns stay tractable;
//! rates are set so the *per-day* contact intensity matches the original
//! rather than the total count.

use omn_sim::{RngFactory, SimDuration};

use crate::trace::ContactTrace;

use super::community::{generate_community, CommunityConfig};
use super::diurnal::{apply_diurnal, DiurnalProfile};

/// A named trace preset, convenient for iterating experiments over traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePreset {
    /// Campus-style trace modeled on MIT Reality.
    RealityLike,
    /// Conference-style trace modeled on Haggle/Infocom'06.
    InfocomLike,
}

impl TracePreset {
    /// All presets, in reporting order.
    pub const ALL: [TracePreset; 2] = [TracePreset::RealityLike, TracePreset::InfocomLike];

    /// Short display name used in experiment tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TracePreset::RealityLike => "reality-like",
            TracePreset::InfocomLike => "infocom-like",
        }
    }

    /// Generates the preset trace.
    #[must_use]
    pub fn generate(self, factory: &RngFactory) -> ContactTrace {
        match self {
            TracePreset::RealityLike => reality_like(factory),
            TracePreset::InfocomLike => infocom_like(factory),
        }
    }

    /// Generates a reduced-size variant (fewer nodes, shorter span) with the
    /// same texture, for fast tests.
    #[must_use]
    pub fn generate_small(self, factory: &RngFactory) -> ContactTrace {
        match self {
            TracePreset::RealityLike => reality_like_with(24, 7.0, factory),
            TracePreset::InfocomLike => infocom_like_with(20, 2.0, factory),
        }
    }
}

impl std::fmt::Display for TracePreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A campus-style trace modeled on MIT Reality: 97 nodes over 30 days,
/// strong community structure (5 groups), ~5 contacts per node per day,
/// 5-minute mean contact duration, standard diurnal profile.
#[must_use]
pub fn reality_like(factory: &RngFactory) -> ContactTrace {
    reality_like_with(97, 30.0, factory)
}

/// [`reality_like`] with custom node count and span in days.
///
/// # Panics
///
/// Panics if `nodes == 0` or `days <= 0`.
#[must_use]
pub fn reality_like_with(nodes: usize, days: f64, factory: &RngFactory) -> ContactTrace {
    assert!(days > 0.0, "reality_like_with: days must be positive");
    let communities = (nodes / 20).max(2);
    let config = CommunityConfig::new(nodes, communities, SimDuration::from_days(days))
        // Intra-community pairs meet about every 3.5 days; inter-community
        // pairs an order of magnitude less. Combined with the diurnal factor
        // this lands at ~5 contacts/node/day for the full-size preset,
        // matching Reality's published intensity.
        .intra_mean_rate(3.3e-6)
        .inter_mean_rate(2.8e-7)
        .rate_shape(0.7)
        .mean_contact_duration(SimDuration::from_secs(300.0));
    let base = generate_community(&config, factory);
    apply_diurnal(&base, DiurnalProfile::standard_day(), factory)
}

/// A conference-style trace modeled on Haggle/Infocom'06: 78 nodes over
/// ~3.9 days, dense contacts, weak community structure (parallel session
/// tracks), 2.5-minute mean contacts, strong diurnal profile.
#[must_use]
pub fn infocom_like(factory: &RngFactory) -> ContactTrace {
    infocom_like_with(78, 3.9, factory)
}

/// [`infocom_like`] with custom node count and span in days.
///
/// # Panics
///
/// Panics if `nodes == 0` or `days <= 0`.
#[must_use]
pub fn infocom_like_with(nodes: usize, days: f64, factory: &RngFactory) -> ContactTrace {
    assert!(days > 0.0, "infocom_like_with: days must be positive");
    let communities = (nodes / 20).max(2);
    let config = CommunityConfig::new(nodes, communities, SimDuration::from_days(days))
        // Conference density: same-track attendees meet every ~4.5 hours;
        // cross-track every ~14 hours.
        .intra_mean_rate(6.0e-5)
        .inter_mean_rate(2.0e-5)
        .rate_shape(1.2)
        .mean_contact_duration(SimDuration::from_secs(150.0));
    let base = generate_community(&config, factory);
    // Conference days run long but the venue empties at night.
    let profile = DiurnalProfile::new(SimDuration::from_hours(24.0), 0.58, 0.05);
    apply_diurnal(&base, profile, factory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStats;

    #[test]
    fn reality_like_matches_calibration_band() {
        let trace = reality_like(&RngFactory::new(1));
        let stats = TraceStats::compute(&trace);
        assert_eq!(stats.node_count, 97);
        assert!((stats.span.as_days() - 30.0).abs() < 1e-9);
        assert!(
            (2.0..=9.0).contains(&stats.contacts_per_node_per_day),
            "contacts/node/day = {}",
            stats.contacts_per_node_per_day
        );
    }

    #[test]
    fn infocom_like_matches_calibration_band() {
        let trace = infocom_like(&RngFactory::new(1));
        let stats = TraceStats::compute(&trace);
        assert_eq!(stats.node_count, 78);
        assert!(
            stats.contacts_per_node_per_day > 40.0,
            "conference should be dense, got {}",
            stats.contacts_per_node_per_day
        );
        // Denser than the campus trace by an order of magnitude.
        let campus = TraceStats::compute(&reality_like(&RngFactory::new(1)));
        assert!(stats.contacts_per_node_per_day > 5.0 * campus.contacts_per_node_per_day);
    }

    #[test]
    fn small_variants_are_small() {
        let f = RngFactory::new(2);
        for preset in TracePreset::ALL {
            let small = preset.generate_small(&f);
            assert!(small.node_count() <= 24);
            assert!(!small.is_empty(), "{preset} small variant is empty");
        }
    }

    #[test]
    fn preset_names() {
        assert_eq!(TracePreset::RealityLike.name(), "reality-like");
        assert_eq!(TracePreset::InfocomLike.to_string(), "infocom-like");
    }

    #[test]
    fn presets_are_deterministic() {
        let f = RngFactory::new(77);
        assert_eq!(
            reality_like_with(20, 5.0, &f),
            reality_like_with(20, 5.0, &f)
        );
    }
}
