//! Deterministic fault injection for contact-driven simulations.
//!
//! A [`FaultPlan`] derives every fault a simulation run will experience
//! from a [`FaultConfig`] and an [`RngFactory`], so that runs are fully
//! reproducible: the same seed, population, and config always yield the same
//! downtime windows, departures, and transmission-loss draws. Each fault
//! kind draws from its own named stream, so enabling one kind never perturbs
//! another — and a plan whose probabilities are all zero consumes no
//! randomness at all, leaving fault-free runs bit-identical to runs without
//! a plan.
//!
//! A plan needs only the node count and span up front — never the contacts
//! themselves — so it works unchanged over streaming
//! [`ContactSource`](crate::ContactSource)s whose contact count is unknown
//! until the stream ends.
//!
//! Fault kinds (all independent, all optional):
//!
//! * **Transmission loss** — each attempted data transfer fails i.i.d. with
//!   probability [`FaultConfig::transmission_loss`].
//! * **Transient downtime (churn)** — a fraction of nodes alternate between
//!   exponentially distributed up and down periods; contacts involving a
//!   down node are suppressed entirely.
//! * **Permanent departures** — a fraction of nodes leave at a fixed point
//!   in the trace and never return. The trace is not rewritten: the plan
//!   reports the departed set and models departure as a downtime window
//!   that never ends.
//! * **Stale-version corruption** — an adversarial fault: a data transfer
//!   delivers a *stale* version in place of the real payload, one a naive
//!   receiver (no version check) would happily absorb. The protocol's
//!   version-monotonicity check must reject it; the invariant oracles
//!   verify that it does.
//! * **Crash with state loss** — like churn, but the node comes back with
//!   empty protocol state (hierarchy position, estimator rows, relay
//!   copies) and must re-attach from scratch. Rejoins from these windows
//!   carry [`Rejoin::state_loss`].
//! * **Correlated regional outages** — a whole region (contiguous block of
//!   node ids, matching the community generators' id-block layout) goes
//!   down together for a window, modelling a powered-down building or
//!   jammed area rather than independent per-node churn.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use omn_sim::{RngFactory, SimDuration, SimTime};

use crate::NodeId;

/// Transient node downtime (churn): nodes go down and come back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DowntimeConfig {
    /// Fraction of nodes (in `[0, 1]`) subject to churn.
    pub node_fraction: f64,
    /// Mean length of an up period (exponentially distributed).
    pub mean_uptime: SimDuration,
    /// Mean length of a down period (exponentially distributed).
    pub mean_downtime: SimDuration,
    /// A node exempt from churn (typically the data source).
    pub exempt: Option<NodeId>,
}

/// Permanent node departures: nodes leave partway through and never return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepartureConfig {
    /// Fraction of eligible nodes (in `[0, 1]`) that depart. The count is
    /// `round(fraction * pool)` where the pool excludes [`Self::exempt`].
    pub fraction: f64,
    /// When the departure happens, as a fraction of the trace span in
    /// `[0, 1]` (e.g. `0.5` = halfway through).
    pub at_frac: f64,
    /// A node exempt from departure (typically the data source).
    pub exempt: Option<NodeId>,
}

/// Correlated regional outages: a whole contiguous block of node ids goes
/// down together for a window.
///
/// Nodes are partitioned into [`regions`](RegionalOutageConfig::regions)
/// equal contiguous id blocks — the same layout the community generators
/// use — and each outage event takes one uniformly chosen region down for
/// an exponentially distributed window starting uniformly in the span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionalOutageConfig {
    /// Number of regions the population is partitioned into (≥ 1).
    pub regions: usize,
    /// Number of outage events drawn over the span.
    pub outages: u32,
    /// Mean outage duration (exponentially distributed).
    pub mean_duration: SimDuration,
}

/// Configuration for a [`FaultPlan`]. The default is fault-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability (in `[0, 1]`) that any single attempted data transfer
    /// fails.
    pub transmission_loss: f64,
    /// Transient node downtime, or `None` for no churn.
    pub downtime: Option<DowntimeConfig>,
    /// Permanent departures, or `None` for none.
    pub departures: Option<DepartureConfig>,
    /// Probability (in `[0, 1]`) that a successful data transfer delivers
    /// a stale version in place of the real payload (adversarial replay).
    pub corruption: f64,
    /// Crash-with-state-loss windows, or `None`. Shares the
    /// [`DowntimeConfig`] shape with churn, but rejoins from these windows
    /// report [`Rejoin::state_loss`]: the node must rebuild its protocol
    /// state from scratch.
    pub crashes: Option<DowntimeConfig>,
    /// Correlated regional outages, or `None`.
    pub regional: Option<RegionalOutageConfig>,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            transmission_loss: 0.0,
            downtime: None,
            departures: None,
            corruption: 0.0,
            crashes: None,
            regional: None,
        }
    }
}

/// One node returning to the network after a downtime, crash, or regional
/// outage window, precomputed by [`FaultPlan::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rejoin {
    /// When the node comes back.
    pub at: SimTime,
    /// The rejoining node.
    pub node: NodeId,
    /// Whether the window was a crash: the node lost all protocol state
    /// (hierarchy position, estimator rows, pending copies) and must
    /// re-attach from scratch. Churn and regional-outage rejoins keep
    /// their state (`false`).
    pub state_loss: bool,
}

/// A reproducible fault schedule for one run over one node population.
/// Built once with [`FaultPlan::build`]; queried by the simulator as the run
/// unfolds. Downtime and departures are materialized up front (they depend
/// only on the population and span), so the plan never needs the contact
/// count.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    /// Per-node sorted `[from, to)` downtime windows. Departures appear as a
    /// final window ending at `SimTime::from_secs(f64::MAX)`. Crash and
    /// regional-outage windows are kept separately (`crash_windows`,
    /// `regional_windows`).
    down_windows: Vec<Vec<(SimTime, SimTime)>>,
    /// Per-node sorted `[from, to)` crash windows (state lost on rejoin).
    crash_windows: Vec<Vec<(SimTime, SimTime)>>,
    /// Sorted `[from, to)` windows during which a whole region is down,
    /// with the region index.
    regional_windows: Vec<(SimTime, SimTime, usize)>,
    /// Number of regions the population is partitioned into (0 = no
    /// regional faults configured).
    regions: usize,
    /// Nodes that permanently depart, sorted.
    departed: Vec<NodeId>,
    /// Every rejoin within the build span, sorted, precomputed once at
    /// build time from all three window kinds.
    rejoins: Vec<Rejoin>,
    /// Stream for per-transfer loss draws. Untouched when
    /// `transmission_loss` is zero.
    tx_rng: StdRng,
    /// Stream for per-transfer corruption draws. Untouched when
    /// `corruption` is zero.
    corrupt_rng: StdRng,
}

/// Samples an exponential with the given mean (seconds) via inversion.
fn exp_secs(rng: &mut StdRng, mean: f64) -> f64 {
    // gen::<f64>() is in [0, 1), so 1 - u is in (0, 1] and ln is finite.
    -(1.0 - rng.gen::<f64>()).ln() * mean
}

fn assert_probability(value: f64, what: &str) {
    assert!(
        (0.0..=1.0).contains(&value),
        "FaultPlan: {what} must be in [0, 1], got {value}"
    );
}

/// The region a node belongs to: `regions` equal contiguous id blocks
/// (the community generators' layout). Returns 0 when no regional faults
/// are configured (`regions == 0`).
fn region_of(node: NodeId, node_count: usize, regions: usize) -> usize {
    if regions == 0 || node_count == 0 {
        return 0;
    }
    (node.index() * regions / node_count).min(regions - 1)
}

impl FaultPlan {
    /// Builds a fault schedule for a population of `node_count` nodes over
    /// `span` from `config`.
    ///
    /// Draws from the factory streams `"fault-downtime"` (indexed per
    /// node), `"fault-departures"`,
    /// `"fault-transmissions"`, `"fault-crashes"` (indexed per node),
    /// `"fault-regional"`, and `"fault-corruption"` — never from streams
    /// the simulator itself uses, so adding a plan cannot perturb protocol
    /// or workload randomness. Every fault kind only draws when its
    /// intensity is nonzero, so e.g. enabling corruption never shifts the
    /// downtime schedule.
    ///
    /// # Panics
    ///
    /// Panics if any probability or fraction lies outside `[0, 1]`, if a
    /// downtime/crash config has a non-positive mean up/down period, or if
    /// a regional config has zero regions or a non-positive mean duration.
    #[must_use]
    pub fn build(
        config: FaultConfig,
        node_count: usize,
        span: SimTime,
        factory: &RngFactory,
    ) -> FaultPlan {
        assert_probability(config.transmission_loss, "transmission_loss");
        assert_probability(config.corruption, "corruption");
        let nodes = || (0..node_count as u32).map(NodeId);

        // Churn and crash windows share one generator, differing only in
        // the named stream and the config they read.
        let windows_from = |dt: DowntimeConfig, stream: &str, what: &str| {
            assert_probability(dt.node_fraction, &format!("{what}.node_fraction"));
            assert!(
                dt.mean_uptime.as_secs() > 0.0 && dt.mean_downtime.as_secs() > 0.0,
                "FaultPlan: {what} mean up/down periods must be positive"
            );
            let mut windows: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); node_count];
            for node in nodes() {
                if Some(node) == dt.exempt {
                    continue;
                }
                let mut rng = factory.stream_indexed(stream, u64::from(node.0));
                if !rng.gen_bool(dt.node_fraction) {
                    continue;
                }
                let mut t = exp_secs(&mut rng, dt.mean_uptime.as_secs());
                while t < span.as_secs() {
                    let down = exp_secs(&mut rng, dt.mean_downtime.as_secs());
                    windows[node.index()]
                        .push((SimTime::from_secs(t), SimTime::from_secs(t + down)));
                    t += down + exp_secs(&mut rng, dt.mean_uptime.as_secs());
                }
            }
            windows
        };

        let mut down_windows = match config.downtime {
            Some(dt) => windows_from(dt, "fault-downtime", "downtime"),
            None => vec![Vec::new(); node_count],
        };
        let crash_windows = match config.crashes {
            Some(dt) => windows_from(dt, "fault-crashes", "crashes"),
            None => vec![Vec::new(); node_count],
        };

        let mut regional_windows: Vec<(SimTime, SimTime, usize)> = Vec::new();
        let mut regions = 0;
        if let Some(reg) = config.regional {
            assert!(
                reg.regions > 0,
                "FaultPlan: regional.regions must be positive"
            );
            assert!(
                reg.mean_duration.as_secs() > 0.0,
                "FaultPlan: regional.mean_duration must be positive"
            );
            regions = reg.regions;
            if reg.outages > 0 {
                let mut rng = factory.stream("fault-regional");
                for _ in 0..reg.outages {
                    let region = rng.gen_range(0..reg.regions);
                    let from = rng.gen::<f64>() * span.as_secs();
                    let len = exp_secs(&mut rng, reg.mean_duration.as_secs());
                    regional_windows.push((
                        SimTime::from_secs(from),
                        SimTime::from_secs(from + len),
                        region,
                    ));
                }
                regional_windows.sort_unstable();
            }
        }

        let mut departed: Vec<NodeId> = Vec::new();
        if let Some(dep) = config.departures {
            assert_probability(dep.fraction, "departures.fraction");
            assert_probability(dep.at_frac, "departures.at_frac");
            let mut pool: Vec<NodeId> = nodes().filter(|&n| Some(n) != dep.exempt).collect();
            let mut rng = factory.stream("fault-departures");
            pool.shuffle(&mut rng);
            // Round over the eligible pool, not floor over the raw node
            // count: a 10% sweep over 41 candidates should drop 4 nodes,
            // not silently compute against a base that includes the exempt
            // source.
            let count = (dep.fraction * pool.len() as f64).round() as usize;
            let at = SimTime::from_secs(span.as_secs() * dep.at_frac);
            departed = pool.into_iter().take(count).collect();
            departed.sort_unstable();
            for &n in &departed {
                down_windows[n.index()].push((at, SimTime::from_secs(f64::MAX)));
            }
        }
        for windows in &mut down_windows {
            windows.sort_unstable();
        }

        // Precompute every rejoin inside the span once, so the hot path
        // hands out a slice instead of re-sorting a fresh Vec per query.
        let mut rejoins: Vec<Rejoin> = Vec::new();
        let mut collect = |windows: &[Vec<(SimTime, SimTime)>], state_loss: bool| {
            for (i, ws) in windows.iter().enumerate() {
                for &(_, to) in ws {
                    if to < span {
                        rejoins.push(Rejoin {
                            at: to,
                            node: NodeId(i as u32),
                            state_loss,
                        });
                    }
                }
            }
        };
        collect(&down_windows, false);
        collect(&crash_windows, true);
        for &(_, to, region) in &regional_windows {
            if to >= span {
                continue;
            }
            for node in nodes() {
                if region_of(node, node_count, regions) == region {
                    rejoins.push(Rejoin {
                        at: to,
                        node,
                        state_loss: false,
                    });
                }
            }
        }
        rejoins.sort_unstable();

        FaultPlan {
            config,
            down_windows,
            crash_windows,
            regional_windows,
            regions,
            departed,
            rejoins,
            tx_rng: factory.stream("fault-transmissions"),
            corrupt_rng: factory.stream("fault-corruption"),
        }
    }

    /// The configuration this plan was built from.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when no fault in this plan can ever fire.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.config.transmission_loss == 0.0
            && self.config.corruption == 0.0
            && self.down_windows.iter().all(Vec::is_empty)
            && self.crash_windows.iter().all(Vec::is_empty)
            && self.regional_windows.is_empty()
    }

    /// Whether `node` is down (churned out, departed, crashed, or inside a
    /// regional outage) at instant `at`.
    #[must_use]
    pub fn node_down(&self, node: NodeId, at: SimTime) -> bool {
        let inside = |ws: &[(SimTime, SimTime)]| ws.iter().any(|&(from, to)| from <= at && at < to);
        self.down_windows
            .get(node.index())
            .is_some_and(|ws| inside(ws))
            || self
                .crash_windows
                .get(node.index())
                .is_some_and(|ws| inside(ws))
            || self.region_down(node, at)
    }

    /// Whether `node`'s region is inside an outage window at `at`.
    fn region_down(&self, node: NodeId, at: SimTime) -> bool {
        if self.regional_windows.is_empty() {
            return false;
        }
        let region = region_of(node, self.down_windows.len(), self.regions);
        self.regional_windows
            .iter()
            .any(|&(from, to, r)| r == region && from <= at && at < to)
    }

    /// The sorted `[from, to)` downtime windows of `node`. Departure shows
    /// up as a window ending at `SimTime::from_secs(f64::MAX)`. Crash and
    /// regional-outage windows are reported separately
    /// ([`crash_windows_of`](FaultPlan::crash_windows_of),
    /// [`regional_windows`](FaultPlan::regional_windows)).
    #[must_use]
    pub fn down_windows_of(&self, node: NodeId) -> &[(SimTime, SimTime)] {
        self.down_windows
            .get(node.index())
            .map_or(&[], Vec::as_slice)
    }

    /// The sorted `[from, to)` crash windows of `node` (state lost on
    /// rejoin).
    #[must_use]
    pub fn crash_windows_of(&self, node: NodeId) -> &[(SimTime, SimTime)] {
        self.crash_windows
            .get(node.index())
            .map_or(&[], Vec::as_slice)
    }

    /// The sorted `[from, to)` regional outage windows with their region
    /// index.
    #[must_use]
    pub fn regional_windows(&self) -> &[(SimTime, SimTime, usize)] {
        &self.regional_windows
    }

    /// The nodes that permanently depart, sorted by id.
    #[must_use]
    pub fn departed(&self) -> &[NodeId] {
        &self.departed
    }

    /// All rejoins within the build span, sorted: one [`Rejoin`] per
    /// downtime, crash, or regional-outage window that ends before the end
    /// of the trace. Departed nodes never rejoin. Precomputed once at
    /// [`build`](FaultPlan::build) time, mirroring
    /// [`down_windows_of`](FaultPlan::down_windows_of) — queries are
    /// allocation-free.
    #[must_use]
    pub fn rejoin_events(&self) -> &[Rejoin] {
        &self.rejoins
    }

    /// Draws whether the next attempted data transfer fails. Consumes no
    /// randomness when the configured loss probability is zero, so inert
    /// plans stay bit-identical to no plan at all.
    pub fn transfer_fails(&mut self) -> bool {
        self.config.transmission_loss > 0.0 && self.tx_rng.gen_bool(self.config.transmission_loss)
    }

    /// Draws whether the next successful data transfer is corrupted into a
    /// stale-version replay. Consumes no randomness when the configured
    /// corruption probability is zero, so inert plans stay bit-identical
    /// to no plan at all.
    pub fn transfer_corrupts(&mut self) -> bool {
        self.config.corruption > 0.0 && self.corrupt_rng.gen_bool(self.config.corruption)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_pairwise, PairwiseConfig};
    use crate::ContactTrace;

    fn trace(seed: u64) -> ContactTrace {
        let config = PairwiseConfig::new(12, SimDuration::from_days(2.0));
        generate_pairwise(&config, &RngFactory::new(seed))
    }

    fn build_for(config: FaultConfig, t: &ContactTrace, factory: &RngFactory) -> FaultPlan {
        FaultPlan::build(config, t.node_count(), t.span(), factory)
    }

    #[test]
    fn default_config_is_inert() {
        let t = trace(1);
        let mut plan = build_for(FaultConfig::default(), &t, &RngFactory::new(1));
        assert!(plan.is_inert());
        assert!(plan.departed().is_empty());
        assert!((0..32).all(|_| !plan.transfer_fails()));
        for n in t.nodes() {
            assert!(!plan.node_down(n, SimTime::from_hours(10.0)));
        }
    }

    #[test]
    fn departure_count_rounds_over_the_eligible_pool() {
        let t = trace(2);
        let exempt = NodeId(0);
        // 12 nodes, 1 exempt → pool of 11; 30% of 11 = 3.3 → 3 departures,
        // where a floor over the full node count would give 3 as well but a
        // floor after excluding the source from a 41-node pool historically
        // drifted. Check the exact rounding contract instead.
        let config = FaultConfig {
            departures: Some(DepartureConfig {
                fraction: 0.3,
                at_frac: 0.5,
                exempt: Some(exempt),
            }),
            ..FaultConfig::default()
        };
        let plan = build_for(config, &t, &RngFactory::new(2));
        assert_eq!(plan.departed().len(), (0.3f64 * 11.0).round() as usize);
        assert!(!plan.departed().contains(&exempt));
        // Departed nodes are down from the departure instant to forever.
        let at = SimTime::from_secs(t.span().as_secs() * 0.5);
        for &n in plan.departed() {
            assert!(!plan.node_down(n, SimTime::ZERO));
            assert!(plan.node_down(n, at));
            assert!(plan.node_down(n, t.span()));
        }
        // And they never rejoin.
        assert!(plan
            .rejoin_events()
            .iter()
            .all(|r| !plan.departed().contains(&r.node)));
    }

    #[test]
    fn downtime_windows_are_sorted_and_disjoint() {
        let t = trace(3);
        let config = FaultConfig {
            downtime: Some(DowntimeConfig {
                node_fraction: 1.0,
                mean_uptime: SimDuration::from_hours(6.0),
                mean_downtime: SimDuration::from_hours(3.0),
                exempt: Some(NodeId(0)),
            }),
            ..FaultConfig::default()
        };
        let plan = build_for(config, &t, &RngFactory::new(3));
        assert!(plan.down_windows_of(NodeId(0)).is_empty());
        let mut any = false;
        for n in t.nodes() {
            let ws = plan.down_windows_of(n);
            any |= !ws.is_empty();
            for w in ws {
                assert!(w.0 < w.1);
            }
            for pair in ws.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "overlapping windows for {n:?}");
            }
        }
        assert!(any, "full-fraction churn produced no downtime at all");
        // Every window that closes inside the trace is a rejoin event,
        // sorted, and churn rejoins keep node state.
        let rejoins = plan.rejoin_events();
        assert!(rejoins.windows(2).all(|p| p[0] <= p[1]));
        assert!(rejoins.iter().all(|r| !r.state_loss));
        let windows_in_span: usize = t
            .nodes()
            .map(|n| {
                plan.down_windows_of(n)
                    .iter()
                    .filter(|w| w.1 < t.span())
                    .count()
            })
            .sum();
        assert_eq!(rejoins.len(), windows_in_span);
    }

    #[test]
    fn crash_windows_rejoin_with_state_loss() {
        let t = trace(9);
        let config = FaultConfig {
            crashes: Some(DowntimeConfig {
                node_fraction: 1.0,
                mean_uptime: SimDuration::from_hours(6.0),
                mean_downtime: SimDuration::from_hours(2.0),
                exempt: Some(NodeId(0)),
            }),
            ..FaultConfig::default()
        };
        let plan = build_for(config, &t, &RngFactory::new(9));
        assert!(!plan.is_inert());
        assert!(plan.crash_windows_of(NodeId(0)).is_empty());
        let rejoins = plan.rejoin_events();
        assert!(!rejoins.is_empty(), "full-fraction crashes never rejoined");
        assert!(rejoins.iter().all(|r| r.state_loss));
        // Crashed nodes are down inside their windows.
        let mut checked = false;
        for n in t.nodes() {
            if let Some(&(from, to)) = plan.crash_windows_of(n).first() {
                let mid = SimTime::from_secs((from.as_secs() + to.as_secs()) / 2.0);
                assert!(plan.node_down(n, mid));
                assert!(plan.down_windows_of(n).is_empty());
                checked = true;
            }
        }
        assert!(checked);
    }

    #[test]
    fn regional_outages_take_whole_regions_down_together() {
        let t = trace(10);
        let config = FaultConfig {
            regional: Some(RegionalOutageConfig {
                regions: 3,
                outages: 4,
                mean_duration: SimDuration::from_hours(4.0),
            }),
            ..FaultConfig::default()
        };
        let plan = build_for(config, &t, &RngFactory::new(10));
        assert!(!plan.is_inert());
        let windows = plan.regional_windows();
        assert_eq!(windows.len(), 4);
        assert!(windows.windows(2).all(|p| p[0] <= p[1]));
        // Every node of the affected region is down together; nodes of
        // other regions are untouched (no churn configured).
        let (from, to, region) = windows[0];
        let mid = SimTime::from_secs((from.as_secs() + to.as_secs().min(t.span().as_secs())) / 2.0);
        let nodes_per_region = 12 / 3;
        for n in t.nodes() {
            let expected = n.index() / nodes_per_region == region;
            assert_eq!(
                plan.node_down(n, mid),
                expected
                    || windows.iter().any(|&(f, t2, r)| {
                        r == n.index() / nodes_per_region && f <= mid && mid < t2
                    }),
                "node {n:?} region membership mismatch"
            );
        }
        // Outage ends inside the span rejoin every node of the region,
        // with state intact.
        for r in plan.rejoin_events() {
            assert!(!r.state_loss);
        }
    }

    #[test]
    fn corruption_draws_are_reproducible_and_lazy() {
        let factory = RngFactory::new(11);
        let config = FaultConfig {
            corruption: 0.4,
            ..FaultConfig::default()
        };
        let mut p1 = FaultPlan::build(config, 5, SimTime::from_hours(1.0), &factory);
        let mut p2 = FaultPlan::build(config, 5, SimTime::from_hours(1.0), &factory);
        let a: Vec<bool> = (0..128).map(|_| p1.transfer_corrupts()).collect();
        let b: Vec<bool> = (0..128).map(|_| p2.transfer_corrupts()).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "40% corruption never fired");
        assert!(a.iter().any(|&x| !x), "40% corruption always fired");
        // Zero-probability corruption draws nothing and stays inert.
        let mut inert = FaultPlan::build(
            FaultConfig::default(),
            5,
            SimTime::from_hours(1.0),
            &factory,
        );
        assert!(inert.is_inert());
        assert!((0..64).all(|_| !inert.transfer_corrupts()));
    }

    #[test]
    fn plans_are_reproducible() {
        let t = trace(4);
        let config = FaultConfig {
            transmission_loss: 0.35,
            downtime: Some(DowntimeConfig {
                node_fraction: 0.5,
                mean_uptime: SimDuration::from_hours(8.0),
                mean_downtime: SimDuration::from_hours(2.0),
                exempt: None,
            }),
            departures: Some(DepartureConfig {
                fraction: 0.25,
                at_frac: 0.6,
                exempt: None,
            }),
            corruption: 0.15,
            crashes: Some(DowntimeConfig {
                node_fraction: 0.4,
                mean_uptime: SimDuration::from_hours(12.0),
                mean_downtime: SimDuration::from_hours(1.0),
                exempt: None,
            }),
            regional: Some(RegionalOutageConfig {
                regions: 3,
                outages: 2,
                mean_duration: SimDuration::from_hours(2.0),
            }),
        };
        let factory = RngFactory::new(4);
        let mut p1 = build_for(config, &t, &factory);
        let mut p2 = build_for(config, &t, &factory);
        assert_eq!(p1.departed(), p2.departed());
        for n in t.nodes() {
            assert_eq!(p1.down_windows_of(n), p2.down_windows_of(n));
        }
        let a: Vec<bool> = (0..128).map(|_| p1.transfer_fails()).collect();
        let b: Vec<bool> = (0..128).map(|_| p2.transfer_fails()).collect();
        assert_eq!(a, b);
        assert!(
            a.iter().any(|&x| x),
            "35% loss drew no failures in 128 tries"
        );
        assert!(a.iter().any(|&x| !x), "35% loss failed every transfer");
    }
}
