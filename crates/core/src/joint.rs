//! The joint caching + freshness world.
//!
//! The paper's two layers — cooperative NCL caching (data access,
//! [`omn_caching`]) and distributed cache-freshness maintenance
//! ([`crate::sim`]) — were previously evaluated in *separate* simulations:
//! a caching pass produced the per-item caching sets, and an independent
//! freshness pass replayed the same trace against those sets. That misses
//! the resource coupling the paper's overhead analysis worries about: a
//! contact is one finite transmission opportunity, and refresh traffic,
//! query forwarding and cache placement all compete for it.
//!
//! [`JointSimulator`] runs both layers' timers in **one** [`Engine`],
//! merged with the contact stream of a **single shared**
//! [`ContactDriver`] (contacts never enter the heap):
//!
//! * every contact is delivered to the caching layer and to every per-item
//!   freshness participant at the same instant;
//! * the world keeps one contact-rate table: the loop records each
//!   deliverable contact into it once, before either layer handles the
//!   contact, and lends it to every participant's scheme;
//! * each contact carries an optional transfer budget
//!   ([`JointConfig::contact_budget`]): refresh transmissions and
//!   placement/query/response hops draw from the same pool, in an order
//!   set by [`ContentionPriority`];
//! * the caching layer observes per-item staleness: version births advance
//!   the item's current version ([`CachingRun::set_version`]), members'
//!   refreshed copies are reconciled into the cache stores
//!   ([`CachingRun::refresh_copy`] — no extra transmission, the refresh
//!   layer already paid for the transfer), and, with
//!   [`JointConfig::demote_stale`], replicas lagging more than one version
//!   are evicted and re-pulled from the source
//!   ([`CachingRun::demote_stale`]).
//!
//! Each layer alone is a special case. With [`JointConfig::freshness`]
//! `None` the joint world *is* the caching-layer run — there is no other
//! driver of [`CachingRun`] — and E9's data-access campaign runs through
//! it. With an empty query workload, no faults, no budget cap and demotion
//! off, each freshness participant is bit-identical to
//! [`crate::sim::FreshnessSimulator::run_with_roles`] over the same roles
//! (regression-tested).
//!
//! # Example
//!
//! The caching layer alone on a small Infocom-like trace:
//!
//! ```
//! use omn_caching::Catalog;
//! use omn_caching::query::QueryWorkload;
//! use omn_contacts::synth::presets::TracePreset;
//! use omn_core::joint::{JointConfig, JointSimulator};
//! use omn_sim::{RngFactory, SimDuration};
//!
//! let factory = RngFactory::new(7);
//! let trace = TracePreset::InfocomLike.generate_small(&factory);
//! let catalog = Catalog::uniform(&trace, 10, SimDuration::from_hours(6.0), &factory);
//! let queries = QueryWorkload::zipf(&trace, &catalog, 200, 1.0, &factory);
//! let access = JointSimulator::new(JointConfig {
//!     freshness: None,
//!     ..JointConfig::default()
//! })
//! .run(&trace, &catalog, &queries, &factory)
//! .access;
//! assert!(access.success_ratio() > 0.0);
//! ```

use omn_caching::policy::PolicyChoice;
use omn_caching::query::QueryWorkload;
use omn_caching::{AccessReport, CachingConfig, CachingRun, CachingTimer, Catalog, DataItemId};
use omn_contacts::estimate::PairRateTable;
use omn_contacts::faults::FaultConfig;
use omn_contacts::{ContactDriver, ContactFate, ContactGraph, ContactTrace, NodeId};
use omn_sim::metrics::Registry;
use omn_sim::{
    Engine, LinkConfig, LinkStats, OracleMode, OracleObs, OracleReport, OracleSink, RngFactory,
    SimTime, SimWorld, TransferBudget,
};

use crate::oracle::{BandwidthOracle, BudgetOracle};
use crate::scheme::RefreshScheme;
use crate::sim::{
    next_step, FreshnessConfig, FreshnessReport, FreshnessRun, FreshnessSimulator, FreshnessTimer,
    SchemeChoice, Step,
};

/// Who transmits first when a budgeted contact cannot carry everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionPriority {
    /// Freshness refresh transmissions drain the budget first; caching
    /// traffic (placement, queries, responses) gets the remainder.
    RefreshFirst,
    /// Caching traffic first; refresh transmissions get the remainder.
    QueryFirst,
    /// The budget is split evenly between the layers; an odd unit
    /// alternates between them by contact-index parity.
    FairInterleave,
}

/// Joint-world parameters.
///
/// The fault plan of the shared contact substrate comes from
/// [`JointConfig::faults`]; [`FreshnessConfig::faults`] is ignored here (a
/// joint world has exactly one driver).
#[derive(Debug, Clone)]
pub struct JointConfig {
    /// Caching-layer parameters (NCL selection, capacities, deadline).
    pub caching: CachingConfig,
    /// Freshness-layer parameters, or `None` to run the caching layer
    /// alone.
    pub freshness: Option<FreshnessConfig>,
    /// The refresh scheme every item's freshness participant runs.
    pub scheme: SchemeChoice,
    /// Per-contact transfer budget shared by both layers (`None` =
    /// unlimited).
    pub contact_budget: Option<u32>,
    /// Link model: each contact's budget additionally carries a byte
    /// capacity of `bandwidth × contact duration`, which sized refresh
    /// frames and caching hops draw down. `None` (or an unlimited
    /// [`LinkConfig`]) attaches no byte capacity — bit-identical to pure
    /// slot counting.
    pub link: Option<LinkConfig>,
    /// Which layer transmits first under a tight budget.
    pub priority: ContentionPriority,
    /// Cache replacement / placement policy of the caching layer.
    pub policy: PolicyChoice,
    /// Whether cache placement demotes replicas lagging the current
    /// version by more than one and re-pulls them from the source.
    pub demote_stale: bool,
    /// Fault injection for the shared contact substrate: the one fault
    /// knob of a joint world.
    pub faults: Option<FaultConfig>,
}

impl Default for JointConfig {
    fn default() -> JointConfig {
        JointConfig {
            caching: CachingConfig::default(),
            freshness: Some(FreshnessConfig::default()),
            scheme: SchemeChoice::Hierarchical,
            contact_budget: None,
            link: None,
            priority: ContentionPriority::RefreshFirst,
            policy: PolicyChoice::Lru,
            demote_stale: false,
            faults: None,
        }
    }
}

/// The joint world's timer alphabet; contacts come from the driver.
#[derive(Debug, Clone, Copy)]
enum JointTimer {
    /// A caching-layer timer fires.
    Caching(CachingTimer),
    /// A timer of the `i`-th freshness participant fires.
    Freshness(usize, FreshnessTimer),
}

/// Results of a joint run.
#[derive(Debug, Clone)]
pub struct JointReport {
    /// The caching layer's data-access report. Its `extras` registry
    /// additionally carries the joint counters:
    /// `budget-deferred-transmissions` (hops denied by an exhausted
    /// contact budget), `refreshed-cache-entries` (cache copies
    /// reconciled from refreshed members), `stale-demotions` and
    /// `stale-repull-placements` (with demotion on).
    pub access: AccessReport,
    /// Per-item freshness reports (items whose caching set was empty are
    /// skipped, like [`FreshnessSimulator::run_catalog`]).
    pub freshness: Vec<(DataItemId, FreshnessReport)>,
    /// The largest number of transfers any single contact carried across
    /// both layers — never exceeds the configured budget.
    pub max_contact_used: u32,
    /// The most bytes any single contact carried across both layers —
    /// never exceeds that contact's bandwidth×duration capacity.
    pub max_contact_bytes: u64,
    /// Refresh-layer transmission-queue statistics merged over all
    /// per-item participants; `None` when no participant ran a link
    /// model ([`crate::sim::FreshnessConfig::link`] unset).
    pub link: Option<LinkStats>,
    /// Joint-level invariant violations (budget accounting across both
    /// layers, cache-capacity bounds). Per-item freshness violations live
    /// in each [`FreshnessReport::oracle`].
    pub oracle: OracleReport,
}

impl JointReport {
    /// Mean cache freshness across items (unweighted), or `None` when no
    /// item had a caching set.
    #[must_use]
    pub fn mean_freshness(&self) -> Option<f64> {
        if self.freshness.is_empty() {
            return None;
        }
        let sum: f64 = self.freshness.iter().map(|(_, r)| r.mean_freshness).sum();
        Some(sum / self.freshness.len() as f64)
    }

    /// Fraction of all queries answered with a current-version copy.
    #[must_use]
    pub fn fresh_access_ratio(&self) -> f64 {
        self.access.fresh_access_ratio()
    }
}

/// One per-item freshness participant of the joint world.
struct Participant<'a> {
    item: DataItemId,
    run: FreshnessRun<'a>,
}

/// The joint caching + freshness simulator.
#[derive(Debug, Clone)]
pub struct JointSimulator {
    config: JointConfig,
}

impl JointSimulator {
    /// Creates a simulator.
    #[must_use]
    pub fn new(config: JointConfig) -> JointSimulator {
        JointSimulator { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &JointConfig {
        &self.config
    }

    /// Runs both layers over `trace` in one engine with LRU replacement.
    ///
    /// Freshness roles per item mirror [`FreshnessSimulator::run_catalog`]
    /// over the NCL set: item `i`'s members are the NCLs minus its source
    /// (items with no member are skipped), and each participant draws from
    /// an independent child RNG stream keyed by the item id, so a joint
    /// run without caching traffic reproduces the freshness-only simulator
    /// bit for bit.
    #[must_use]
    pub fn run(
        &self,
        trace: &ContactTrace,
        catalog: &Catalog,
        queries: &QueryWorkload,
        factory: &RngFactory,
    ) -> JointReport {
        let graph = ContactGraph::from_trace(trace);
        let mut driver = ContactDriver::new(trace, self.config.faults, factory);
        let mut extras = Registry::new();
        let mut engine: Engine<JointTimer> = Engine::new();

        // The joint-level oracle world audits the cross-layer invariants:
        // per-contact budget accounting and cache-capacity bounds. Each
        // freshness participant keeps its own per-item world for version
        // monotonicity and timer liveness.
        let oracle_mode = self
            .config
            .freshness
            .as_ref()
            .map_or_else(OracleMode::from_env, |fc| fc.oracle_mode);
        let mut world = SimWorld::new();
        world.set_oracle_sink(OracleSink::new(oracle_mode));
        if oracle_mode != OracleMode::Off {
            world.install_oracle(Box::new(BudgetOracle::new()));
            world.install_oracle(Box::new(omn_caching::oracle::CacheCapacityOracle::new()));
            if self.config.link.is_some() {
                world.install_oracle(Box::new(BandwidthOracle::new()));
            }
        }

        let policy = self.config.policy.make();
        let (mut caching, caching_timers) = CachingRun::new(
            &self.config.caching,
            &graph,
            catalog,
            queries,
            &*policy,
            &driver,
        );

        // Freshness participants: one per item with a non-empty caching
        // set, over the NCLs as members.
        let mut parts: Vec<Participant<'_>> = Vec::new();
        let mut schemes: Vec<Box<dyn RefreshScheme>> = Vec::new();
        let mut part_timers: Vec<Vec<(SimTime, FreshnessTimer)>> = Vec::new();
        if let Some(fc) = &self.config.freshness {
            let fsim = FreshnessSimulator::new(*fc);
            for item in catalog.items() {
                let mut members: Vec<NodeId> = caching
                    .ncls()
                    .iter()
                    .copied()
                    .filter(|&n| n != item.source())
                    .collect();
                members.sort();
                members.dedup();
                if members.is_empty() {
                    continue;
                }
                let child = factory.child(u64::from(item.id().0));
                let (run, timers) =
                    FreshnessRun::new(fc, &graph, item.source(), &members, &driver, &child);
                parts.push(Participant {
                    item: item.id(),
                    run,
                });
                schemes.push(fsim.make_scheme(self.config.scheme));
                part_timers.push(timers);
            }
        }

        // Schedule each layer's timers (same-instant ties are broken by
        // event class, so only within-class FIFO matters); every contact
        // comes straight from the driver.
        for (pi, timers) in part_timers.into_iter().enumerate() {
            for (t, timer) in timers {
                engine.schedule_at_class(t, timer.class(), JointTimer::Freshness(pi, timer));
            }
        }
        for (t, timer) in caching_timers {
            engine.schedule_at_class(t, timer.class(), JointTimer::Caching(timer));
        }

        // One contact-rate table for the world, lent to every participant.
        let mut rates = PairRateTable::new(SimTime::ZERO);
        for (pi, p) in parts.iter_mut().enumerate() {
            p.run
                .on_start(schemes[pi].as_mut(), driver.plan_mut(), &mut rates);
        }

        let mut max_contact_used = 0u32;
        let mut max_contact_bytes = 0u64;
        while let Some(step) = next_step(&mut engine, &mut driver) {
            match step {
                Step::Timer(_, JointTimer::Caching(timer)) => {
                    if let Some((due, timer)) = caching.on_timer(timer) {
                        engine.schedule_at_class(due, timer.class(), JointTimer::Caching(timer));
                    }
                }
                Step::Timer(now, JointTimer::Freshness(pi, timer)) => {
                    parts[pi].run.on_timer(
                        timer,
                        now,
                        schemes[pi].as_mut(),
                        driver.plan_mut(),
                        &mut rates,
                    );
                    if let FreshnessTimer::Birth(v) = timer {
                        // Cache placement observes the birth: copies in
                        // caches are now stale.
                        let item = parts[pi].item;
                        caching.set_version(item, v);
                        if self.config.demote_stale {
                            let (demoted, repulls) = caching.demote_stale(item, v);
                            extras.add("stale-demotions", demoted);
                            extras.add("stale-repull-placements", repulls);
                        }
                    }
                }
                Step::Contact(ci, contact) => {
                    let now = contact.start();
                    let (a, b) = contact.pair();
                    let fate = driver.fate(&contact);
                    if fate == ContactFate::Down {
                        extras.add("down-contacts", 1);
                    }
                    // The rate table sees a deliverable contact once,
                    // before any layer handles it; only the freshness
                    // participants read it.
                    if fate == ContactFate::Deliverable && !parts.is_empty() {
                        rates.record_contact(a, b);
                    }

                    // Freshness participants always see the contact (they
                    // count a down contact themselves); caching traffic
                    // only moves on deliverable contacts.
                    macro_rules! fresh_layer {
                        ($budget:expr) => {
                            for (part, scheme) in parts.iter_mut().zip(schemes.iter_mut()) {
                                part.run.on_contact(
                                    a,
                                    b,
                                    fate,
                                    now,
                                    scheme.as_mut(),
                                    driver.plan_mut(),
                                    &mut rates,
                                    $budget,
                                );
                            }
                        };
                    }
                    macro_rules! cache_layer {
                        ($budget:expr) => {
                            if fate == ContactFate::Deliverable {
                                caching.on_contact(a, b, now, &mut driver, &mut extras, $budget);
                            }
                        };
                    }

                    // The contact's byte capacity under the link model:
                    // bandwidth × duration, or `None` for infinite links.
                    let byte_cap = self
                        .config
                        .link
                        .and_then(|l| l.capacity_for(contact.duration()));
                    let mk = |c: Option<u32>, bytes: Option<u64>| {
                        let base = match c {
                            None => TransferBudget::unlimited(),
                            Some(cap) => TransferBudget::capped(cap),
                        };
                        base.with_byte_capacity(bytes)
                    };
                    let (used, bytes_used) = match self.config.priority {
                        ContentionPriority::RefreshFirst => {
                            let mut budget = mk(self.config.contact_budget, byte_cap);
                            fresh_layer!(Some(&mut budget));
                            cache_layer!(&mut budget);
                            (budget.used(), budget.bytes_used())
                        }
                        ContentionPriority::QueryFirst => {
                            let mut budget = mk(self.config.contact_budget, byte_cap);
                            cache_layer!(&mut budget);
                            fresh_layer!(Some(&mut budget));
                            (budget.used(), budget.bytes_used())
                        }
                        ContentionPriority::FairInterleave => {
                            let (fresh_cap, cache_cap) = match self.config.contact_budget {
                                None => (None, None),
                                Some(cap) => {
                                    let half = cap / 2;
                                    let odd = cap % 2;
                                    if ci % 2 == 0 {
                                        (Some(half + odd), Some(half))
                                    } else {
                                        (Some(half), Some(half + odd))
                                    }
                                }
                            };
                            // The byte capacity splits by the same parity
                            // rule as the slot capacity.
                            let (fresh_bytes, cache_bytes) = match byte_cap {
                                None => (None, None),
                                Some(cap) => {
                                    let half = cap / 2;
                                    let odd = cap % 2;
                                    if ci % 2 == 0 {
                                        (Some(half + odd), Some(half))
                                    } else {
                                        (Some(half), Some(half + odd))
                                    }
                                }
                            };
                            let mut fresh_budget = mk(fresh_cap, fresh_bytes);
                            let mut cache_budget = mk(cache_cap, cache_bytes);
                            fresh_layer!(Some(&mut fresh_budget));
                            cache_layer!(&mut cache_budget);
                            (
                                fresh_budget.used() + cache_budget.used(),
                                fresh_budget.bytes_used() + cache_budget.bytes_used(),
                            )
                        }
                    };
                    max_contact_used = max_contact_used.max(used);
                    max_contact_bytes = max_contact_bytes.max(bytes_used);

                    // Joint-level invariant observations: the budget this
                    // contact retired, and the cache occupancy of the two
                    // endpoints that could have gained copies.
                    if world.has_oracles() {
                        world.advance_to(now);
                        world.oracle_event(&OracleObs::BudgetRetired {
                            used,
                            capacity: self.config.contact_budget,
                        });
                        world.oracle_event(&OracleObs::BytesRetired {
                            bytes_used,
                            byte_capacity: byte_cap,
                        });
                        for node in [a, b] {
                            let (stored, capacity) = caching.store_occupancy(node);
                            world.oracle_event(&OracleObs::CacheOccupancy {
                                node: u64::from(node.0),
                                stored: u64::try_from(stored).unwrap_or(u64::MAX),
                                capacity: u64::try_from(capacity).unwrap_or(u64::MAX),
                            });
                        }
                    }

                    // Reconcile refreshed members into the cache stores:
                    // a member that holds a newer version than its cached
                    // entry effectively refreshed that entry (the refresh
                    // layer already paid for the transfer, so no budget is
                    // drawn).
                    if fate == ContactFate::Deliverable {
                        for p in &parts {
                            for node in [a, b] {
                                if let Some(v) = p.run.member_version(node) {
                                    if caching.refresh_copy(node, p.item, v, now) {
                                        extras.add("refreshed-cache-entries", 1);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        let freshness: Vec<(DataItemId, FreshnessReport)> = parts
            .into_iter()
            .zip(schemes.iter_mut())
            .map(|(p, scheme)| {
                let report = p.run.finish(scheme.as_mut(), driver.plan_mut(), &mut rates);
                (p.item, report)
            })
            .collect();
        let access = caching.finish(trace.span(), extras);
        world.advance_to(trace.span());
        world.oracle_end_of_run();
        let link = freshness
            .iter()
            .filter_map(|(_, r)| r.link)
            .reduce(|mut acc, s| {
                acc.merge(&s);
                acc
            });
        JointReport {
            access,
            freshness,
            max_contact_used,
            max_contact_bytes,
            link,
            oracle: world.take_oracle_report(),
        }
    }
}
