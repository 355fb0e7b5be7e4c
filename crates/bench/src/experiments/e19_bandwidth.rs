//! E19 — the bandwidth-realistic link model: sized messages, byte-budget
//! contacts, and per-node transmission queues over the joint world.
//!
//! E14's contention world counts transfer *slots*; this campaign gives
//! every message a wire size and every contact a byte capacity of
//! `bandwidth × duration`, then sweeps the bandwidth from starvation to
//! effectively infinite. A refresh frame or caching hop that does not fit
//! the remaining capacity is byte-deferred — refresh frames park in the
//! sender's bounded FIFO transmission queue and drain at later contacts.
//! The infinite rung (the `0` sentinel) must reproduce the slot-counting
//! E14 numbers bit-for-bit: an unlimited link attaches no byte capacity,
//! so nothing is ever denied, the queues stay empty, and no extra
//! randomness is drawn. `run` asserts that identity on every seed.
//!
//! The second table compares LRU placement against the EWMA
//! decayed-popularity baseline across the same ladder: adaptive placement
//! matters most when bytes are scarce and every wasted placement hop
//! crowds out refresh traffic.

use omn_caching::policy::PolicyChoice;
use omn_caching::query::QueryWorkload;
use omn_caching::{CachingConfig, Catalog};
use omn_contacts::synth::presets::TracePreset;
use omn_core::joint::{ContentionPriority, JointConfig, JointReport, JointSimulator};
use omn_core::sim::{FreshnessConfig, RefreshLink, SchemeChoice};
use omn_sim::{LinkConfig, RngFactory, SimDuration};

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, fmt_ci_count, per_seed, Table};

/// The bandwidth ladder, bytes/second; `0` is the unlimited sentinel.
/// Tuned so the bottom rung starves both layers, the middle rungs bite,
/// and the top finite rung is already indistinguishable from unlimited.
pub const BANDWIDTHS: [f64; 5] = [1.0, 4.0, 16.0, 256.0, 0.0];

/// Wire size of one refresh frame, bytes.
pub const REFRESH_BYTES: u64 = 256;

/// Per-node transmission-queue depth bound.
pub const QUEUE_DEPTH: usize = 64;

/// The query load the ladder runs under (the top of E14's sweep, where
/// contention is sharpest).
pub const LOAD: usize = 1200;

/// The per-contact transfer-slot budget (E14's tight budget — the byte
/// capacity binds *in addition* to the slots).
pub const BUDGET: u32 = 2;

/// Per-node cache capacity (items) of the placement-policy comparison.
/// The ladder itself runs E14's default capacity (16, which never evicts
/// a 6-item catalog — that table must stay comparable to the slot-counting
/// headline); the policy table tightens the capacity below the catalog
/// size so eviction pressure makes placement choices observable.
pub const POLICY_CAPACITY: usize = 2;

const POLICIES: [PolicyChoice; 2] = [PolicyChoice::Lru, PolicyChoice::Ewma];

/// Parameters of E19: the bandwidth-ladder shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the joint world runs on.
    pub preset: TracePreset,
    /// Per-contact transfer-slot budget.
    pub budget: u32,
    /// Query load of every rung.
    pub load: usize,
    /// The bandwidth ladder, bytes/second (`0` = unlimited).
    pub bandwidths: Vec<f64>,
    /// Wire size of one refresh frame, bytes.
    pub refresh_bytes: u64,
    /// Per-node transmission-queue depth bound.
    pub queue_depth: usize,
    /// Per-node cache capacity of the policy-comparison table.
    pub policy_capacity: usize,
    /// Catalog size (items).
    pub catalog: usize,
    /// Query deadline, hours.
    pub query_deadline_h: f64,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes (the planner
    /// guarantees a `[link]` section with a bandwidth ladder).
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        let (bandwidths, refresh_bytes, queue_depth) = match plan.link() {
            Some(l) => (
                l.bandwidth.clone(),
                l.refresh_bytes.unwrap_or(REFRESH_BYTES),
                l.queue_depth.unwrap_or(QUEUE_DEPTH),
            ),
            None => (BANDWIDTHS.to_vec(), REFRESH_BYTES, QUEUE_DEPTH),
        };
        let budget = plan.contention().and_then(|c| c.budget).unwrap_or(BUDGET);
        Params {
            preset: plan.preset_one(),
            budget,
            load: plan.scalar_usize_or("load", LOAD),
            bandwidths,
            refresh_bytes,
            queue_depth,
            policy_capacity: plan.scalar_usize_or("policy-capacity", POLICY_CAPACITY),
            catalog: plan.scalar_usize_or("catalog", 6),
            query_deadline_h: plan.scalar_or("query-deadline-h", 12.0),
            seeds: plan.seeds().to_vec(),
        }
    }
}

/// One joint run under the link model. `bandwidth` is bytes/second with
/// `0` as the unlimited sentinel (no byte capacity — the slot-counting
/// semantics); `cache_capacity` of `None` keeps the default (E14's
/// configuration).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn bandwidth_run(
    preset: TracePreset,
    seed: u64,
    load: usize,
    budget: Option<u32>,
    bandwidth: f64,
    refresh_bytes: u64,
    queue_depth: usize,
    policy: PolicyChoice,
    cache_capacity: Option<usize>,
    catalog_items: usize,
    query_deadline_h: f64,
) -> JointReport {
    let link = if bandwidth == 0.0 {
        LinkConfig::unlimited()
    } else {
        LinkConfig::with_bandwidth(bandwidth)
    }
    .queue_depth(queue_depth);
    let factory = RngFactory::new(seed);
    let trace = trace_for(preset, seed);
    let base = config_for(preset);
    let catalog = Catalog::uniform(&trace, catalog_items, base.refresh_period, &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, load, 1.0, &factory);
    let default_caching = CachingConfig::default();
    JointSimulator::new(JointConfig {
        caching: CachingConfig {
            query_deadline: SimDuration::from_hours(query_deadline_h),
            cache_capacity: cache_capacity.unwrap_or(default_caching.cache_capacity),
            ..default_caching
        },
        freshness: Some(FreshnessConfig {
            query_count: 100,
            link: Some(RefreshLink {
                refresh_bytes,
                queue_depth,
            }),
            ..base
        }),
        scheme: SchemeChoice::Hierarchical,
        contact_budget: budget,
        link: Some(link),
        priority: ContentionPriority::QueryFirst,
        policy,
        demote_stale: true,
        faults: None,
    })
    .run(&trace, &catalog, &queries, &factory)
}

fn bw_label(bw: f64) -> String {
    if bw == 0.0 {
        "unlimited".to_owned()
    } else {
        format!("{bw} B/s")
    }
}

/// Asserts the unlimited rung is bit-identical to the slot-counting E14
/// run (same seed, load, budget and priority, no link model): attaching
/// an unlimited link must never deny a byte, queue a frame, or draw
/// randomness.
fn assert_slot_identity(with_link: &JointReport, slot_only: &JointReport, seed: u64) {
    let headline = |r: &JointReport| {
        (
            r.mean_freshness().unwrap_or(0.0).to_bits(),
            r.fresh_access_ratio().to_bits(),
            r.access.success_ratio().to_bits(),
            r.access.mean_delay().unwrap_or(0.0).to_bits(),
            r.access.extras.get("budget-deferred-transmissions"),
            r.access.extras.get("byte-deferred-transmissions"),
            r.max_contact_used,
        )
    };
    assert_eq!(
        headline(with_link),
        headline(slot_only),
        "seed {seed}: the unlimited link rung diverged from slot counting"
    );
    let stats = with_link.link.expect("link model attached");
    assert_eq!(
        stats.enqueued_msgs, 0,
        "seed {seed}: an unlimited link queued a refresh frame"
    );
}

/// Runs E19: the bandwidth ladder under LRU (with full link accounting),
/// then LRU vs EWMA placement across the same ladder.
pub fn run(plan: &CampaignPlan) {
    let params = &Params::from_plan(plan);
    banner("E19", "bandwidth-realistic links: the byte-budget ladder");
    let preset = params.preset;
    let budget = params.budget;
    let load = params.load;
    println!(
        "trace: {preset}, per-contact budget {budget}, query load {load},\n\
         refresh frame {} B, queue depth {}, query-first priority\n\
         (capacity per contact = bandwidth × duration; 0 = unlimited)\n",
        params.refresh_bytes, params.queue_depth
    );
    let seeds = &params.seeds;

    struct Row {
        freshness: Vec<f64>,
        fresh_access: Vec<f64>,
        success: Vec<f64>,
        delay_h: Vec<f64>,
        byte_deferred: Vec<f64>,
        queued: Vec<f64>,
        queue_drops: Vec<f64>,
        tx_delay_h: Vec<f64>,
        peak_bytes: Vec<f64>,
    }
    let collect = |bw: f64, policy: PolicyChoice, capacity: Option<usize>| -> Row {
        let mut row = Row {
            freshness: Vec::new(),
            fresh_access: Vec::new(),
            success: Vec::new(),
            delay_h: Vec::new(),
            byte_deferred: Vec::new(),
            queued: Vec::new(),
            queue_drops: Vec::new(),
            tx_delay_h: Vec::new(),
            peak_bytes: Vec::new(),
        };
        for (seed, r) in seeds.iter().copied().zip(per_seed(seeds, |seed| {
            bandwidth_run(
                preset,
                seed,
                load,
                Some(budget),
                bw,
                params.refresh_bytes,
                params.queue_depth,
                policy,
                capacity,
                params.catalog,
                params.query_deadline_h,
            )
        })) {
            // The unlimited rung must reproduce slot counting exactly.
            if bw == 0.0 && policy == PolicyChoice::Lru && capacity.is_none() {
                let slot_only = crate::experiments::e14_joint_world::joint_run_with(
                    preset,
                    seed,
                    load,
                    Some(budget),
                    ContentionPriority::QueryFirst,
                    params.catalog,
                    params.query_deadline_h,
                );
                assert_slot_identity(&r, &slot_only, seed);
            }
            let stats = r.link.unwrap_or_default();
            row.freshness.push(r.mean_freshness().unwrap_or(0.0));
            row.fresh_access.push(r.fresh_access_ratio());
            row.success.push(r.access.success_ratio());
            row.delay_h
                .extend(r.access.mean_delay().map(|d| d / 3600.0));
            row.byte_deferred
                .push(r.access.extras.get("byte-deferred-transmissions") as f64);
            row.queued.push(stats.enqueued_msgs as f64);
            row.queue_drops.push(stats.dropped_msgs as f64);
            row.tx_delay_h
                .extend(stats.mean_delay_secs().map(|d| d / 3600.0));
            row.peak_bytes.push(r.max_contact_bytes as f64);
        }
        row
    };

    println!("policy: lru, E14 cache capacity (full link accounting)");
    let mut ladder = Table::new([
        "bandwidth",
        "freshness",
        "fresh-access",
        "success",
        "delay (h)",
        "byte-deferred",
        "queued",
        "q-drops",
        "tx-delay (h)",
        "peak B/contact",
    ]);
    for &bw in &params.bandwidths {
        let row = collect(bw, PolicyChoice::Lru, None);
        ladder.row([
            bw_label(bw),
            fmt_ci(&row.freshness, 3),
            fmt_ci(&row.fresh_access, 3),
            fmt_ci(&row.success, 3),
            fmt_ci(&row.delay_h, 2),
            fmt_ci_count(&row.byte_deferred),
            fmt_ci_count(&row.queued),
            fmt_ci_count(&row.queue_drops),
            fmt_ci(&row.tx_delay_h, 2),
            fmt_ci_count(&row.peak_bytes),
        ]);
    }
    ladder.print();
    println!();

    println!(
        "placement policy under eviction pressure (cache capacity {})",
        params.policy_capacity
    );
    let mut compare = Table::new([
        "configuration",
        "freshness",
        "fresh-access",
        "success",
        "delay (h)",
    ]);
    for &bw in &params.bandwidths {
        for policy in POLICIES {
            let row = collect(bw, policy, Some(params.policy_capacity));
            compare.row([
                format!("{}, {}", policy.name(), bw_label(bw)),
                fmt_ci(&row.freshness, 3),
                fmt_ci(&row.fresh_access, 3),
                fmt_ci(&row.success, 3),
                fmt_ci(&row.delay_h, 2),
            ]);
        }
    }
    compare.print();
    println!();
    println!(
        "(expected shape: the unlimited rung reproduces E14's slot-counting \
         numbers bit-for-bit; descending the ladder, byte-deferrals and \
         queued refresh frames grow while freshness and success fall; under \
         eviction pressure the ewma decayed-popularity policy separates \
         from plain lru — placement choices become visible once every \
         wasted hop competes for scarce bytes)"
    );
}
