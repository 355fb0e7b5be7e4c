//! E14 — the joint caching + freshness world under contact-capacity
//! contention: both layers run in one engine over one shared contact
//! stream, and every contact carries a fixed transfer budget that refresh
//! transmissions and placement/query/response hops compete for.
//!
//! The sweep raises the query load under a tight per-contact budget and
//! reports, per contention priority, what each layer gets out of the
//! shared capacity: query success and delay (the caching layer), mean
//! cache freshness and fresh-access ratio (the freshness layer), and how
//! much traffic the budget deferred. The expected trade-off: more query
//! load starves refresh traffic (under query-first priority freshness
//! degrades monotonically), while refresh-first sacrifices access delay
//! instead.

use omn_caching::query::QueryWorkload;
use omn_caching::{CachingConfig, Catalog};
use omn_contacts::synth::presets::TracePreset;
use omn_core::joint::{ContentionPriority, JointConfig, JointReport, JointSimulator};
use omn_core::sim::{FreshnessConfig, SchemeChoice};
use omn_sim::{RngFactory, SimDuration};

use crate::experiments::{config_for, trace_for};
use crate::scenario::CampaignPlan;
use crate::{banner, fmt_ci, fmt_ci_count, per_seed, Table};

/// Query loads of the sweep. The zipf workload draws sequentially, so each
/// load's queries are a prefix of the next: raising the load only *adds*
/// traffic, which makes the contention trend interpretable.
pub const LOADS: [usize; 3] = [0, 300, 1200];

/// The tight per-contact transfer budget of the contention sweep.
pub const BUDGET: u32 = 2;

const PRIORITIES: [ContentionPriority; 3] = [
    ContentionPriority::RefreshFirst,
    ContentionPriority::QueryFirst,
    ContentionPriority::FairInterleave,
];

/// Parameters of E14: the contention sweep shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Trace preset the joint world runs on.
    pub preset: TracePreset,
    /// The tight per-contact transfer budget.
    pub budget: u32,
    /// Query loads swept (each a prefix of the next).
    pub loads: Vec<usize>,
    /// Contention priorities compared.
    pub priorities: Vec<ContentionPriority>,
    /// Catalog size (items).
    pub catalog: usize,
    /// Query deadline, hours.
    pub query_deadline_h: f64,
    /// Replication seeds.
    pub seeds: Vec<u64>,
}

impl Params {
    /// The campaign a compiled scenario plan describes (the planner
    /// guarantees a `[contention]` section with loads and priorities).
    #[must_use]
    pub fn from_plan(plan: &CampaignPlan) -> Params {
        let (budget, loads, priorities) = match plan.contention() {
            Some(c) => (
                c.budget.unwrap_or(BUDGET),
                c.loads.clone(),
                c.priorities.clone(),
            ),
            None => (BUDGET, LOADS.to_vec(), PRIORITIES.to_vec()),
        };
        Params {
            preset: plan.preset_one(),
            budget,
            loads,
            priorities,
            catalog: plan.scalar_usize_or("catalog", 6),
            query_deadline_h: plan.scalar_or("query-deadline-h", 12.0),
            seeds: plan.seeds().to_vec(),
        }
    }
}

fn priority_name(p: ContentionPriority) -> &'static str {
    match p {
        ContentionPriority::RefreshFirst => "refresh-first",
        ContentionPriority::QueryFirst => "query-first",
        ContentionPriority::FairInterleave => "fair-interleave",
    }
}

/// One joint run with an explicit catalog size and query deadline.
#[must_use]
pub fn joint_run_with(
    preset: TracePreset,
    seed: u64,
    load: usize,
    budget: Option<u32>,
    priority: ContentionPriority,
    catalog_items: usize,
    query_deadline_h: f64,
) -> JointReport {
    let factory = RngFactory::new(seed);
    let trace = trace_for(preset, seed);
    let base = config_for(preset);
    let catalog = Catalog::uniform(&trace, catalog_items, base.refresh_period, &factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, load, 1.0, &factory);
    JointSimulator::new(JointConfig {
        caching: CachingConfig {
            query_deadline: SimDuration::from_hours(query_deadline_h),
            ..CachingConfig::default()
        },
        freshness: Some(FreshnessConfig {
            query_count: 100,
            ..base
        }),
        scheme: SchemeChoice::Hierarchical,
        contact_budget: budget,
        link: None,
        priority,
        policy: omn_caching::policy::PolicyChoice::Lru,
        demote_stale: true,
        faults: None,
    })
    .run(&trace, &catalog, &queries, &factory)
}

/// One joint run of the E14 configuration: conference trace, 6-item
/// catalog, hierarchical refreshing with stale-replica demotion, and the
/// given query load, per-contact budget and contention priority.
#[must_use]
pub fn joint_run(
    preset: TracePreset,
    seed: u64,
    load: usize,
    budget: Option<u32>,
    priority: ContentionPriority,
) -> JointReport {
    joint_run_with(preset, seed, load, budget, priority, 6, 12.0)
}

/// Runs E14: an unlimited-budget reference row, then the query-load sweep
/// under the tight budget for each contention priority, averaged over
/// seeds.
pub fn run(plan: &CampaignPlan) {
    let params = &Params::from_plan(plan);
    banner("E14", "joint world: contact-capacity contention");
    let preset = params.preset;
    let budget = params.budget;
    let loads = &params.loads;
    println!(
        "trace: {preset}, per-contact budget {budget},\nquery loads {loads:?} (each load is a prefix of the next)\n"
    );
    let seeds = &params.seeds;

    struct Row {
        freshness: Vec<f64>,
        fresh_access: Vec<f64>,
        success: Vec<f64>,
        delay_h: Vec<f64>,
        deferred: Vec<f64>,
        peak: Vec<f64>,
    }
    let collect = |budget: Option<u32>, priority, load| -> Row {
        let mut row = Row {
            freshness: Vec::new(),
            fresh_access: Vec::new(),
            success: Vec::new(),
            delay_h: Vec::new(),
            deferred: Vec::new(),
            peak: Vec::new(),
        };
        for r in per_seed(seeds, |seed| {
            joint_run_with(
                preset,
                seed,
                load,
                budget,
                priority,
                params.catalog,
                params.query_deadline_h,
            )
        }) {
            row.freshness.push(r.mean_freshness().unwrap_or(0.0));
            row.fresh_access.push(r.fresh_access_ratio());
            row.success.push(r.access.success_ratio());
            row.delay_h
                .push(r.access.mean_delay().unwrap_or(0.0) / 3600.0);
            row.deferred
                .push(r.access.extras.get("budget-deferred-transmissions") as f64);
            row.peak.push(f64::from(r.max_contact_used));
        }
        row
    };
    let render = |table: &mut Table, label: String, row: &Row| {
        table.row([
            label,
            fmt_ci(&row.freshness, 3),
            fmt_ci(&row.fresh_access, 3),
            fmt_ci(&row.success, 3),
            fmt_ci(&row.delay_h, 2),
            fmt_ci_count(&row.deferred),
            fmt_ci_count(&row.peak),
        ]);
    };
    let headers = [
        "configuration",
        "freshness",
        "fresh-access",
        "success",
        "delay (h)",
        "deferred tx",
        "peak/contact",
    ];

    let top_load = loads.last().copied().unwrap_or(0);
    let mut reference = Table::new(headers);
    render(
        &mut reference,
        format!("unlimited, load {top_load}"),
        &collect(None, ContentionPriority::RefreshFirst, top_load),
    );
    reference.print();
    println!();

    for &priority in &params.priorities {
        println!("priority: {}", priority_name(priority));
        let mut table = Table::new(headers);
        for &load in loads {
            let row = collect(Some(budget), priority, load);
            render(&mut table, format!("budget {budget}, load {load}"), &row);
        }
        table.print();
        println!();
    }
    println!(
        "(expected shape: the unlimited row dominates everything; under the \
         tight budget, raising the query load starves refresh traffic — \
         freshness falls monotonically under query-first priority — while \
         refresh-first keeps freshness at the cost of access delay)"
    );
}
