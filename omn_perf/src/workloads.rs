//! The five workloads, each driven only through the crates' public APIs.
//!
//! A workload runs *seed-runs* — seeds `S, S+1, …` — until its time budget
//! is spent. A seed-run is set-up (inputs and roles for that seed) followed
//! by an untraced run phase (two passes for the streams), which feeds the
//! end-to-end metrics. With `--trace` every seed-run also repeats its run
//! phase traced (timed layer wrappers, counting allocator) and, on the DES,
//! once with oracles off; every pass must produce bit-identical outputs.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use omn_bench::experiments::e14_joint_world::joint_run_with;
use omn_bench::experiments::e15_scalability::{scale_config, shards_for};
use omn_bench::experiments::e19_bandwidth::{BUDGET, LOAD, QUEUE_DEPTH, REFRESH_BYTES};
use omn_bench::experiments::{config_for, trace_for};
use omn_caching::policy::PolicyChoice;
use omn_caching::query::QueryWorkload;
use omn_caching::{CachingConfig, Catalog};
use omn_contacts::synth::presets::TracePreset;
use omn_contacts::synth::sharded::{ShardedCommunityConfig, ShardedCommunitySource};
use omn_contacts::{Contact, ContactGraph, ContactSource, ContactTrace, LastContact, NodeId};
use omn_core::freshness::FreshnessRequirement;
use omn_core::joint::{ContentionPriority, JointConfig, JointReport, JointSimulator};
use omn_core::protocol::{PeerSummary, ProtocolMode, ProtocolMsg};
use omn_core::scheme::PlanningMode;
use omn_core::sim::{
    FreshnessConfig, FreshnessReport, FreshnessSimulator, RefreshLink, SchemeChoice, StreamStats,
};
use omn_node::{codec, run_firehose, FirehoseReport, RuntimeConfig};
use omn_sim::{LinkConfig, OracleMode, RngFactory, SimDuration, SimTime};

use crate::alloc::{self, Counts};
use crate::checks;
use crate::layers::{Clock, TimedScheme, TimedSource};
use crate::metrics::{median, quantile, ratio, Metric, END_TO_END, PER_LAYER};
use crate::spans::{SpanId, Spans};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Stream10k,
    Stream100k,
    Firehose10k,
    Joint16,
    JointUnlimited,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Stream10k,
        Workload::Stream100k,
        Workload::Firehose10k,
        Workload::Joint16,
        Workload::JointUnlimited,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream10k => "stream-10k",
            Workload::Stream100k => "stream-100k",
            Workload::Firehose10k => "firehose-10k",
            Workload::Joint16 => "joint-16bps",
            Workload::JointUnlimited => "joint-unlimited",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one workload process runs.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Time budget for the seed-runs, seconds.
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload process measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Contacts driven over every run phase.
    pub attempted: u64,
    /// Oracle violations, lost or undecodable frames, channel errors and
    /// output-check mismatches.
    pub failed: u64,
    pub problems: Vec<String>,
    /// The end-to-end metrics (untraced) or the per-layer ones (traced).
    pub metrics: Vec<(Metric, f64)>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

/// Runs `w` and reduces its measurements to metrics.
pub fn run(w: Workload, opts: Opts) -> Result<Outcome, String> {
    let mut t = Tally::new(w);
    match w {
        Workload::Stream10k => stream(&mut t, opts, 10_000),
        Workload::Stream100k => stream(&mut t, opts, 100_000),
        Workload::Firehose10k => firehose(&mut t, opts),
        Workload::Joint16 => joint(&mut t, opts, 16.0),
        Workload::JointUnlimited => joint(&mut t, opts, 0.0),
    }
    t.spans.close(t.root);
    if opts.trace {
        let path = Path::new("target/omn_perf").join(format!("{}.spans.jsonl", w.name()));
        t.spans
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        t.notes.push(format!("spans written to {}", path.display()));
    }
    t.finish(opts.trace)
}

/// Runs seed-runs `one(0), one(1), …` for about `seconds`: always one,
/// then another while the time spent so far plus half the median seed-run
/// stays within `seconds`. Returns how many ran.
fn until_budget(seconds: f64, mut one: impl FnMut(u64)) -> u64 {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        one(walls.len() as u64);
        walls.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + median(&walls) / 2.0 > seconds {
            return walls.len() as u64;
        }
    }
}

/// Untraced passes per stream and firehose seed-run. Their seed-runs take
/// seconds, so interference from other tenants of the machine, which comes
/// in bursts of one to twenty seconds that slow everything by 30–45 %,
/// would land in whole seed-runs; repeating the run phase over identical
/// inputs and keeping the fastest (see [`fastest_pieces_wall`]) drops it.
/// Joint seed-runs take milliseconds, and their median drops it instead.
const PASSES: usize = 2;

/// Set-up is sampled at least this often, so `setup_s` is a median even
/// where one seed-run fills the budget.
const MIN_SETUPS: usize = 3;

/// Silent firehose runs made to sample network spawn, which takes
/// milliseconds and so needs more samples than one run gives.
const SPAWN_PROBES: usize = 8;

/// Accumulates one workload's measurements.
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Set-up wall per sample, seconds.
    setup: Vec<f64>,
    /// Untraced run-phase wall per seed-run, seconds.
    run: Vec<f64>,
    /// Contacts per second of each untraced run phase.
    rates: Vec<f64>,
    /// Wall of every single untraced pass (a stream seed-run makes
    /// several), the base `trace.overhead` and `sim.oracle.share` compare
    /// single traced and oracle-off passes against.
    passes: Vec<f64>,
    /// Contacts over the untraced run phases.
    contacts: u64,
    /// Traced run-phase wall per seed-run.
    traced: Vec<f64>,
    /// Oracle-off run-phase wall per seed-run.
    oracle_off: Vec<f64>,
    /// Per-seed-run samples of per-layer metrics (reported as medians).
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values set directly.
    layer: BTreeMap<&'static str, f64>,
    /// `VmHWM` once the first seed-run's first pass ended: set-up plus one
    /// run phase, before later passes can add allocator fragmentation.
    rss_mb: Option<Result<f64, String>>,
    /// Allocations, source busy time and contacts of the traced passes.
    alloc: Counts,
    source_ns: u64,
    traced_contacts: u64,
    notes: Vec<String>,
    spans: Spans,
    root: SpanId,
}

impl Tally {
    fn new(w: Workload) -> Tally {
        let mut spans = Spans::new();
        let root = spans.open(None, None, w.name());
        Tally {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            setup: Vec::new(),
            run: Vec::new(),
            rates: Vec::new(),
            passes: Vec::new(),
            contacts: 0,
            traced: Vec::new(),
            oracle_off: Vec::new(),
            samples: BTreeMap::new(),
            layer: BTreeMap::new(),
            rss_mb: None,
            alloc: Counts::default(),
            source_ns: 0,
            traced_contacts: 0,
            notes: Vec::new(),
            spans,
            root,
        }
    }

    /// Notes the peak RSS after the first run pass.
    fn first_pass_done(&mut self) {
        self.rss_mb.get_or_insert_with(peak_rss_mb);
    }

    /// Records an untraced run phase made of `passes`.
    fn untraced_run(&mut self, contacts: u64, wall: f64, passes: &[f64]) {
        self.passes.extend_from_slice(passes);
        self.run.push(wall);
        self.rates.push(ratio(contacts as f64, wall));
        self.contacts += contacts;
    }

    /// Counts a failed output check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Counts `n` failures of one kind (oracle violations, lost frames).
    fn failures(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(format!("{n} × {}", what()));
        }
    }

    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Sets a per-layer value unless an earlier seed-run set it: counts
    /// come from the first seed-run, so they repeat exactly for a seed.
    fn first(&mut self, name: &'static str, v: f64) {
        self.layer.entry(name).or_insert(v);
    }

    fn max(&mut self, name: &'static str, v: f64) {
        let e = self.layer.entry(name).or_insert(v);
        *e = e.max(v);
    }

    /// Opens the span of one seed-run.
    fn seed_run(&mut self, seed: u64) -> SpanId {
        self.spans.open(Some(self.root), Some(seed), "seed-run")
    }

    /// Records a child span of `parent` that started at `start_ns`.
    fn span_since(
        &mut self,
        parent: SpanId,
        seed: u64,
        name: &'static str,
        start_ns: u64,
    ) -> SpanId {
        let end = self.spans.now_ns();
        self.spans
            .record(Some(parent), Some(seed), name, start_ns, end)
    }

    /// Records a traced run phase: its span, allocation counts, and the
    /// traced/untraced wall.
    fn traced_run(
        &mut self,
        parent: SpanId,
        seed: u64,
        start_ns: u64,
        contacts: u64,
        wall: f64,
        alloc: Counts,
    ) -> SpanId {
        self.traced.push(wall);
        self.traced_contacts += contacts;
        self.alloc.calls += alloc.calls;
        self.alloc.bytes += alloc.bytes;
        self.span_since(parent, seed, "run", start_ns)
    }

    /// Records a timed source's pulls under the traced `run` span.
    fn source_layer(&mut self, run: SpanId, clock: &Clock) {
        self.spans
            .leaf(run, "contacts.next_contact", clock.calls(), clock.busy_ns());
        self.sample("contacts.source.busy_s", clock.busy_ns() as f64 * 1e-9);
        self.source_ns += clock.busy_ns();
        self.max("contacts.peak_resident", clock.peak_resident() as f64);
    }

    fn finish(mut self, trace: bool) -> Result<Outcome, String> {
        let n = self.run.len();
        let p90 = quantile(&self.run, 0.9);
        let beyond = n - (0.9 * n as f64).ceil() as usize;
        self.notes.push(format!(
            "seed-runs {n}, contacts {}, run_p90_s {p90:.6} ({beyond} beyond p90), failed_ratio {} ({}/{})",
            self.contacts,
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        ));
        let metrics: Vec<(Metric, f64)> = if trace {
            let traced = self.traced_contacts as f64;
            self.layer.insert(
                "contacts.source.ns_per_contact",
                ratio(self.source_ns as f64, traced),
            );
            self.layer
                .insert("alloc.per_contact", ratio(self.alloc.calls as f64, traced));
            self.layer.insert(
                "alloc.bytes_per_contact",
                ratio(self.alloc.bytes as f64, traced),
            );
            let untraced = median(&self.passes);
            self.layer.insert(
                "trace.overhead",
                ratio(median(&self.traced), untraced) - 1.0,
            );
            if !self.oracle_off.is_empty() {
                self.layer.insert(
                    "sim.oracle.share",
                    1.0 - ratio(median(&self.oracle_off), untraced),
                );
            }
            self.layer.insert("run.p90_s", p90);
            for name in self.samples.keys() {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == *name),
                    "sample `{name}` is no per-layer metric"
                );
            }
            PER_LAYER
                .iter()
                .map(|&m| {
                    let v = self
                        .layer
                        .get(m.name)
                        .copied()
                        .or_else(|| self.samples.get(m.name).map(|s| median(s)))
                        .unwrap_or(0.0);
                    (m, v)
                })
                .collect()
        } else {
            let values = [
                median(&self.rates),
                median(&self.run),
                median(&self.setup),
                self.rss_mb.take().unwrap_or_else(peak_rss_mb)?,
            ];
            END_TO_END.into_iter().zip(values).collect()
        };
        if let Some((m, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("metric {} is not finite ({v})", m.name));
        }
        Ok(Outcome {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
            notes: self.notes,
        })
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn alloc_window<R>(on: bool, f: impl FnOnce() -> R) -> (R, Counts) {
    let before = alloc::counts();
    alloc::set_counting(on);
    let r = f();
    alloc::set_counting(false);
    (r, alloc::counts().since(before))
}

// ---------------------------------------------------------------------------
// stream-10k / stream-100k: the E15 sweep points on the serial k-way merge.

/// Hours of stream E15 gives role selection, clipped to half the span.
const WARMUP_HOURS: f64 = 6.0;

/// E15's sweep configuration: 8 caching nodes, 4 h period, estimated
/// planning, 6 h rebuilds, no queries.
fn stream_config(oracle_mode: OracleMode) -> FreshnessConfig {
    let period = SimDuration::from_hours(4.0);
    FreshnessConfig {
        caching_nodes: 8,
        refresh_period: period,
        requirement: FreshnessRequirement::new(0.9, period),
        lifetime: Some(period * 2.0),
        planning: PlanningMode::Estimated,
        rebuild_every: Some(SimDuration::from_hours(6.0)),
        query_count: 0,
        oracle_mode,
        ..FreshnessConfig::default()
    }
}

/// Roles and planning oracle from the streamed warm-up window.
pub struct Roles {
    source: NodeId,
    members: Vec<NodeId>,
    graph: ContactGraph,
}

pub fn warm_up(world: &ShardedCommunityConfig, factory: &RngFactory) -> Roles {
    let cutoff = SimTime::from_secs((WARMUP_HOURS * 3600.0).min(world.span.as_secs() / 2.0));
    let mut warmup = ShardedCommunitySource::new(world, factory);
    let sim = FreshnessSimulator::new(stream_config(OracleMode::Campaign));
    let (source, members, graph) = sim.select_roles_streamed(&mut warmup, cutoff);
    Roles {
        source,
        members,
        graph,
    }
}

pub struct StreamRun {
    pub report: FreshnessReport,
    pub stats: StreamStats,
    /// Run-phase wall.
    pub wall: f64,
    /// The run phase cut at the source clock's marks ([`Clock::segments`]).
    pub segments: Vec<f64>,
    pub source: Clock,
    pub scheme: Clock,
    pub alloc: Counts,
}

/// One run phase: the hierarchical scheme over a fresh serial source.
pub fn stream_pass(
    world: &ShardedCommunityConfig,
    factory: &RngFactory,
    roles: &Roles,
    oracle_mode: OracleMode,
    timed: bool,
) -> StreamRun {
    let sim = FreshnessSimulator::new(stream_config(oracle_mode));
    let (source, scheme_clock) = (Clock::new(timed), Clock::new(timed));
    let mut scheme = sim.make_scheme(SchemeChoice::Hierarchical);
    let mut wrapped = TimedScheme::new(scheme.as_mut(), &scheme_clock);
    let ((report, stats, start, end), alloc) = alloc_window(timed, || {
        let start = Instant::now();
        let contacts = TimedSource::new(ShardedCommunitySource::new(world, factory), &source);
        let (report, stats) = sim.run_streamed(
            contacts,
            &roles.graph,
            roles.source,
            &roles.members,
            &mut wrapped,
            factory,
        );
        (report, stats, start, Instant::now())
    });
    StreamRun {
        report,
        stats,
        wall: (end - start).as_secs_f64(),
        segments: source.segments(start, end),
        source,
        scheme: scheme_clock,
        alloc,
    }
}

/// The wall of a run phase repeated over identical inputs, piece by piece:
/// each piece (see [`Clock::segments`]) at its fastest across the passes.
/// Interference only ever adds time, so a piece is lost to it only if
/// every pass was hit there. Every piece of the work still counts, and the
/// pass count is fixed, so the estimate compares like with like across
/// commits.
fn fastest_pieces_wall(passes: &[Vec<f64>]) -> f64 {
    let pieces = passes[0].len();
    if passes.iter().any(|p| p.len() != pieces) {
        // Identical inputs cut identically; fall back to whole passes.
        return passes
            .iter()
            .map(|p| p.iter().sum())
            .fold(f64::INFINITY, f64::min);
    }
    (0..pieces)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The outputs every pass of one seed-run must reproduce bit for bit.
fn stream_outputs(r: &StreamRun) -> [u64; 6] {
    [
        r.report.mean_freshness.to_bits(),
        r.report.transmissions,
        r.report.version_count,
        r.report.replicas,
        r.stats.contacts_total as u64,
        r.stats.peak_resident as u64,
    ]
}

fn stream(t: &mut Tally, opts: Opts, nodes: usize) {
    let world = scale_config(nodes);
    let name = if nodes == 10_000 {
        "stream-10k"
    } else {
        "stream-100k"
    };
    let n = until_budget(opts.seconds, |i| {
        let seed = opts.seed + i;
        let factory = RngFactory::new(seed);
        let sr = t.seed_run(seed);
        let t0 = t.spans.now_ns();
        let start = Instant::now();
        let roles = warm_up(&world, &factory);
        let setup = start.elapsed().as_secs_f64();
        t.span_since(sr, seed, "setup.warmup", t0);
        t.setup.push(setup);
        t.sample("contacts.warmup.busy_s", setup);

        let t0 = t.spans.now_ns();
        let plain = stream_pass(&world, &factory, &roles, OracleMode::Campaign, false);
        t.first_pass_done();
        check_stream(t, name, seed, nodes, &plain);
        let mut passes = vec![plain.segments.clone()];
        let mut walls = vec![plain.wall];
        for _ in 1..PASSES {
            let again = stream_pass(&world, &factory, &roles, OracleMode::Campaign, false);
            t.attempted += again.stats.contacts_total as u64;
            t.check(stream_outputs(&again) == stream_outputs(&plain), || {
                format!("seed {seed}: a repeated run diverged from the first")
            });
            passes.push(again.segments);
            walls.push(again.wall);
        }
        t.span_since(sr, seed, "run.untraced", t0);
        t.untraced_run(
            plain.stats.contacts_total as u64,
            fastest_pieces_wall(&passes),
            &walls,
        );

        if opts.trace {
            let t0 = t.spans.now_ns();
            let traced = stream_pass(&world, &factory, &roles, OracleMode::Campaign, true);
            let contacts = traced.stats.contacts_total as u64;
            let run = t.traced_run(sr, seed, t0, contacts, traced.wall, traced.alloc);
            t.source_layer(run, &traced.source);
            t.spans.leaf(
                run,
                "core.scheme",
                traced.scheme.calls(),
                traced.scheme.busy_ns(),
            );
            let (src_s, scheme_s) = (
                traced.source.busy_ns() as f64 * 1e-9,
                traced.scheme.busy_ns() as f64 * 1e-9,
            );
            t.sample("core.scheme.busy_s", scheme_s);
            t.sample("sim.kernel.self_s", traced.wall - src_s - scheme_s);
            t.first("core.scheme.calls", traced.scheme.calls() as f64);
            t.sample(
                "core.scheme.ns_per_call",
                ratio(traced.scheme.busy_ns() as f64, traced.scheme.calls() as f64),
            );
            t.first("core.transmissions", traced.report.transmissions as f64);
            t.max("contacts.peak_resident", traced.stats.peak_resident as f64);
            t.attempted += contacts;
            t.check(stream_outputs(&traced) == stream_outputs(&plain), || {
                format!("seed {seed}: traced run diverged from the untraced one")
            });

            let t0 = t.spans.now_ns();
            let off = stream_pass(&world, &factory, &roles, OracleMode::Off, false);
            t.span_since(sr, seed, "run.oracle_off", t0);
            t.oracle_off.push(off.wall);
            t.attempted += off.stats.contacts_total as u64;
            t.check(stream_outputs(&off) == stream_outputs(&plain), || {
                format!("seed {seed}: oracle-off run diverged from the campaign one")
            });
        }
        t.spans.close(sr);
    });
    for k in 0..MIN_SETUPS.saturating_sub(t.setup.len()) as u64 {
        let factory = RngFactory::new(opts.seed + n + k);
        let start = Instant::now();
        drop(warm_up(&world, &factory));
        t.setup.push(start.elapsed().as_secs_f64());
    }
    t.notes.push(format!(
        "run phase: median single pass {:.6} s, median of fastest-piece walls {:.6} s",
        median(&t.passes),
        median(&t.run)
    ));
}

fn check_stream(t: &mut Tally, name: &str, seed: u64, nodes: usize, r: &StreamRun) {
    let contacts = r.stats.contacts_total as u64;
    t.attempted += contacts;
    t.failures(r.report.oracle.total(), || {
        format!(
            "{name} seed {seed}: oracle violations {:?}",
            r.report.oracle
        )
    });
    t.check(contacts == r.source.items(), || {
        format!(
            "{name} seed {seed}: the contact driver pulled {contacts} contacts, the source yielded {}",
            r.source.items()
        )
    });
    t.check(r.stats.peak_resident <= shards_for(nodes) + 8, || {
        format!(
            "{name} seed {seed}: peak residency {} exceeds the O(shards) bound",
            r.stats.peak_resident
        )
    });
    t.check((0.0..=1.0).contains(&r.report.mean_freshness), || {
        format!(
            "{name} seed {seed}: mean freshness {} out of range",
            r.report.mean_freshness
        )
    });
    if let Some(pin) = checks::stream_pin(nodes, seed) {
        let got = checks::StreamPin {
            contacts,
            versions: r.report.version_count,
            transmissions: r.report.transmissions,
            freshness_bits: r.report.mean_freshness.to_bits(),
        };
        t.check(got == pin, || {
            format!("{name} seed {seed}: outputs {got:?} differ from the pinned {pin:?}")
        });
    }
}

// ---------------------------------------------------------------------------
// firehose-10k: the E18 firehose on one executor worker.

/// E18's firehose runtime: epidemic, 6 h period, one executor worker (the
/// supervisor is the calling thread, so two threads in all).
fn firehose_config() -> RuntimeConfig {
    RuntimeConfig {
        oracle_mode: OracleMode::Campaign,
        workers: 1,
        ..RuntimeConfig::new(ProtocolMode::Epidemic, SimDuration::from_hours(6.0))
    }
}

struct FirehoseRun {
    report: FirehoseReport,
    /// Wall of the whole `run_firehose` call; minus `report.elapsed` it is
    /// network spawn and teardown.
    total: f64,
    source: Clock,
    alloc: Counts,
}

fn firehose_pass<S: ContactSource>(contacts: S, timed: bool) -> FirehoseRun {
    let source = Clock::new(timed);
    let members: Vec<NodeId> = (1..=8).map(NodeId).collect();
    let config = firehose_config();
    let ((report, total), alloc) = alloc_window(timed, || {
        let t = Instant::now();
        let report = run_firehose(
            TimedSource::new(contacts, &source),
            NodeId(0),
            &members,
            &config,
        );
        (report, t.elapsed().as_secs_f64())
    });
    FirehoseRun {
        report,
        total,
        source,
        alloc,
    }
}

/// A source with a world's node count and span but no contacts: a firehose
/// over it is network spawn, the quiesce rounds and teardown — a set-up
/// probe.
struct Silent {
    nodes: usize,
    span: SimTime,
}

impl ContactSource for Silent {
    fn node_count(&self) -> usize {
        self.nodes
    }

    fn span(&self) -> SimTime {
        self.span
    }

    fn next_contact(&mut self) -> Option<Contact> {
        None
    }

    fn last_contact(&self) -> LastContact {
        LastContact::Known(None)
    }
}

fn firehose(t: &mut Tally, opts: Opts) {
    let world = scale_config(10_000);
    until_budget(opts.seconds, |i| {
        let seed = opts.seed + i;
        let factory = RngFactory::new(seed);
        let sr = t.seed_run(seed);
        let (mut walls, mut contacts) = (Vec::new(), Vec::new());
        for _ in 0..PASSES {
            let t0 = t.spans.now_ns();
            let pass = firehose_pass(ShardedCommunitySource::new(&world, &factory), false);
            t.first_pass_done();
            let r = &pass.report;
            let elapsed = r.elapsed.as_secs_f64();
            let spawn = pass.total - elapsed;
            let spawned = t0 + (spawn * 1e9) as u64;
            t.spans
                .record(Some(sr), Some(seed), "setup.spawn", t0, spawned);
            t.span_since(sr, seed, "run.untraced", spawned);
            t.setup.push(spawn);
            t.sample("node.spawn_s", spawn);
            t.sample(
                "node.msgs_per_contact",
                ratio(r.messages_received as f64, r.contacts as f64),
            );
            t.sample(
                "node.bytes_per_msg",
                ratio(r.bytes_sent as f64, r.messages_sent as f64),
            );
            t.sample("node.msgs_per_s", r.msgs_per_sec());
            check_firehose(t, seed, &pass);
            walls.push(elapsed);
            contacts.push(r.contacts);
        }
        t.check(contacts.iter().all(|&c| c == contacts[0]), || {
            format!("seed {seed}: passes drove different contact counts {contacts:?}")
        });
        let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
        t.untraced_run(contacts[0], fastest, &walls);
        if opts.trace {
            let t0 = t.spans.now_ns();
            let traced = firehose_pass(ShardedCommunitySource::new(&world, &factory), true);
            let elapsed = traced.report.elapsed.as_secs_f64();
            let run = t.traced_run(sr, seed, t0, traced.report.contacts, elapsed, traced.alloc);
            t.source_layer(run, &traced.source);
            t.sample(
                "node.self_s",
                elapsed - traced.source.busy_ns() as f64 * 1e-9,
            );
            check_firehose(t, seed, &traced);
        }
        t.spans.close(sr);
    });
    for _ in 0..SPAWN_PROBES {
        let probe = firehose_pass(
            Silent {
                nodes: world.nodes,
                span: SimTime::ZERO + world.span,
            },
            false,
        );
        let spawn = probe.total - probe.report.elapsed.as_secs_f64();
        t.setup.push(spawn);
        t.sample("node.spawn_s", spawn);
        check_firehose(t, opts.seed, &probe);
    }
    if opts.trace {
        let (ns, mismatches) = codec_roundtrip(200_000);
        t.layer.insert("node.codec.ns_per_roundtrip", ns);
        t.failures(mismatches, || {
            "codec round trips that changed the message".to_owned()
        });
    }
    let per_contact = &t.samples["node.msgs_per_contact"];
    let lo = per_contact.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = per_contact.iter().copied().fold(0.0, f64::max);
    let note = format!(
        "wire msgs/contact {lo:.4}..{hi:.4} over {} runs (free-running flooding varies run to run), msgs_per_s median {:.0}",
        per_contact.len(),
        median(&t.samples["node.msgs_per_s"])
    );
    t.notes.push(note);
}

fn check_firehose(t: &mut Tally, seed: u64, run: &FirehoseRun) {
    let r = &run.report;
    t.attempted += r.contacts;
    t.failures(r.messages_sent.abs_diff(r.messages_received), || {
        format!("seed {seed}: frames sent but not received")
    });
    t.failures(r.decode_errors, || {
        format!("seed {seed}: undecodable frames")
    });
    t.failures(r.channel_errors, || {
        format!("seed {seed}: runtime channel errors")
    });
    t.check(r.contacts == run.source.items(), || {
        format!(
            "seed {seed}: runtime announced {} contacts, the source yielded {}",
            r.contacts,
            run.source.items()
        )
    });
    if let Some(pin) = checks::stream_pin(10_000, seed) {
        // A silent probe announces nothing; only full runs meet the pin.
        if run.source.items() > 0 {
            t.check(r.contacts == pin.contacts, || {
                format!(
                    "seed {seed}: firehose drove {} contacts, pinned {}",
                    r.contacts, pin.contacts
                )
            });
        }
    }
}

/// Encodes and decodes Summary and Refresh frames alternately; returns ns
/// per round trip and how many decoded to something else.
fn codec_roundtrip(n: u64) -> (f64, u64) {
    let msgs = [
        ProtocolMsg::Refresh { version: 7 },
        ProtocolMsg::Summary(PeerSummary {
            node: NodeId(3),
            is_member: true,
            cache: Some(5),
            carried: None,
        }),
    ];
    let mut mismatches = 0;
    let start = Instant::now();
    for i in 0..n {
        let msg = &msgs[(i % 2) as usize];
        let at = SimTime::from_secs(i as f64);
        let bytes = codec::encode(i, NodeId(1), NodeId(2), at, std::hint::black_box(msg));
        match codec::decode(std::hint::black_box(&bytes)) {
            Ok((NodeId(1), t, ref m)) if t == at && m == msg => {}
            _ => mismatches += 1,
        }
    }
    (start.elapsed().as_nanos() as f64 / n as f64, mismatches)
}

// ---------------------------------------------------------------------------
// joint-16bps / joint-unlimited: the E19 world at one rung.

/// Seed-runs run and discarded before timing, so the allocator and caches
/// are warm.
const JOINT_DISCARDED: u64 = 10;

/// Catalog size and query deadline of E19's ladder.
const CATALOG_ITEMS: usize = 6;
const QUERY_DEADLINE_H: f64 = 12.0;

/// E19's ladder configuration at `bandwidth` B/s (`0` = unlimited link):
/// budget 2, 256 B frames, queue 64, LRU at E14's capacity, query-first.
fn joint_config(bandwidth: f64, oracle_mode: OracleMode) -> JointConfig {
    let link = if bandwidth == 0.0 {
        LinkConfig::unlimited()
    } else {
        LinkConfig::with_bandwidth(bandwidth)
    }
    .queue_depth(QUEUE_DEPTH);
    JointConfig {
        caching: CachingConfig {
            query_deadline: SimDuration::from_hours(QUERY_DEADLINE_H),
            ..CachingConfig::default()
        },
        freshness: Some(FreshnessConfig {
            query_count: 100,
            link: Some(RefreshLink {
                refresh_bytes: REFRESH_BYTES,
                queue_depth: QUEUE_DEPTH,
            }),
            oracle_mode,
            ..config_for(TracePreset::InfocomLike)
        }),
        scheme: SchemeChoice::Hierarchical,
        contact_budget: Some(BUDGET),
        link: Some(link),
        priority: ContentionPriority::QueryFirst,
        policy: PolicyChoice::Lru,
        demote_stale: true,
        faults: None,
    }
}

struct JointInputs {
    trace: ContactTrace,
    catalog: Catalog,
    queries: QueryWorkload,
}

/// Set-up of one seed-run: the trace, then catalog and query workload.
/// Returns the two phase walls too.
fn joint_inputs(seed: u64, factory: &RngFactory) -> (JointInputs, f64, f64) {
    let start = Instant::now();
    let trace = trace_for(TracePreset::InfocomLike, seed);
    let tracegen = start.elapsed().as_secs_f64();
    let period = config_for(TracePreset::InfocomLike).refresh_period;
    let catalog = Catalog::uniform(&trace, CATALOG_ITEMS, period, factory);
    let queries = QueryWorkload::zipf(&trace, &catalog, LOAD, 1.0, factory);
    let catalog_s = start.elapsed().as_secs_f64() - tracegen;
    (
        JointInputs {
            trace,
            catalog,
            queries,
        },
        tracegen,
        catalog_s,
    )
}

fn joint_pass(
    bandwidth: f64,
    inputs: &JointInputs,
    factory: &RngFactory,
    oracle_mode: OracleMode,
    timed: bool,
) -> (JointReport, f64, Counts) {
    let sim = JointSimulator::new(joint_config(bandwidth, oracle_mode));
    let ((report, wall), alloc) = alloc_window(timed, || {
        let t = Instant::now();
        let report = sim.run(&inputs.trace, &inputs.catalog, &inputs.queries, factory);
        (report, t.elapsed().as_secs_f64())
    });
    (report, wall, alloc)
}

const BUDGET_DEFERRED: &str = "budget-deferred-transmissions";
const BYTE_DEFERRED: &str = "byte-deferred-transmissions";

/// A counter summed over the caching layer and every refresh participant.
fn joint_count(r: &JointReport, name: &str) -> u64 {
    r.access.extras.get(name)
        + r.freshness
            .iter()
            .map(|(_, f)| f.extras.get(name))
            .sum::<u64>()
}

fn refresh_tx(r: &JointReport) -> u64 {
    r.freshness.iter().map(|(_, f)| f.transmissions).sum()
}

/// The outputs every pass of one seed-run must reproduce bit for bit.
fn joint_outputs(r: &JointReport) -> [u64; 9] {
    let link = r.link.unwrap_or_default();
    [
        r.mean_freshness().unwrap_or(0.0).to_bits(),
        r.access.success_ratio().to_bits(),
        r.fresh_access_ratio().to_bits(),
        r.access.transmissions,
        refresh_tx(r),
        u64::from(r.max_contact_used),
        r.max_contact_bytes,
        link.enqueued_msgs,
        link.drained_msgs,
    ]
}

fn joint(t: &mut Tally, opts: Opts, bandwidth: f64) {
    let label = if bandwidth == 0.0 {
        "unlimited".to_owned()
    } else {
        format!("bw{bandwidth}")
    };
    for i in 0..JOINT_DISCARDED {
        let factory = RngFactory::new(opts.seed + i);
        let (inputs, _, _) = joint_inputs(opts.seed + i, &factory);
        drop(joint_pass(
            bandwidth,
            &inputs,
            &factory,
            OracleMode::Campaign,
            false,
        ));
    }
    until_budget(opts.seconds, |i| {
        let seed = opts.seed + i;
        let factory = RngFactory::new(seed);
        let sr = t.seed_run(seed);
        let t0 = t.spans.now_ns();
        let (inputs, tracegen, catalog_s) = joint_inputs(seed, &factory);
        let split = t0 + (tracegen * 1e9) as u64;
        t.spans
            .record(Some(sr), Some(seed), "setup.tracegen", t0, split);
        t.span_since(sr, seed, "setup.catalog", split);
        t.setup.push(tracegen + catalog_s);
        t.sample("contacts.tracegen_s", tracegen);
        t.sample("caching.catalog_s", catalog_s);
        let contacts = inputs.trace.len() as u64;
        t.max("contacts.peak_resident", contacts as f64);

        let t0 = t.spans.now_ns();
        let (plain, wall, _) =
            joint_pass(bandwidth, &inputs, &factory, OracleMode::Campaign, false);
        t.first_pass_done();
        t.span_since(sr, seed, "run.untraced", t0);
        t.untraced_run(contacts, wall, &[wall]);
        t.attempted += contacts;
        check_joint(t, &label, seed, bandwidth, &plain);
        if i == 0 && bandwidth == 0.0 {
            // E19's contract: an unlimited link is E14's slot counting.
            let slots = joint_run_with(
                TracePreset::InfocomLike,
                seed,
                LOAD,
                Some(BUDGET),
                ContentionPriority::QueryFirst,
                CATALOG_ITEMS,
                QUERY_DEADLINE_H,
            );
            // Compared up to the link counters, which slot counting lacks.
            t.check(
                joint_outputs(&slots)[..6] == joint_outputs(&plain)[..6],
                || format!("seed {seed}: the unlimited link diverged from slot counting"),
            );
        }

        if opts.trace {
            let t0 = t.spans.now_ns();
            let (traced, wall, alloc) =
                joint_pass(bandwidth, &inputs, &factory, OracleMode::Campaign, true);
            t.traced_run(sr, seed, t0, contacts, wall, alloc);
            t.attempted += contacts;
            t.sample("core.joint.run_s", wall);
            t.check(joint_outputs(&traced) == joint_outputs(&plain), || {
                format!("seed {seed}: traced run diverged from the untraced one")
            });

            let t0 = t.spans.now_ns();
            let (off, wall, _) = joint_pass(bandwidth, &inputs, &factory, OracleMode::Off, false);
            t.span_since(sr, seed, "run.oracle_off", t0);
            t.oracle_off.push(wall);
            t.attempted += contacts;
            t.check(joint_outputs(&off) == joint_outputs(&plain), || {
                format!("seed {seed}: oracle-off run diverged from the campaign one")
            });
        }

        if i == 0 {
            joint_counts(t, &plain);
        }
        t.spans.close(sr);
    });
}

/// The per-layer counts of a workload's first seed-run.
fn joint_counts(t: &mut Tally, r: &JointReport) {
    let tx = refresh_tx(r) + r.access.transmissions;
    let budget_deferred = joint_count(r, BUDGET_DEFERRED);
    let byte_deferred = joint_count(r, BYTE_DEFERRED);
    let link = r.link.unwrap_or_default();
    let counts = [
        ("core.transmissions", refresh_tx(r) as f64),
        ("core.joint.budget_deferred", budget_deferred as f64),
        ("core.joint.byte_deferred", byte_deferred as f64),
        (
            "core.joint.grant_ratio",
            ratio(tx as f64, (tx + budget_deferred + byte_deferred) as f64),
        ),
        ("caching.success_ratio", r.access.success_ratio()),
        ("sim.link.enqueued", link.enqueued_msgs as f64),
        ("sim.link.drained", link.drained_msgs as f64),
        ("sim.link.dropped", link.dropped_msgs as f64),
        (
            "sim.link.drain_ratio",
            ratio(link.drained_msgs as f64, link.enqueued_msgs as f64),
        ),
        ("sim.link.peak_depth", link.max_depth as f64),
    ];
    t.layer.extend(counts);
    t.notes.push(format!(
        "first seed-run: versions {}, queries {}, success {:.6}, refresh tx {}, \
         budget-deferred {budget_deferred}, byte-deferred {byte_deferred}, queued {}, drained {}",
        r.freshness
            .iter()
            .map(|(_, f)| f.version_count)
            .sum::<u64>(),
        r.access.created,
        r.access.success_ratio(),
        refresh_tx(r),
        link.enqueued_msgs,
        link.drained_msgs
    ));
}

fn check_joint(t: &mut Tally, label: &str, seed: u64, bandwidth: f64, r: &JointReport) {
    let violations = r.oracle.total()
        + r.freshness
            .iter()
            .map(|(_, f)| f.oracle.total())
            .sum::<u64>();
    t.failures(violations, || {
        format!("{label} seed {seed}: oracle violations")
    });
    t.check(r.access.satisfied_fresh <= r.access.satisfied, || {
        format!("{label} seed {seed}: more fresh answers than answers")
    });
    t.check(r.mean_freshness().is_some(), || {
        format!("{label} seed {seed}: no item ran")
    });
    if bandwidth == 0.0 {
        let link = r.link.unwrap_or_default();
        t.check(
            r.access.extras.get(BYTE_DEFERRED) == 0 && link.enqueued_msgs == 0,
            || format!("{label} seed {seed}: an unlimited link deferred or queued traffic"),
        );
    }
    if seed == checks::PIN_SEED {
        let got = [
            ("mean_freshness", r.mean_freshness().unwrap_or(0.0)),
            ("success", r.access.success_ratio()),
            ("byte_deferred", r.access.extras.get(BYTE_DEFERRED) as f64),
            ("queued", r.link.unwrap_or_default().enqueued_msgs as f64),
            ("peak_bytes", r.max_contact_bytes as f64),
        ];
        match checks::e19_golden() {
            Ok(golden) => {
                for (key, v) in got {
                    let line = format!("{label}_{key}");
                    t.check(golden.get(&line) == Some(&v.to_bits()), || {
                        format!("seed {seed}: {line} = {v} differs from the e19 golden")
                    });
                }
            }
            Err(e) => t.check(false, || e),
        }
    }
}
