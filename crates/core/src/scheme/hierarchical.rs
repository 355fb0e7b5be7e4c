//! The paper's scheme: hierarchical refreshing with probabilistic
//! replication and distributed maintenance.
//!
//! [`HierarchicalScheme`] holds every piece of protocol state — the refresh
//! tree, replication plans, relay copies, retry ledgers, failure-detector
//! clocks — and reacts to the DES callbacks of [`RefreshScheme`]
//! (`on_start` / `on_version_birth` / `on_contact` / `on_state_loss` /
//! `on_finish`) through [`SchemeCtx`].

use omn_contacts::{ContactGraph, NodeId};
use omn_sim::{split_mix64, FxHashMap, FxHashSet, SimDuration, SimTime};

use crate::freshness::FreshnessRequirement;
use crate::hierarchy::{HierarchyStrategy, RefreshHierarchy};
use crate::replication::{EdgePlans, ReplicationPlanner};

use super::{Delivery, RefreshScheme, SchemeCtx};

/// Which contact-rate knowledge planning uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanningMode {
    /// Plan from the true trace-wide rates (upper bound; the common
    /// evaluation setting for structure-building decisions).
    Oracle,
    /// Plan from the rates estimated online from observed contacts
    /// (the deployable setting; needs periodic rebuilds to warm up).
    Estimated,
}

/// When — and how soon — the hierarchical scheme re-attempts a transfer
/// lost to transmission failure, corruption, or budget contention.
///
/// The classic protocol retried at the very next contact, a bounded number
/// of times; [`RetryPolicy::fixed`] reproduces that behavior exactly (zero
/// backoff, no jitter, no escalation) and is the default. Configurable
/// backoff spaces retries out so a flaky edge is not hammered at every
/// meeting, and optional escalation gives up on a tree edge whose direct
/// deliveries keep failing and re-parents around it instead of waiting for
/// the silence detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How many *extra* attempts a failed replication handoff or relay
    /// delivery gets at later contacts. `0` keeps the transfer logic
    /// fail-once (the non-resilient ablation).
    pub max_attempts: u32,
    /// Minimum wait after a failed attempt before the next try is allowed;
    /// [`SimDuration::ZERO`] retries at the very next contact (the classic
    /// behavior).
    pub base_backoff: SimDuration,
    /// Multiplier applied to the wait per consecutive failure (values
    /// below 1 are treated as 1).
    pub backoff_factor: f64,
    /// Deterministic jitter fraction in `[0, 1]`: each wait is stretched
    /// by up to this fraction, keyed by hashing the (endpoints, version,
    /// attempt) tuple through SplitMix64. No RNG stream is consumed, so
    /// enabling jitter never perturbs any other randomness in the run.
    pub jitter: f64,
    /// After this many consecutive failed direct refresh deliveries on a
    /// tree edge, the child stops waiting for the silence detector and
    /// re-parents under the next live member (or the root) it meets.
    /// `None` never escalates.
    pub escalate_after: Option<u32>,
}

impl RetryPolicy {
    /// The classic fixed-bound policy: up to `max_attempts` retries, each
    /// allowed at the very next contact. Bit-identical to the historical
    /// bounded-retry protocol.
    #[must_use]
    pub fn fixed(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: SimDuration::ZERO,
            backoff_factor: 1.0,
            jitter: 0.0,
            escalate_after: None,
        }
    }

    /// Exponential backoff: the k-th retry waits `base · 2^k`, stretched
    /// by up to 25% deterministic jitter, and an edge failing
    /// `max_attempts` direct deliveries in a row escalates to
    /// re-parenting.
    #[must_use]
    pub fn exponential(max_attempts: u32, base: SimDuration) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: base,
            backoff_factor: 2.0,
            jitter: 0.25,
            escalate_after: Some(max_attempts.max(1)),
        }
    }

    /// The earliest instant the attempt after `attempt` failures may go
    /// out, given the latest failure happened at `failed_at`. `key`
    /// seeds the deterministic jitter; pass anything stable for the
    /// retried transfer (e.g. a hash of its endpoints and version).
    #[must_use]
    pub fn next_attempt_at(&self, failed_at: SimTime, attempt: u32, key: u64) -> SimTime {
        if self.base_backoff.is_zero() {
            return failed_at;
        }
        let exp = i32::try_from(attempt.min(30)).unwrap_or(30);
        let mut wait = self.base_backoff.as_secs() * self.backoff_factor.max(1.0).powi(exp);
        if self.jitter > 0.0 {
            let mixed = split_mix64(key ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            #[allow(clippy::cast_precision_loss)]
            let frac = (mixed >> 11) as f64 / (1u64 << 53) as f64;
            wait *= 1.0 + self.jitter.min(1.0) * frac;
        }
        failed_at + SimDuration::from_secs(wait)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::fixed(2)
    }
}

/// A stable per-transfer hash key for [`RetryPolicy`] jitter, built from
/// the transfer's endpoints and version.
#[must_use]
fn retry_key(a: NodeId, b: NodeId, version: u64) -> u64 {
    (u64::from(a.0) << 48) ^ (u64::from(b.0) << 32) ^ version
}

/// Failure-awareness knobs for the hierarchical scheme (used with the
/// fault-injection layer; see `omn_contacts::faults`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Retry behavior for failed replication handoffs and relay
    /// deliveries.
    pub retry: RetryPolicy,
    /// A tree neighbor unheard-from for this many expected inter-contact
    /// times is presumed down. Set to `f64::INFINITY` to disable the
    /// failure detector (retry-only resilience).
    pub suspect_after_icts: f64,
    /// Silence must also exceed this floor before a suspicion fires, which
    /// guards against over-eager verdicts from noisy early rate estimates.
    pub min_silence: SimDuration,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy::fixed(2),
            suspect_after_icts: 3.0,
            min_silence: SimDuration::from_hours(1.0),
        }
    }
}

/// Configuration of the hierarchical scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchicalConfig {
    /// Tree construction strategy.
    pub strategy: HierarchyStrategy,
    /// Probabilistic replication, or `None` to disable (tree-only
    /// ablation).
    pub replication: Option<FreshnessRequirement>,
    /// Maximum relays per edge when replication is enabled.
    pub max_relays: usize,
    /// Rebuild the tree (and replication plans) every so often; `None`
    /// builds once at start.
    pub rebuild_every: Option<SimDuration>,
    /// Enable distributed re-parenting between rebuilds: a member that
    /// repeatedly meets a strictly better parent switches to it.
    pub reparent: bool,
    /// Rate knowledge used for planning.
    pub planning: PlanningMode,
    /// Failure awareness (bounded retry + failure detector), or `None` for
    /// the classic fail-once protocol. With `None` — or with no fault plan
    /// installed — behavior is bit-identical to the pre-resilience scheme.
    pub resilience: Option<ResilienceConfig>,
}

impl Default for HierarchicalConfig {
    fn default() -> HierarchicalConfig {
        HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(3) },
            replication: Some(FreshnessRequirement::new(0.9, SimDuration::from_hours(6.0))),
            max_relays: 3,
            rebuild_every: None,
            reparent: false,
            planning: PlanningMode::Oracle,
            resilience: None,
        }
    }
}

/// A planned hierarchy with its per-edge replication plans.
type PlannedStructure = (RefreshHierarchy, EdgePlans);

/// A relay copy of a version, owned by a non-caching relay node, destined
/// for a specific child.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RelayCopy {
    version: u64,
    target: NodeId,
    /// When the relay received the copy (for buffer-occupancy accounting).
    acquired: SimTime,
    /// Delivery attempts already lost to transmission failure; bounded by
    /// [`RetryPolicy::max_attempts`].
    retries: u32,
    /// The earliest instant the next delivery attempt may go out (retry
    /// backoff; [`SimTime::ZERO`] = no restriction).
    not_before: SimTime,
}

/// Hierarchical cache refreshing with probabilistic replication
/// (the reproduced paper's scheme), as a DES scheme.
///
/// * Each caching node refreshes exactly its children in the refresh tree.
/// * When a parent holding the current version meets a relay from one of
///   its edges' replication plans, it hands the relay a copy; the relay
///   delivers it to the designated child at their next meeting and then
///   drops it.
/// * Optionally the tree is rebuilt every epoch from (estimated or oracle)
///   contact rates, and members re-parent distributively when they meet a
///   strictly better parent.
#[derive(Debug)]
pub struct HierarchicalScheme {
    config: HierarchicalConfig,
    hierarchy: Option<RefreshHierarchy>,
    plans: EdgePlans,
    relay_copies: FxHashMap<NodeId, Vec<RelayCopy>>,
    /// `(relay, target, version)` triples already handed out, so a relay is
    /// preloaded at most once per version per child even after its copy is
    /// delivered or garbage-collected.
    handled: FxHashSet<(NodeId, NodeId, u64)>,
    /// `(relay, target, version)` handoffs lost to transmission failure:
    /// how many attempts they have consumed (so retries stay bounded) and
    /// when the next attempt is allowed (retry backoff).
    attempts: FxHashMap<(NodeId, NodeId, u64), (u32, SimTime)>,
    /// Consecutive failed *direct* refresh deliveries per tree edge
    /// `(parent, child)`; feeds [`RetryPolicy::escalate_after`]. Reset on
    /// a successful delivery.
    edge_failures: FxHashMap<(NodeId, NodeId), u32>,
    /// When each tree edge `(parent, child)` last saw its endpoints meet;
    /// the failure detector's silence clock (resilience only).
    edge_heard: FxHashMap<(NodeId, NodeId), SimTime>,
    /// Standing suspicions `(watcher, watched)`, so each detected failure
    /// is counted once until the watched node is heard from again.
    suspects: FxHashSet<(NodeId, NodeId)>,
    next_rebuild: Option<SimTime>,
    /// Re-parenting improvement threshold: the new path delay must be below
    /// this fraction of the current one (hysteresis against flapping).
    reparent_factor: f64,
    /// A pre-computed hierarchy and plan set installed at start instead of
    /// planning from the run's contact knowledge (see
    /// [`HierarchicalScheme::with_fixed_plan`]).
    fixed: Option<PlannedStructure>,
}

impl HierarchicalScheme {
    /// Creates the scheme.
    #[must_use]
    pub fn new(config: HierarchicalConfig) -> HierarchicalScheme {
        HierarchicalScheme {
            config,
            hierarchy: None,
            plans: EdgePlans::default(),
            relay_copies: FxHashMap::default(),
            handled: FxHashSet::default(),
            attempts: FxHashMap::default(),
            edge_failures: FxHashMap::default(),
            edge_heard: FxHashMap::default(),
            suspects: FxHashSet::default(),
            next_rebuild: None,
            reparent_factor: 0.7,
            fixed: None,
        }
    }

    /// Creates the scheme with an externally planned hierarchy and
    /// replication plans, installed verbatim at start. Used to evaluate
    /// *stale* plans (e.g. planned on a pre-failure network and executed
    /// after node departures); combine with `rebuild_every: None` and
    /// `reparent: false` for a fully static plan.
    #[must_use]
    pub fn with_fixed_plan(
        config: HierarchicalConfig,
        hierarchy: RefreshHierarchy,
        plans: EdgePlans,
    ) -> HierarchicalScheme {
        let mut s = HierarchicalScheme::new(config);
        s.fixed = Some((hierarchy, plans));
        s
    }

    /// The *source-only* baseline: a star with no replication — the source
    /// refreshes every caching node itself on direct contact.
    #[must_use]
    pub fn source_only() -> HierarchicalScheme {
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::Star,
            replication: None,
            rebuild_every: None,
            reparent: false,
            ..HierarchicalConfig::default()
        });
        s.reparent_factor = 0.0;
        s
    }

    /// The *random hierarchy* baseline: random parents under the same
    /// fanout bound, no replication, no maintenance.
    #[must_use]
    pub fn random_tree(fanout: Option<usize>) -> HierarchicalScheme {
        HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::Random { fanout },
            replication: None,
            rebuild_every: None,
            reparent: false,
            ..HierarchicalConfig::default()
        })
    }

    /// The current hierarchy (after `on_start`).
    #[must_use]
    pub fn hierarchy(&self) -> Option<&RefreshHierarchy> {
        self.hierarchy.as_ref()
    }

    /// The current replication plans, keyed by `(parent, child)`.
    #[must_use]
    pub fn plans(&self) -> &EdgePlans {
        &self.plans
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchicalConfig {
        &self.config
    }

    fn planning_graph(&self, ctx: &mut SchemeCtx<'_>) -> ContactGraph {
        match self.config.planning {
            PlanningMode::Oracle => ctx.oracle_graph().clone(),
            PlanningMode::Estimated => ctx.estimated_graph(),
        }
    }

    fn rebuild(&mut self, ctx: &mut SchemeCtx<'_>) {
        ctx.count("rebuilds", 1);
        // Fresh structure, fresh failure-detection state.
        self.edge_heard.clear();
        self.suspects.clear();
        self.attempts.clear();
        self.edge_failures.clear();
        if let Some((hierarchy, plans)) = self.fixed.take() {
            self.hierarchy = Some(hierarchy);
            self.plans = plans;
        } else {
            let graph = self.planning_graph(ctx);
            let members: Vec<NodeId> = ctx.members().to_vec();
            let hierarchy = RefreshHierarchy::build(
                ctx.root(),
                &members,
                &graph,
                self.config.strategy,
                ctx.rng(),
            );
            self.plans = match self.config.replication {
                Some(requirement) => ReplicationPlanner::new(requirement, self.config.max_relays)
                    .plan_hierarchy(&hierarchy, &graph),
                None => EdgePlans::default(),
            };
            self.hierarchy = Some(hierarchy);
        }
        // Old relay copies address the old tree; drop them.
        self.relay_copies.clear();
        self.check_tree(ctx, None);
        self.check_membership(ctx);
    }

    fn fanout_bound(&self) -> Option<usize> {
        match self.config.strategy {
            HierarchyStrategy::GreedySed { fanout } | HierarchyStrategy::Random { fanout } => {
                fanout
            }
            HierarchyStrategy::Star => None,
        }
    }

    fn maybe_reparent(&mut self, x: NodeId, y: NodeId, ctx: &mut SchemeCtx<'_>) {
        let fanout = self.fanout_bound();
        let Some(h) = self.hierarchy.as_mut() else {
            return;
        };
        // x considers y as a new parent.
        if h.parent_of(x).is_none() || !h.contains(y) || h.parent_of(x) == Some(y) {
            return;
        }
        let mut rate = |a: NodeId, b: NodeId| ctx.estimated_rate(a, b);
        let hop = {
            let r = rate(y, x);
            if r > 0.0 {
                1.0 / r
            } else {
                return; // never observed to meet: no basis to switch
            }
        };
        // Fallible lookups: x or y may sit on a chain a crash with state
        // loss broke and re-attachment has not repaired yet. A failed
        // lookup just means "no basis to switch this contact".
        let (Ok(current), Ok(via_parent)) = (
            h.try_expected_path_delay_with(x, &mut rate),
            h.try_expected_path_delay_with(y, &mut rate),
        ) else {
            return;
        };
        let via_y = via_parent + hop;
        if via_y < current * self.reparent_factor && h.reparent(x, y, fanout).is_ok() {
            ctx.count("reparent-events", 1);
            // The plan for the old edge no longer applies.
            self.plans.retain(|&(_, c), _| c != x);
            self.check_tree(ctx, Some(x));
        }
    }

    /// In-place structural invariant check: after any tree mutation the
    /// hierarchy must still be an acyclic, fanout-bounded tree. Reported
    /// through the run's oracle sink; a no-op when oracles are off.
    fn check_tree(&self, ctx: &mut SchemeCtx<'_>, node: Option<NodeId>) {
        if !ctx.oracle_active() {
            return;
        }
        if let Some(h) = self.hierarchy.as_ref() {
            if let Err(e) = h.validate(self.fanout_bound()) {
                ctx.oracle_check(false, "tree-structure", node, || e.to_string());
            }
        }
    }

    /// In-place membership invariant check: every caching member must be
    /// attached somewhere in the refresh tree (no orphan beyond the
    /// detector's reach). Reported through the run's oracle sink.
    fn check_membership(&self, ctx: &mut SchemeCtx<'_>) {
        if !ctx.oracle_active() {
            return;
        }
        let Some(h) = self.hierarchy.as_ref() else {
            return;
        };
        let orphans: Vec<NodeId> = ctx
            .members()
            .iter()
            .copied()
            .filter(|&m| !h.contains(m))
            .collect();
        for m in orphans {
            ctx.oracle_check(false, "member-orphaned", Some(m), || {
                "caching member not attached to the refresh tree".to_string()
            });
        }
    }

    /// Retry-policy escalation: when the direct parent→child edge toward
    /// `x` has failed `esc` consecutive deliveries, `x` stops waiting for
    /// the silence detector and re-parents under the live peer `y` it is
    /// meeting right now (fanout permitting, root never abandoned).
    fn maybe_escalate(&mut self, x: NodeId, y: NodeId, esc: u32, ctx: &mut SchemeCtx<'_>) {
        let Some(p) = self.hierarchy.as_ref().and_then(|h| h.parent_of(x)) else {
            return;
        };
        if p == y || p == ctx.root() {
            return;
        }
        if self.edge_failures.get(&(p, x)).copied().unwrap_or(0) < esc {
            return;
        }
        if y != ctx.root() && !ctx.is_member(y) {
            return;
        }
        let fanout = self.fanout_bound();
        let reparented = self
            .hierarchy
            .as_mut()
            .is_some_and(|h| h.contains(y) && h.reparent(x, y, fanout).is_ok());
        if reparented {
            ctx.count("retry-escalations", 1);
            self.edge_failures.remove(&(p, x));
            self.plans.retain(|&(_, ch), _| ch != x);
            self.edge_heard.insert((y, x), ctx.now());
            self.check_tree(ctx, Some(x));
        }
    }

    /// Checks whether the silence on tree edge `edge` has exceeded the
    /// detection threshold, and if so registers the `(watcher, watched)`
    /// suspicion. Returns true only for a *new* suspicion, so each detected
    /// failure is counted once until the watched node is heard from again.
    /// Pairs with no rate estimate are never suspected: silence is only
    /// meaningful relative to an expected inter-contact time.
    fn silence_exceeded(
        &mut self,
        edge: (NodeId, NodeId),
        watcher: NodeId,
        watched: NodeId,
        now: SimTime,
        res: &ResilienceConfig,
        ctx: &mut SchemeCtx<'_>,
    ) -> bool {
        let heard = *self.edge_heard.entry(edge).or_insert(now);
        let rate = ctx.estimated_rate(edge.0, edge.1);
        if rate <= 0.0 {
            return false;
        }
        let threshold = res.min_silence.as_secs().max(res.suspect_after_icts / rate);
        now.saturating_since(heard).as_secs() > threshold
            && self.suspects.insert((watcher, watched))
    }

    /// The failure detector, run by `x` while it meets `peer`: a tree
    /// neighbor (child or parent) unheard-from for too long is presumed
    /// down. A presumed-down child stops receiving replication effort; a
    /// presumed-down parent is routed around by adopting the live `peer`
    /// as the new parent when the tree allows it. The root is never
    /// abandoned — when the source itself is down, the tree is kept intact
    /// so members keep serving (stale-degrading) cached versions and
    /// recovery is immediate at the source's first contact after rejoin.
    fn detect_failures(&mut self, x: NodeId, peer: NodeId, ctx: &mut SchemeCtx<'_>) {
        let Some(res) = self.config.resilience else {
            return;
        };
        let now = ctx.now();
        let (parent, children) = {
            let Some(h) = self.hierarchy.as_ref() else {
                return;
            };
            if !h.contains(x) {
                return;
            }
            (h.parent_of(x), h.children_of(x).to_vec())
        };

        // Parent side: stop spending relays on a presumed-dead child.
        for c in children {
            if c == peer {
                continue;
            }
            if self.silence_exceeded((x, c), x, c, now, &res, ctx) {
                ctx.count("suspected-failures", 1);
                if !ctx.node_is_down(c) {
                    ctx.count("false-suspicions", 1);
                }
                self.plans.retain(|&(p, ch), _| !(p == x && ch == c));
            }
        }

        // Child side: route around a presumed-dead parent via the node we
        // are actually meeting right now.
        if let Some(p) = parent {
            if p != peer && self.silence_exceeded((p, x), x, p, now, &res, ctx) {
                ctx.count("suspected-failures", 1);
                if !ctx.node_is_down(p) {
                    ctx.count("false-suspicions", 1);
                }
                if p != ctx.root() && (peer == ctx.root() || ctx.is_member(peer)) {
                    let fanout = self.fanout_bound();
                    let reparented = self
                        .hierarchy
                        .as_mut()
                        .is_some_and(|h| h.contains(peer) && h.reparent(x, peer, fanout).is_ok());
                    if reparented {
                        ctx.count("failure-reparents", 1);
                        self.plans.retain(|&(_, ch), _| ch != x);
                        self.edge_heard.insert((peer, x), now);
                        self.check_tree(ctx, Some(x));
                    }
                }
            }
        }
    }
}

impl RefreshScheme for HierarchicalScheme {
    fn name(&self) -> &'static str {
        match (&self.config.strategy, self.config.replication.is_some()) {
            (HierarchyStrategy::Star, _) => "source-only",
            (HierarchyStrategy::Random { .. }, _) => "random-tree",
            (HierarchyStrategy::GreedySed { .. }, true) => "hierarchical",
            (HierarchyStrategy::GreedySed { .. }, false) => "hier-no-repl",
        }
    }

    /// Called once before the first event: plan the initial structure.
    fn on_start(&mut self, ctx: &mut SchemeCtx<'_>) {
        self.rebuild(ctx);
        self.next_rebuild = self.config.rebuild_every.map(|every| ctx.now() + every);
    }

    /// Called when the source produces `version` (strictly increasing).
    fn on_version_birth(&mut self, version: u64, _ctx: &mut SchemeCtx<'_>) {
        // Bookkeeping for superseded versions is no longer needed.
        self.handled.retain(|&(_, _, v)| v >= version);
        self.attempts.retain(|&(_, _, v), _| v >= version);
    }

    /// Called at the start of every contact.
    fn on_contact(&mut self, a: NodeId, b: NodeId, ctx: &mut SchemeCtx<'_>) {
        if let (Some(every), Some(at)) = (self.config.rebuild_every, self.next_rebuild) {
            if ctx.now() >= at {
                self.rebuild(ctx);
                self.next_rebuild = Some(ctx.now() + every);
            }
        }

        let current = ctx.current_version();
        let resilient = self.config.resilience.is_some();
        let retry = self
            .config
            .resilience
            .map_or(RetryPolicy::fixed(0), |r| r.retry);
        for (x, y) in [(a, b), (b, a)] {
            let Some(h) = self.hierarchy.as_ref() else {
                continue;
            };

            // 0. Failure-detector clocks: meeting y clears any standing
            // suspicion of it and restarts the silence clock on a tree
            // edge between them (resilience only).
            if resilient {
                self.suspects.remove(&(x, y));
                if h.parent_of(y) == Some(x) {
                    self.edge_heard.insert((x, y), ctx.now());
                }
            }

            // 1. Tree responsibility: x refreshes its child y. A delivery
            // lost to transmission failure retries implicitly: y's cache is
            // unchanged, so the next x–y contact attempts again. Consecutive
            // direct-delivery failures per edge feed retry escalation.
            if h.parent_of(y) == Some(x) {
                if let Some(vx) = ctx.version_of(x) {
                    if ctx.version_of(y).is_none_or(|vy| vy < vx) {
                        if ctx.try_deliver(x, y, vx) == Delivery::Failed {
                            *self.edge_failures.entry((x, y)).or_insert(0) += 1;
                        } else {
                            self.edge_failures.remove(&(x, y));
                        }
                    }
                }
            }

            // 2. Replication spawn: x holds the current version and meets a
            // relay y designated for one of its child edges. Under
            // resilience, a handoff lost to transmission failure may be
            // re-attempted at later contacts, up to the retry bound and
            // respecting the policy's backoff.
            if ctx.version_of(x) == Some(current) && !ctx.is_member(y) && y != ctx.root() {
                for &c in h.children_of(x) {
                    let Some(plan) = self.plans.get(&(x, c)) else {
                        continue;
                    };
                    if !plan.relays.contains(&y) {
                        continue;
                    }
                    let key = (y, c, current);
                    if self.handled.contains(&key) {
                        continue;
                    }
                    let (prior, not_before) = self
                        .attempts
                        .get(&key)
                        .copied()
                        .unwrap_or((0, SimTime::ZERO));
                    if ctx.now() < not_before {
                        ctx.count("retry-backoff-deferrals", 1);
                        continue;
                    }
                    self.handled.insert(key);
                    if prior > 0 {
                        ctx.count("replication-retries", 1);
                    }
                    if ctx.attempt_transfer(x) {
                        self.attempts.remove(&key);
                        self.relay_copies.entry(y).or_default().push(RelayCopy {
                            version: current,
                            target: c,
                            acquired: ctx.now(),
                            retries: 0,
                            not_before: SimTime::ZERO,
                        });
                        ctx.record_replica();
                    } else if prior < retry.max_attempts {
                        // Unmark so a later contact (past the backoff
                        // window) tries again.
                        let next =
                            retry.next_attempt_at(ctx.now(), prior, retry_key(y, c, current));
                        self.attempts.insert(key, (prior + 1, next));
                        self.handled.remove(&key);
                    }
                }
            }

            // 3. Relay delivery: x carries copies destined for y; stale
            // copies (superseded versions) are garbage-collected. Dropped
            // copies contribute to relay buffer-occupancy accounting.
            if let Some(copies) = self.relay_copies.get_mut(&x) {
                let mut kept = Vec::with_capacity(copies.len());
                let mut occupancy_secs = 0.0;
                for mut copy in copies.drain(..) {
                    if copy.target == y {
                        if ctx.now() < copy.not_before {
                            // Still inside the backoff window: hold the copy
                            // without spending an attempt.
                            ctx.count("retry-backoff-deferrals", 1);
                            kept.push(copy);
                            continue;
                        }
                        match ctx.try_deliver(x, y, copy.version) {
                            Delivery::Failed if copy.retries < retry.max_attempts => {
                                // Keep the copy for another try at a later
                                // x–y contact (resilience only).
                                let prior = copy.retries;
                                copy.retries += 1;
                                copy.not_before = retry.next_attempt_at(
                                    ctx.now(),
                                    prior,
                                    retry_key(x, y, copy.version),
                                );
                                ctx.count("relay-retries", 1);
                                kept.push(copy);
                            }
                            _ => {
                                // Duty toward y done either way (delivered,
                                // already superseded, or out of retries).
                                occupancy_secs +=
                                    ctx.now().saturating_since(copy.acquired).as_secs();
                            }
                        }
                    } else if copy.version != ctx.current_version() {
                        occupancy_secs += ctx.now().saturating_since(copy.acquired).as_secs();
                    } else {
                        kept.push(copy);
                    }
                }
                *copies = kept;
                if occupancy_secs > 0.0 {
                    ctx.count("relay-copy-seconds", occupancy_secs as u64);
                }
            }

            // 4. Distributed maintenance.
            if self.config.reparent {
                self.maybe_reparent(x, y, ctx);
            }

            // 5. Failure detection: prolonged silence on a tree edge marks
            // the far endpoint as presumed down (resilience only).
            if resilient {
                self.detect_failures(x, y, ctx);
            }

            // 5b. Retry escalation: an edge whose direct deliveries keep
            // failing is routed around without waiting for silence.
            if let Some(esc) = retry.escalate_after {
                if esc > 0 {
                    self.maybe_escalate(x, y, esc, ctx);
                }
            }
        }
    }

    /// Called when a caching node rejoins after a crash that wiped its
    /// state (cache contents *and* protocol state): drop everything the
    /// scheme believed about `n` and re-attach it under the root.
    fn on_state_loss(&mut self, n: NodeId, ctx: &mut SchemeCtx<'_>) {
        ctx.count("crash-state-losses", 1);
        // The crashed node's protocol state is gone: drop every suspicion,
        // silence clock, failure streak, and pending retry that involves it.
        self.suspects.retain(|&(w, s)| w != n && s != n);
        self.edge_heard.retain(|&(a, b), _| a != n && b != n);
        self.edge_failures.retain(|&(a, b), _| a != n && b != n);
        self.attempts.retain(|&(_, target, _), _| target != n);
        self.handled.retain(|&(_, target, _)| target != n);
        // Re-attach the amnesiac node directly under the root: it
        // remembers nothing about its old parent, and the root is the one
        // address every member knows. Three cases need repairing, all
        // reachable from the E17 fault ladder:
        //
        //  * the common one — n is attached under some non-root parent and
        //    simply moves to the root;
        //  * the root (or fallback host) is at its fanout bound — attach
        //    under the shallowest node with spare capacity instead of
        //    leaving n behind a possibly-dead chain;
        //  * n is not in the tree at all (a stale fixed plan never placed
        //    it, or its chain was severed) — it must be *inserted*, not
        //    re-parented; skipping it here is what used to leave orphans
        //    for later lookups to trip over.
        let root = ctx.root();
        let fanout = self.fanout_bound();
        let mut reattached = false;
        let mut parent = root;
        if let Some(h) = self.hierarchy.as_mut() {
            if h.contains(n) {
                if h.parent_of(n).is_some_and(|p| p != root) {
                    reattached = h.reparent(n, root, fanout).is_ok();
                    if !reattached {
                        // Root full: any node with spare capacity outside
                        // n's own subtree keeps n reachable.
                        if let Some(host) = h.first_open_host(fanout) {
                            parent = host;
                            reattached = host != n && h.reparent(n, host, fanout).is_ok();
                        }
                    }
                }
            } else if n != root && ctx.is_member(n) {
                reattached = h.attach_member(n, root, fanout).is_ok();
                if !reattached {
                    if let Some(host) = h.first_open_host(fanout) {
                        parent = host;
                        reattached = h.attach_member(n, host, fanout).is_ok();
                    }
                }
            }
        }
        if reattached {
            ctx.count("crash-reattaches", 1);
            self.plans.retain(|&(_, c), _| c != n);
            self.edge_heard.insert((parent, n), ctx.now());
            self.check_tree(ctx, Some(n));
        }
    }

    /// Called once after the last event (with `ctx.now()` at the trace
    /// end): flush occupancy accounting and run the final structural sweep.
    fn on_finish(&mut self, ctx: &mut SchemeCtx<'_>) {
        // Copies still sitting at relays occupy buffers until the end.
        let mut occupancy_secs = 0.0;
        for copies in self.relay_copies.values() {
            for copy in copies {
                occupancy_secs += ctx.now().saturating_since(copy.acquired).as_secs();
            }
        }
        self.relay_copies.clear();
        if occupancy_secs > 0.0 {
            ctx.count("relay-copy-seconds", occupancy_secs as u64);
        }
        // End-of-run structural sweep: the tree must still be sound and no
        // member may have been left orphaned.
        self.check_tree(ctx, None);
        self.check_membership(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshness::FreshnessRequirement;
    use crate::hierarchy::HierarchyStrategy;
    use crate::scheme::testutil::CtxHarness;
    use omn_contacts::ContactGraph;
    use omn_sim::{SimDuration, SimTime};

    /// Graph: source 0, members 1 (fast link) and 2 (slow direct link but
    /// fast path via 1); node 3 is a good relay between 0 and 2.
    fn graph() -> ContactGraph {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        g.set_rate(NodeId(1), NodeId(2), 1.0);
        g.set_rate(NodeId(0), NodeId(2), 0.001);
        g.set_rate(NodeId(0), NodeId(3), 0.5);
        g.set_rate(NodeId(3), NodeId(2), 0.5);
        g
    }

    fn default_scheme() -> HierarchicalScheme {
        HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
            replication: Some(FreshnessRequirement::new(0.9, SimDuration::from_secs(10.0))),
            max_relays: 2,
            ..HierarchicalConfig::default()
        })
    }

    #[test]
    fn builds_tree_on_start() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = default_scheme();
        s.on_start(&mut h.ctx());
        let tree = s.hierarchy().unwrap();
        tree.validate(Some(2)).unwrap();
        // Fast chain 0→1→2 wins over the slow direct 0→2.
        assert_eq!(tree.parent_of(NodeId(1)), Some(NodeId(0)));
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn parent_refreshes_only_its_children() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = default_scheme();
        s.on_start(&mut h.ctx());
        h.current_version = 1;

        // Source meets member 2 — but 2's parent is 1, so no delivery.
        h.now = SimTime::from_secs(10.0);
        s.on_contact(NodeId(0), NodeId(2), &mut h.ctx());
        assert_eq!(h.held(NodeId(2)), 0);

        // Source meets its child 1: refresh.
        s.on_contact(NodeId(0), NodeId(1), &mut h.ctx());
        assert_eq!(h.held(NodeId(1)), 1);

        // 1 meets its child 2: refresh cascades.
        h.now = SimTime::from_secs(20.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.held(NodeId(2)), 1);
        assert_eq!(h.transmissions, 2);
    }

    #[test]
    fn relays_carry_versions_to_their_target() {
        // Source 0, single member 2 with a slow direct link; node 3 is the
        // only useful relay (node 1 is kept disconnected here so the relay
        // choice is forced).
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(2), 0.001);
        g.set_rate(NodeId(0), NodeId(3), 0.5);
        g.set_rate(NodeId(3), NodeId(2), 0.5);
        let mut h = CtxHarness::new(g, NodeId(0), vec![NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: None },
            replication: Some(FreshnessRequirement::new(
                0.95,
                SimDuration::from_secs(10.0),
            )),
            max_relays: 2,
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        let tree = s.hierarchy().unwrap();
        // Only member is 2; its parent is the root.
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        let plan = &s.plans()[&(NodeId(0), NodeId(2))];
        assert!(
            plan.relays.contains(&NodeId(3)),
            "relay 3 should be selected, got {:?}",
            plan.relays
        );

        h.current_version = 1;
        h.now = SimTime::from_secs(5.0);
        // Source meets relay 3: replica handed over.
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.replicas, 1);
        assert_eq!(h.held(NodeId(2)), 0);

        // Relay 3 meets child 2: delivery.
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.held(NodeId(2)), 1);

        // Relay copy dropped: meeting 2 again transfers nothing.
        let tx = h.transmissions;
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, tx);
    }

    #[test]
    fn stale_relay_copies_are_garbage_collected() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: None },
            replication: Some(FreshnessRequirement::new(
                0.95,
                SimDuration::from_secs(10.0),
            )),
            max_relays: 2,
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        // A new version supersedes the relay's copy; on its next contact
        // the stale copy is dropped without delivery.
        h.current_version = 2;
        h.now = SimTime::from_secs(6.0);
        s.on_contact(NodeId(3), NodeId(1), &mut h.ctx());
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.held(NodeId(2)), 0, "stale copy must not deliver");
    }

    #[test]
    fn source_only_is_a_star() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::source_only();
        s.on_start(&mut h.ctx());
        assert_eq!(s.name(), "source-only");
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        assert!(s.plans().is_empty());

        h.current_version = 1;
        h.now = SimTime::from_secs(1.0);
        // Member-to-member contact does nothing under source-only.
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, 0);
        s.on_contact(NodeId(0), NodeId(2), &mut h.ctx());
        assert_eq!(h.held(NodeId(2)), 1);
    }

    #[test]
    fn reparenting_switches_to_better_parent() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::Star, // start from the bad tree
            replication: None,
            reparent: true,
            ..HierarchicalConfig::default()
        });
        // Force the star name check not to matter; enable reparenting.
        s.on_start(&mut h.ctx());
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(2)), Some(NodeId(0)));
        // Feed the estimator: 0–1 and 1–2 meet often; 0–2 rarely.
        for _ in 0..50 {
            h.rates.record_contact(NodeId(0), NodeId(1));
            h.rates.record_contact(NodeId(1), NodeId(2));
        }
        h.rates.record_contact(NodeId(0), NodeId(2));
        h.now = SimTime::from_secs(510.0);
        // 2 meets 1: via-1 delay ≈ 10 + 10, current ≈ 500 → switch.
        s.on_contact(NodeId(2), NodeId(1), &mut h.ctx());
        assert_eq!(
            s.hierarchy().unwrap().parent_of(NodeId(2)),
            Some(NodeId(1)),
            "2 should re-parent under 1"
        );
        s.hierarchy().unwrap().validate(None).unwrap();
    }

    #[test]
    fn fixed_plan_is_installed_verbatim() {
        let g = graph();
        let mut rng = omn_sim::RngFactory::new(7).stream("plan");
        // A deliberately bad (star) hierarchy planned externally.
        let hierarchy = RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
        let planner = crate::replication::ReplicationPlanner::new(
            FreshnessRequirement::new(0.9, SimDuration::from_secs(10.0)),
            2,
        );
        let plans = planner.plan_hierarchy(&hierarchy, &g);
        let mut h = CtxHarness::new(g, NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::with_fixed_plan(
            HierarchicalConfig {
                strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
                ..HierarchicalConfig::default()
            },
            hierarchy.clone(),
            plans.clone(),
        );
        s.on_start(&mut h.ctx());
        // The installed tree is the star we passed, not a fresh GreedySed
        // build.
        assert_eq!(s.hierarchy(), Some(&hierarchy));
        assert_eq!(s.plans(), &plans);
    }

    #[test]
    fn epoch_rebuild_happens() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
            replication: None,
            rebuild_every: Some(SimDuration::from_secs(100.0)),
            planning: PlanningMode::Estimated,
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        // With no observations, the estimated tree is arbitrary. Observe
        // contacts, pass the epoch, and the tree adapts.
        for _ in 0..30 {
            h.rates.record_contact(NodeId(0), NodeId(1));
            h.rates.record_contact(NodeId(1), NodeId(2));
        }
        h.now = SimTime::from_secs(150.0);
        s.on_contact(NodeId(0), NodeId(1), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(1)));
    }

    /// Source 0, lone member 2 reachable mainly through relay 3 (same
    /// shape as `relays_carry_versions_to_their_target`).
    fn relay_graph() -> ContactGraph {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(2), 0.001);
        g.set_rate(NodeId(0), NodeId(3), 0.5);
        g.set_rate(NodeId(3), NodeId(2), 0.5);
        g
    }

    fn relay_scheme(resilience: Option<ResilienceConfig>) -> HierarchicalScheme {
        HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: None },
            replication: Some(FreshnessRequirement::new(
                0.95,
                SimDuration::from_secs(10.0),
            )),
            max_relays: 2,
            resilience,
            ..HierarchicalConfig::default()
        })
    }

    /// Detection disabled; only the retry half of resilience active.
    fn retry_only(max_attempts: u32) -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy::fixed(max_attempts),
            suspect_after_icts: f64::INFINITY,
            min_silence: SimDuration::from_hours(1.0),
        }
    }

    #[test]
    fn replication_handoff_retries_until_exhausted() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = relay_scheme(Some(retry_only(2)));
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        h.fail_all_transfers();

        // Initial handoff attempt is lost on the air.
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!((h.transmissions, h.replicas), (1, 0));
        // Two bounded retries at later contacts, also lost.
        h.now = SimTime::from_secs(6.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        h.now = SimTime::from_secs(7.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.transmissions, 3);
        assert_eq!(h.extras.get("replication-retries"), 2);
        // Retry budget spent: no further attempts even once loss clears.
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        h.faults = None;
        h.now = SimTime::from_secs(9.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!((h.transmissions, h.replicas), (3, 0));
    }

    #[test]
    fn non_resilient_handoff_fails_once_and_gives_up() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = relay_scheme(None);
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        h.fail_all_transfers();
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!((h.transmissions, h.replicas), (1, 0));
        h.faults = None;
        h.now = SimTime::from_secs(6.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!((h.transmissions, h.replicas), (1, 0), "fail-once: no retry");
    }

    #[test]
    fn resilient_relay_retries_failed_delivery() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = relay_scheme(Some(retry_only(1)));
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        // Clean handoff to the relay...
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.replicas, 1);
        // ...then the delivery to the child is lost; the copy is retained.
        h.fail_all_transfers();
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.held(NodeId(2)), 0);
        assert_eq!(h.extras.get("relay-retries"), 1);
        // Next meeting retries and succeeds.
        h.faults = None;
        h.now = SimTime::from_secs(9.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.held(NodeId(2)), 1);
    }

    #[test]
    fn non_resilient_relay_drops_copy_on_failed_delivery() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let mut s = relay_scheme(None);
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        assert_eq!(h.replicas, 1);
        h.fail_all_transfers();
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        h.faults = None;
        let tx = h.transmissions;
        h.now = SimTime::from_secs(9.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, tx, "copy was dropped on first failure");
        assert_eq!(h.held(NodeId(2)), 0);
    }

    #[test]
    fn failure_detector_reparents_around_silent_parent() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
            replication: None,
            resilience: Some(ResilienceConfig {
                retry: RetryPolicy::fixed(0),
                suspect_after_icts: 1.0,
                min_silence: SimDuration::from_secs(50.0),
            }),
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        // Oracle build: chain 0→1→2.
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(2)), Some(NodeId(1)));
        // Give the detector rate estimates (ICT ≈ 10 s on both edges).
        for _ in 0..11 {
            h.rates.record_contact(NodeId(0), NodeId(1));
            h.rates.record_contact(NodeId(1), NodeId(2));
        }
        // Edge clocks start at the 1–2 meeting at t = 100.
        h.now = SimTime::from_secs(100.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.extras.get("suspected-failures"), 0);
        // Node 1 then falls silent. At t = 200, 2 meets the root directly:
        // silence (100 s) far exceeds both the 50 s floor and one expected
        // ICT, so 2 presumes its parent 1 dead and re-parents under the
        // root; the root likewise suspects its silent child 1.
        h.now = SimTime::from_secs(200.0);
        s.on_contact(NodeId(2), NodeId(0), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("failure-reparents"), 1);
        assert_eq!(h.extras.get("suspected-failures"), 2);
        // No fault plan is installed, so both suspicions are false alarms.
        assert_eq!(h.extras.get("false-suspicions"), 2);
        // Repeat contacts do not re-count standing suspicions.
        h.now = SimTime::from_secs(300.0);
        s.on_contact(NodeId(2), NodeId(0), &mut h.ctx());
        assert_eq!(h.extras.get("suspected-failures"), 2);
    }

    #[test]
    fn fixed_policy_has_no_backoff_and_no_escalation() {
        let p = RetryPolicy::fixed(3);
        let t = SimTime::from_secs(40.0);
        assert_eq!(p.next_attempt_at(t, 0, 123), t);
        assert_eq!(p.next_attempt_at(t, 5, 99), t);
        assert_eq!(p.escalate_after, None);
        assert_eq!(RetryPolicy::default(), RetryPolicy::fixed(2));
    }

    #[test]
    fn exponential_backoff_grows_and_jitter_is_deterministic() {
        let p = RetryPolicy::exponential(4, SimDuration::from_secs(100.0));
        let t = SimTime::from_secs(0.0);
        let w0 = p.next_attempt_at(t, 0, 7).as_secs();
        let w1 = p.next_attempt_at(t, 1, 7).as_secs();
        let w2 = p.next_attempt_at(t, 2, 7).as_secs();
        // Each wait lands in [base·2^k, base·2^k·1.25).
        assert!((100.0..125.0).contains(&w0), "w0 = {w0}");
        assert!((200.0..250.0).contains(&w1), "w1 = {w1}");
        assert!((400.0..500.0).contains(&w2), "w2 = {w2}");
        // Same key, same attempt: bit-identical. Different key: different
        // jitter (with overwhelming probability for these constants).
        assert_eq!(p.next_attempt_at(t, 1, 7).as_secs(), w1);
        assert_ne!(p.next_attempt_at(t, 1, 8).as_secs(), w1);
        assert_eq!(p.escalate_after, Some(4));
    }

    #[test]
    fn relay_backoff_defers_retries_until_the_window_passes() {
        let mut h = CtxHarness::new(relay_graph(), NodeId(0), vec![NodeId(2)]);
        let res = ResilienceConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: SimDuration::from_secs(10.0),
                backoff_factor: 2.0,
                jitter: 0.0,
                escalate_after: None,
            },
            suspect_after_icts: f64::INFINITY,
            min_silence: SimDuration::from_hours(1.0),
        };
        let mut s = relay_scheme(Some(res));
        s.on_start(&mut h.ctx());
        h.current_version = 1;
        // Clean handoff to the relay, then the delivery fails at t = 8.
        h.now = SimTime::from_secs(5.0);
        s.on_contact(NodeId(0), NodeId(3), &mut h.ctx());
        h.fail_all_transfers();
        h.now = SimTime::from_secs(8.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.extras.get("relay-retries"), 1);
        // A meeting 5 s later is inside the 10 s backoff window: deferred,
        // no transmission spent.
        h.faults = None;
        let tx = h.transmissions;
        h.now = SimTime::from_secs(13.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.transmissions, tx, "backoff must defer the attempt");
        assert_eq!(h.extras.get("retry-backoff-deferrals"), 1);
        assert_eq!(h.held(NodeId(2)), 0);
        // Past the window the retry goes out and succeeds.
        h.now = SimTime::from_secs(19.0);
        s.on_contact(NodeId(3), NodeId(2), &mut h.ctx());
        assert_eq!(h.held(NodeId(2)), 1);
    }

    #[test]
    fn escalation_reparents_after_consecutive_direct_failures() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::new(HierarchicalConfig {
            strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
            replication: None,
            resilience: Some(ResilienceConfig {
                retry: RetryPolicy {
                    escalate_after: Some(2),
                    ..RetryPolicy::fixed(0)
                },
                suspect_after_icts: f64::INFINITY,
                min_silence: SimDuration::from_hours(1.0),
            }),
            ..HierarchicalConfig::default()
        });
        s.on_start(&mut h.ctx());
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(2)), Some(NodeId(1)));
        // Parent 1 holds version 1; its two direct deliveries to child 2
        // are lost on the air.
        h.current_version = 1;
        h.set_held(NodeId(1), 1);
        h.fail_all_transfers();
        h.now = SimTime::from_secs(10.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        h.now = SimTime::from_secs(20.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        assert_eq!(h.extras.get("failed-transmissions"), 2);
        // The child then meets the root: with two consecutive failures on
        // its parent edge it escalates and re-parents under the root.
        h.faults = None;
        h.now = SimTime::from_secs(30.0);
        s.on_contact(NodeId(2), NodeId(0), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("retry-escalations"), 1);
        assert!(h.world.oracle_report().is_clean());
    }

    #[test]
    fn state_loss_reattaches_the_amnesiac_node_under_the_root() {
        let mut h = CtxHarness::new(graph(), NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = default_scheme();
        s.on_start(&mut h.ctx());
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(2)), Some(NodeId(1)));
        h.now = SimTime::from_secs(100.0);
        s.on_state_loss(NodeId(2), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("crash-state-losses"), 1);
        assert_eq!(h.extras.get("crash-reattaches"), 1);
        // A node already under the root keeps its attachment.
        s.on_state_loss(NodeId(1), &mut h.ctx());
        assert_eq!(s.hierarchy().unwrap().parent_of(NodeId(1)), Some(NodeId(0)));
        assert_eq!(h.extras.get("crash-state-losses"), 2);
        assert_eq!(h.extras.get("crash-reattaches"), 1);
        assert!(h.world.oracle_report().is_clean());
    }

    /// E17-shaped regression: a *stale* fixed plan (planned on a
    /// pre-failure network) never placed member 2, and 2 later rejoins
    /// from a crash with state loss. The lookup of the orphan used to be
    /// the `"{cur} is not in the hierarchy"` panic path; now the contact
    /// is survived, and the state-loss rejoin inserts the orphan back
    /// into the tree.
    #[test]
    fn state_loss_inserts_a_member_the_stale_plan_orphaned() {
        let g = graph();
        let mut rng = omn_sim::RngFactory::new(1).stream("h");
        // The plan was drawn while node 2 was down: it only covers [1].
        let stale = crate::hierarchy::RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1)],
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
        let mut h = CtxHarness::new(g, NodeId(0), vec![NodeId(1), NodeId(2)]);
        let mut s = HierarchicalScheme::with_fixed_plan(
            HierarchicalConfig {
                strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
                reparent: true,
                resilience: Some(ResilienceConfig::default()),
                ..HierarchicalConfig::default()
            },
            stale,
            EdgePlans::default(),
        );
        s.on_start(&mut h.ctx());
        assert!(!s.hierarchy().unwrap().contains(NodeId(2)));

        // Contacts involving the orphan must not panic (they used to trip
        // hierarchy path lookups mid-maintenance).
        h.current_version = 1;
        h.now = SimTime::from_secs(50.0);
        s.on_contact(NodeId(1), NodeId(2), &mut h.ctx());
        s.on_contact(NodeId(2), NodeId(1), &mut h.ctx());

        // The crash rejoin re-inserts the orphan under the root.
        h.now = SimTime::from_secs(100.0);
        s.on_state_loss(NodeId(2), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        assert_eq!(tree.parent_of(NodeId(2)), Some(NodeId(0)));
        assert!(tree.members().contains(&NodeId(2)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("crash-reattaches"), 1);
        // The install-time membership sweep correctly flagged the stale
        // plan's orphan; after the repair, no further violation accrues.
        let before = h.world.oracle_report().total();
        s.on_finish(&mut h.ctx());
        assert_eq!(h.world.oracle_report().total(), before);
    }

    /// The other half of the re-attachment race: the root is at its
    /// fanout bound when the amnesiac node tries to come home. It must
    /// attach under the shallowest open host instead of being skipped.
    #[test]
    fn state_loss_falls_back_to_an_open_host_when_the_root_is_full() {
        let g = graph();
        let mut rng = omn_sim::RngFactory::new(1).stream("h");
        // 0→{1, 2}, 2→{3}: the root is full at fanout 2.
        let mut tree = crate::hierarchy::RefreshHierarchy::build(
            NodeId(0),
            &[NodeId(1), NodeId(2)],
            &g,
            HierarchyStrategy::Star,
            &mut rng,
        );
        tree.attach_member(NodeId(3), NodeId(2), Some(2)).unwrap();
        let mut h = CtxHarness::new(g, NodeId(0), vec![NodeId(1), NodeId(2), NodeId(3)]);
        let mut s = HierarchicalScheme::with_fixed_plan(
            HierarchicalConfig {
                strategy: HierarchyStrategy::GreedySed { fanout: Some(2) },
                ..HierarchicalConfig::default()
            },
            tree,
            EdgePlans::default(),
        );
        s.on_start(&mut h.ctx());
        h.now = SimTime::from_secs(100.0);
        s.on_state_loss(NodeId(3), &mut h.ctx());
        let tree = s.hierarchy().unwrap();
        // Root full → breadth-first fallback lands on child 1.
        assert_eq!(tree.parent_of(NodeId(3)), Some(NodeId(1)));
        tree.validate(Some(2)).unwrap();
        assert_eq!(h.extras.get("crash-reattaches"), 1);
        assert!(h.world.oracle_report().is_clean());
    }
}
