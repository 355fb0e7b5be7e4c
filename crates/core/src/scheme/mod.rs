//! Refresh schemes: the paper's hierarchical scheme and the baselines it is
//! evaluated against, behind one trait.
//!
//! A scheme reacts to two kinds of events delivered by the
//! [`crate::sim::FreshnessSimulator`]: version births at the source and
//! opportunistic contacts. All state mutations that affect measurement
//! (member cache versions, transmission and replica counts) go through
//! [`SchemeCtx`], so accounting is uniform across schemes.
//!
//! Each scheme is the protocol itself, driven directly by the DES through
//! [`SchemeCtx`]; the per-node formulation the async `omn-node` runtime
//! runs is [`crate::protocol::NodeProtocol`].

mod baselines;
mod hierarchical;

pub use baselines::{EpidemicRefresh, NoRefresh};
pub use hierarchical::{
    HierarchicalConfig, HierarchicalScheme, PlanningMode, ResilienceConfig, RetryPolicy,
};

use std::collections::HashMap;

use omn_contacts::estimate::PairRateTable;
use omn_contacts::faults::FaultPlan;
use omn_contacts::{ContactGraph, NodeId};
use omn_sim::metrics::Registry;
use omn_sim::{
    ByteConsume, OracleMode, OracleObs, SimTime, SimWorld, TransferBudget, TxQueues, Violation,
};
use rand::rngs::StdRng;

/// Outcome of a fallible version delivery ([`SchemeCtx::try_deliver`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The member cache was updated (one transmission counted).
    Delivered,
    /// Nothing to send: the target is not a member, already holds the
    /// version (or newer), or the version is from the future. No
    /// transmission is counted — identical to the pre-fault semantics.
    Unneeded,
    /// The transfer was attempted but lost to injected transmission
    /// failure. The transmission is still counted against the sender (the
    /// bytes went on the air), plus a `"failed-transmissions"` extra.
    Failed,
}

/// A refresh transfer deferred by a contact's byte capacity, waiting in
/// its sender's transmission queue for a later contact with the same
/// peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRefresh {
    /// The sender holding the queued frame.
    pub from: NodeId,
    /// The caching node it is destined for.
    pub to: NodeId,
    /// The version the frame carries.
    pub version: u64,
}

/// A cache-freshness maintenance scheme.
pub trait RefreshScheme: std::fmt::Debug {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Called once before the first event.
    fn on_start(&mut self, ctx: &mut SchemeCtx<'_>) {
        let _ = ctx;
    }

    /// Called when the source produces `version` (strictly increasing).
    fn on_version_birth(&mut self, version: u64, ctx: &mut SchemeCtx<'_>) {
        let _ = (version, ctx);
    }

    /// Called at the start of every contact.
    fn on_contact(&mut self, a: NodeId, b: NodeId, ctx: &mut SchemeCtx<'_>);

    /// Called when a caching node rejoins after a crash that wiped its
    /// state (cache contents *and* protocol state). The scheme must drop
    /// everything it believed about `node` — detector clocks, pending
    /// retries, tree knowledge the node itself held — and re-attach it.
    /// Defaults to a no-op: stateless baselines have nothing to lose.
    fn on_state_loss(&mut self, node: NodeId, ctx: &mut SchemeCtx<'_>) {
        let _ = (node, ctx);
    }

    /// Called once after the last event (with `ctx.now()` at the trace
    /// end), e.g. to flush occupancy accounting for copies still held.
    fn on_finish(&mut self, ctx: &mut SchemeCtx<'_>) {
        let _ = ctx;
    }
}

/// The simulator-owned state a scheme sees and mutates during an event.
#[derive(Debug)]
pub struct SchemeCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) current_version: u64,
    pub(crate) root: NodeId,
    pub(crate) members: &'a [NodeId],
    pub(crate) member_versions: &'a mut HashMap<NodeId, u64>,
    pub(crate) receipts: &'a mut HashMap<NodeId, Vec<(SimTime, u64)>>,
    pub(crate) rates: &'a PairRateTable,
    pub(crate) oracle: &'a ContactGraph,
    pub(crate) transmissions: &'a mut u64,
    pub(crate) replicas: &'a mut u64,
    pub(crate) per_node_tx: &'a mut Vec<u64>,
    pub(crate) extras: &'a mut Registry,
    pub(crate) rng: &'a mut StdRng,
    /// Fault schedule for this run, if fault injection is enabled.
    pub(crate) faults: Option<&'a mut FaultPlan>,
    /// Shared per-contact transfer budget, when the scheme runs inside a
    /// joint world where refresh traffic contends with query traffic.
    /// `None` (every standalone run) means unlimited capacity and is
    /// bit-identical to the pre-budget behavior.
    pub(crate) budget: Option<&'a mut TransferBudget>,
    /// Wire length of one refresh frame, charged against the budget's
    /// byte capacity (if it has one). Zero — the default — can never be
    /// byte-denied, so the sized path degrades to slot counting.
    pub(crate) refresh_bytes: u64,
    /// Per-node transmission queues for byte-denied refresh frames, when
    /// the run's link model is enabled. `None` (the legacy worlds) means
    /// byte-denied frames simply fail, like slot-denied ones.
    pub(crate) queues: Option<&'a mut TxQueues<PendingRefresh>>,
    /// The run's [`SimWorld`]: installed invariant oracles and the
    /// violation sink. Oracles are pure observers, so dispatching through
    /// here never perturbs a run.
    pub(crate) world: &'a mut SimWorld,
}

impl SchemeCtx<'_> {
    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The version currently held by the source.
    #[must_use]
    pub fn current_version(&self) -> u64 {
        self.current_version
    }

    /// The data source.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The caching nodes (excluding the source), sorted.
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        self.members
    }

    /// True if `node` is a caching node.
    #[must_use]
    pub fn is_member(&self, node: NodeId) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// The version held by `node`: the source always holds the current
    /// version; members hold their cached version; other nodes hold
    /// nothing (schemes track their own relay carriage).
    #[must_use]
    pub fn version_of(&self, node: NodeId) -> Option<u64> {
        if node == self.root {
            Some(self.current_version)
        } else {
            self.member_versions.get(&node).copied()
        }
    }

    /// Delivers `version` from node `from` to caching node `to`. Succeeds
    /// (and counts one transmission against the *sender's* refresh load)
    /// iff `to` is a member, the version is not from the future, and it is
    /// newer than what `to` holds. Equivalent to
    /// `self.try_deliver(from, to, version) == Delivery::Delivered`;
    /// schemes that distinguish lost transfers from unneeded ones (to
    /// retry) should call [`SchemeCtx::try_deliver`] directly.
    pub fn deliver_version(&mut self, from: NodeId, to: NodeId, version: u64) -> bool {
        self.try_deliver(from, to, version) == Delivery::Delivered
    }

    /// Delivers `version` from `from` to caching node `to`, reporting
    /// whether the transfer was delivered, unneeded, or lost to injected
    /// transmission failure or corruption (see [`Delivery`]). Without a
    /// fault plan this never returns [`Delivery::Failed`].
    ///
    /// A *corrupted* transfer models an adversarial or bit-rotted payload:
    /// the bytes go on the air (budget and transmission accounting as for
    /// any attempt), but what arrives is a stale-version replay. The
    /// receiver's version check rejects it — the cache never regresses,
    /// which is exactly what the version-monotonicity oracle proves — and
    /// the delivery reports [`Delivery::Failed`] so the scheme retries
    /// later. Counted under `"corrupted-transfers"` (drawn corrupt) and
    /// `"corrupted-rejections"` (survived the air and was refused).
    pub fn try_deliver(&mut self, from: NodeId, to: NodeId, version: u64) -> Delivery {
        if !self.is_member(to) || version > self.current_version {
            return Delivery::Unneeded;
        }
        let held = self.member_versions.get(&to).copied();
        if held.is_some_and(|h| h >= version) {
            return Delivery::Unneeded;
        }
        // The corruption draw happens once per needed transfer, from its
        // own dedicated stream, so enabling loss/budget faults never
        // perturbs the corruption schedule (and vice versa).
        let corrupted = self.faults.as_mut().is_some_and(|f| f.transfer_corrupts());
        if corrupted {
            self.extras.add("corrupted-transfers", 1);
        }
        match self.consume_budget(self.refresh_bytes) {
            ByteConsume::SlotDenied => return Delivery::Failed,
            ByteConsume::ByteDenied => {
                // The frame does not fit this contact: it waits in the
                // sender's transmission queue (when the link model is on)
                // instead of vanishing.
                self.enqueue_refresh(from, to, version);
                return Delivery::Failed;
            }
            ByteConsume::Granted => {}
        }
        if !self.transmit_with_loss(from) {
            return Delivery::Failed;
        }
        if corrupted {
            self.extras.add("corrupted-rejections", 1);
            return Delivery::Failed;
        }
        self.member_versions.insert(to, version);
        self.receipts
            .entry(to)
            .or_default()
            .push((self.now, version));
        self.observe(&OracleObs::Absorb {
            node: u64::from(to.0),
            version,
        });
        Delivery::Delivered
    }

    /// Counts a transmission by `from` and draws injected transmission
    /// loss: returns `true` if the transfer went through, `false` if it was
    /// lost (also counted under the `"failed-transmissions"` extra). With
    /// no fault plan (or zero loss) this is exactly
    /// [`SchemeCtx::record_transmission`] returning `true`.
    pub fn attempt_transfer(&mut self, from: NodeId) -> bool {
        // Contact capacity is checked before anything else: a denied
        // attempt never reaches the radio, so it counts no transmission and
        // draws no loss randomness. Schemes observe it as a failed
        // delivery and fall back to their retry/recovery paths.
        if !self.consume_budget(self.refresh_bytes).granted() {
            return false;
        }
        self.transmit_with_loss(from)
    }

    /// Draws one sized consume against the shared budget (`Granted` when
    /// none is attached), maintaining the deferral counters. A denied
    /// attempt charges nothing.
    fn consume_budget(&mut self, bytes: u64) -> ByteConsume {
        let Some(budget) = self.budget.as_mut() else {
            return ByteConsume::Granted;
        };
        let outcome = budget.try_consume_sized(bytes);
        match outcome {
            ByteConsume::SlotDenied => self.extras.add("budget-deferred-transmissions", 1),
            ByteConsume::ByteDenied => self.extras.add("byte-deferred-transmissions", 1),
            ByteConsume::Granted => {}
        }
        outcome
    }

    /// Counts a transmission by `from` and draws injected transmission
    /// loss (the granted half of [`SchemeCtx::attempt_transfer`]).
    fn transmit_with_loss(&mut self, from: NodeId) -> bool {
        *self.transmissions += 1;
        self.per_node_tx[from.index()] += 1;
        if self.faults.as_mut().is_some_and(|f| f.transfer_fails()) {
            self.extras.add("failed-transmissions", 1);
            false
        } else {
            true
        }
    }

    /// Queues a byte-denied refresh frame at its sender (no-op without
    /// the link model's queues). An accepted frame reports its queue's
    /// depth to the installed oracles; a frame refused at the depth bound
    /// is dropped with accounting.
    fn enqueue_refresh(&mut self, from: NodeId, to: NodeId, version: u64) {
        let bytes = self.refresh_bytes;
        let now = self.now;
        let (accepted, depth, bound) = {
            let Some(queues) = self.queues.as_mut() else {
                return;
            };
            let accepted = queues.enqueue(
                from.index(),
                PendingRefresh { from, to, version },
                bytes,
                now,
            );
            (
                accepted,
                queues.depth(from.index()) as u64,
                queues.depth_bound() as u64,
            )
        };
        if accepted {
            self.observe(&OracleObs::QueueDepth {
                node: u64::from(from.0),
                depth,
                bound,
            });
        } else {
            self.extras.add("queue-dropped-refreshes", 1);
        }
    }

    /// Drains queued refresh frames at the start of a deliverable contact
    /// between `a` and `b`, both directions, in FIFO order. A frame for a
    /// third node blocks its queue (head-of-line: one radio, one queue);
    /// frames made obsolete while waiting are discarded without spending
    /// capacity; a frame the contact cannot fit stays queued. Drained
    /// frames spend budget, count transmissions and draw loss exactly
    /// like a live refresh. No-op (and no accounting) when the link
    /// model's queues are absent or empty.
    pub fn drain_queued(&mut self, a: NodeId, b: NodeId) {
        if self.queues.as_ref().is_none_or(|q| q.is_empty()) {
            return;
        }
        self.drain_direction(a, b);
        self.drain_direction(b, a);
    }

    fn drain_direction(&mut self, from: NodeId, to: NodeId) {
        loop {
            let Some(head) = self.queues.as_ref().and_then(|q| q.front(from.index())) else {
                return;
            };
            let pending = head.msg;
            let bytes = head.bytes;
            if pending.to != to {
                return;
            }
            // Obsolete while queued: the receiver caught up (or the frame
            // outran the source, which cannot happen but stays cheap to
            // guard). Discarded, not transmitted.
            let obsolete = !self.is_member(to)
                || pending.version > self.current_version
                || self
                    .member_versions
                    .get(&to)
                    .copied()
                    .is_some_and(|held| held >= pending.version);
            if obsolete {
                self.queues
                    .as_mut()
                    .expect("queues exist: head was just read")
                    .discard(from.index());
                continue;
            }
            if !self.consume_budget(bytes).granted() {
                // This contact cannot carry it either; it stays queued.
                return;
            }
            self.queues
                .as_mut()
                .expect("queues exist: head was just read")
                .pop(from.index(), self.now);
            self.extras.add("queued-refresh-drains", 1);
            if !self.transmit_with_loss(from) {
                continue;
            }
            self.member_versions.insert(to, pending.version);
            self.receipts
                .entry(to)
                .or_default()
                .push((self.now, pending.version));
            self.observe(&OracleObs::Absorb {
                node: u64::from(to.0),
                version: pending.version,
            });
        }
    }

    /// Whether `node` is down (churned out or departed) right now,
    /// according to the fault plan. Ground truth, not a detector verdict —
    /// schemes use it only for accounting (e.g. classifying suspicions as
    /// false); without a fault plan every node is up.
    #[must_use]
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.node_down(node, self.now))
    }

    /// Counts a transmission by `from` that does not change a member cache
    /// (e.g. handing a copy to a relay or another relay).
    pub fn record_transmission(&mut self, from: NodeId) {
        *self.transmissions += 1;
        self.per_node_tx[from.index()] += 1;
    }

    /// Counts a replica creation (a copy handed to a non-caching relay).
    /// Does not count a transmission by itself.
    pub fn record_replica(&mut self) {
        *self.replicas += 1;
    }

    /// Adds to a scheme-specific named counter, surfaced in the report's
    /// `extras` registry (e.g. `"rebuilds"`, `"relay-copy-seconds"`).
    pub fn count(&mut self, name: &str, n: u64) {
        self.extras.add(name, n);
    }

    /// The estimated contact rate between two nodes as observed so far.
    #[must_use]
    pub fn estimated_rate(&self, a: NodeId, b: NodeId) -> f64 {
        self.rates.rate(a, b, self.now)
    }

    /// A snapshot of the estimated contact graph.
    #[must_use]
    pub fn estimated_graph(&self) -> ContactGraph {
        self.rates.to_graph(self.oracle.node_count(), self.now)
    }

    /// The oracle contact graph (true trace-wide rates); available to
    /// schemes configured for oracle planning and to baselines.
    #[must_use]
    pub fn oracle_graph(&self) -> &ContactGraph {
        self.oracle
    }

    /// Total nodes in the network.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.oracle.node_count()
    }

    /// The scheme's random stream (deterministic per run).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Whether invariant checking is active for this run. Schemes guard
    /// non-trivial in-place checks (e.g. full tree validation) behind this
    /// so [`OracleMode::Off`] runs pay nothing.
    #[must_use]
    pub fn oracle_active(&self) -> bool {
        self.world.oracle_mode() != OracleMode::Off
    }

    /// Reports an in-place invariant check to the run's oracle sink:
    /// records (campaign) or panics (strict) unless `ok` holds. The detail
    /// string is only built on failure.
    pub fn oracle_check(
        &mut self,
        ok: bool,
        invariant: &'static str,
        node: Option<NodeId>,
        detail: impl FnOnce() -> String,
    ) {
        if ok {
            return;
        }
        let at = self.now;
        self.world.oracle_sink_mut().check(false, || Violation {
            invariant,
            at,
            node: node.map(|n| u64::from(n.0)),
            detail: detail(),
        });
    }

    /// Dispatches a protocol observation to every installed oracle, at the
    /// current event time.
    pub fn observe(&mut self, obs: &OracleObs) {
        self.world.advance_to(self.now);
        self.world.oracle_event(obs);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use omn_contacts::estimate::EstimatorKind;

    /// Owned backing state for a [`SchemeCtx`] in unit tests.
    #[derive(Debug)]
    pub(crate) struct CtxHarness {
        pub now: SimTime,
        pub current_version: u64,
        pub root: NodeId,
        pub members: Vec<NodeId>,
        pub member_versions: HashMap<NodeId, u64>,
        pub receipts: HashMap<NodeId, Vec<(SimTime, u64)>>,
        pub rates: PairRateTable,
        pub oracle: ContactGraph,
        pub transmissions: u64,
        pub replicas: u64,
        pub per_node_tx: Vec<u64>,
        pub extras: Registry,
        pub rng: StdRng,
        /// Fault schedule passed into the ctx; `None` disables injection.
        pub faults: Option<FaultPlan>,
        /// Shared budget passed into the ctx; `None` means unlimited.
        pub budget: Option<TransferBudget>,
        /// Refresh frame size charged against the budget's byte axis.
        pub refresh_bytes: u64,
        /// Link-model transmission queues; `None` disables queueing.
        pub queues: Option<TxQueues<PendingRefresh>>,
        /// Oracle world (campaign-mode sink by default, no oracles
        /// installed).
        pub world: SimWorld,
    }

    impl CtxHarness {
        pub fn new(oracle: ContactGraph, root: NodeId, members: Vec<NodeId>) -> CtxHarness {
            let oracle_nodes = oracle.node_count();
            let member_versions = members.iter().map(|&m| (m, 0)).collect();
            let receipts = members
                .iter()
                .map(|&m| (m, vec![(SimTime::ZERO, 0u64)]))
                .collect();
            CtxHarness {
                now: SimTime::ZERO,
                current_version: 0,
                root,
                members,
                member_versions,
                receipts,
                rates: PairRateTable::new(EstimatorKind::Cumulative, SimTime::ZERO),
                oracle,
                transmissions: 0,
                replicas: 0,
                per_node_tx: vec![0; oracle_nodes],
                extras: Registry::new(),
                rng: omn_sim::RngFactory::new(1).stream("test-scheme"),
                faults: None,
                budget: None,
                refresh_bytes: 0,
                queues: None,
                world: {
                    let mut w = SimWorld::new(oracle_nodes, omn_sim::RngFactory::new(1));
                    w.set_oracle_sink(omn_sim::OracleSink::new(OracleMode::Campaign));
                    w
                },
            }
        }

        /// Installs a plan with certain (probability-1) transmission loss,
        /// so every `attempt_transfer`/`try_deliver` fails
        /// deterministically until `self.faults` is cleared again.
        pub fn fail_all_transfers(&mut self) {
            use omn_contacts::faults::FaultConfig;
            self.faults = Some(FaultPlan::build(
                FaultConfig {
                    transmission_loss: 1.0,
                    ..FaultConfig::default()
                },
                self.oracle.node_count(),
                SimTime::from_secs(1.0),
                &omn_sim::RngFactory::new(1),
            ));
        }

        /// Installs a plan with certain (probability-1) corruption, so
        /// every needed transfer arrives as a stale replay the receiver
        /// must reject.
        pub fn corrupt_all_transfers(&mut self) {
            use omn_contacts::faults::FaultConfig;
            self.faults = Some(FaultPlan::build(
                FaultConfig {
                    corruption: 1.0,
                    ..FaultConfig::default()
                },
                self.oracle.node_count(),
                SimTime::from_secs(1.0),
                &omn_sim::RngFactory::new(1),
            ));
        }

        pub fn ctx(&mut self) -> SchemeCtx<'_> {
            SchemeCtx {
                now: self.now,
                current_version: self.current_version,
                root: self.root,
                members: &self.members,
                member_versions: &mut self.member_versions,
                receipts: &mut self.receipts,
                rates: &self.rates,
                oracle: &self.oracle,
                transmissions: &mut self.transmissions,
                replicas: &mut self.replicas,
                per_node_tx: &mut self.per_node_tx,
                extras: &mut self.extras,
                rng: &mut self.rng,
                faults: self.faults.as_mut(),
                budget: self.budget.as_mut(),
                refresh_bytes: self.refresh_bytes,
                queues: self.queues.as_mut(),
                world: &mut self.world,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::CtxHarness;
    use super::*;

    fn harness() -> CtxHarness {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(1), 1.0);
        CtxHarness::new(g, NodeId(0), vec![NodeId(1), NodeId(2)])
    }

    #[test]
    fn version_of_root_tracks_current() {
        let mut h = harness();
        h.current_version = 5;
        let ctx = h.ctx();
        assert_eq!(ctx.version_of(NodeId(0)), Some(5));
        assert_eq!(ctx.version_of(NodeId(1)), Some(0));
        assert_eq!(ctx.version_of(NodeId(3)), None);
    }

    #[test]
    fn deliver_version_accounting() {
        let mut h = harness();
        h.current_version = 2;
        h.now = SimTime::from_secs(10.0);
        let mut ctx = h.ctx();
        assert!(ctx.deliver_version(NodeId(0), NodeId(1), 2));
        assert_eq!(ctx.version_of(NodeId(1)), Some(2));
        // Duplicate and stale deliveries fail.
        assert!(!ctx.deliver_version(NodeId(0), NodeId(1), 2));
        assert!(!ctx.deliver_version(NodeId(0), NodeId(1), 1));
        // Future versions fail.
        assert!(!ctx.deliver_version(NodeId(0), NodeId(2), 3));
        // Non-members fail.
        assert!(!ctx.deliver_version(NodeId(0), NodeId(3), 1));
        assert_eq!(h.transmissions, 1);
        assert_eq!(h.receipts[&NodeId(1)].len(), 2);
    }

    #[test]
    fn membership_queries() {
        let mut h = harness();
        let ctx = h.ctx();
        assert!(ctx.is_member(NodeId(1)));
        assert!(!ctx.is_member(NodeId(0)), "root is not a member");
        assert!(!ctx.is_member(NodeId(3)));
        assert_eq!(ctx.node_count(), 4);
    }

    #[test]
    fn counters() {
        let mut h = harness();
        let mut ctx = h.ctx();
        ctx.record_transmission(NodeId(0));
        ctx.record_replica();
        assert_eq!(h.transmissions, 1);
        assert_eq!(h.replicas, 1);
    }

    #[test]
    fn injected_loss_fails_deliveries_but_counts_the_attempt() {
        let mut h = harness();
        h.current_version = 1;
        h.fail_all_transfers();
        let mut ctx = h.ctx();
        // Unneeded outcomes are decided before the loss draw.
        assert_eq!(ctx.try_deliver(NodeId(0), NodeId(3), 1), Delivery::Unneeded);
        assert_eq!(ctx.try_deliver(NodeId(0), NodeId(1), 2), Delivery::Unneeded);
        // A needed transfer goes on the air and is lost.
        assert_eq!(ctx.try_deliver(NodeId(0), NodeId(1), 1), Delivery::Failed);
        assert_eq!(ctx.version_of(NodeId(1)), Some(0));
        assert!(!ctx.attempt_transfer(NodeId(0)));
        assert_eq!(h.transmissions, 2, "lost transfers still count as load");
        assert_eq!(h.extras.get("failed-transmissions"), 2);
        assert_eq!(
            h.receipts[&NodeId(1)].len(),
            1,
            "no receipt for a lost transfer"
        );

        // Clearing the plan restores infallible delivery.
        h.faults = None;
        let mut ctx = h.ctx();
        assert_eq!(
            ctx.try_deliver(NodeId(0), NodeId(1), 1),
            Delivery::Delivered
        );
    }

    #[test]
    fn corrupted_transfers_are_rejected_and_never_regress_the_cache() {
        let mut h = harness();
        h.current_version = 2;
        h.world
            .install_oracle(Box::new(crate::oracle::VersionOrderOracle::new()));
        h.corrupt_all_transfers();
        let mut ctx = h.ctx();
        // Unneeded outcomes are decided before the corruption draw.
        assert_eq!(ctx.try_deliver(NodeId(0), NodeId(3), 1), Delivery::Unneeded);
        // A needed transfer goes on the air, arrives corrupted (a stale
        // replay), and is refused: the cache keeps what it held.
        assert_eq!(ctx.try_deliver(NodeId(0), NodeId(1), 2), Delivery::Failed);
        assert_eq!(ctx.version_of(NodeId(1)), Some(0));
        assert_eq!(h.transmissions, 1, "the corrupted bytes went on the air");
        assert_eq!(h.extras.get("corrupted-transfers"), 1);
        assert_eq!(h.extras.get("corrupted-rejections"), 1);
        assert_eq!(
            h.receipts[&NodeId(1)].len(),
            1,
            "no receipt for a rejected transfer"
        );

        // Clearing the plan lets the retried delivery through, and the
        // monotonicity oracle saw no regression at any point.
        h.faults = None;
        let mut ctx = h.ctx();
        assert_eq!(
            ctx.try_deliver(NodeId(0), NodeId(1), 2),
            Delivery::Delivered
        );
        assert!(h.world.oracle_report().is_clean());
    }

    #[test]
    fn a_naive_receiver_would_trip_the_version_oracle() {
        // The oracle exists to prove the scheme rejects stale replays; a
        // hypothetical naive receiver that absorbed one is caught.
        let mut h = harness();
        h.world
            .install_oracle(Box::new(crate::oracle::VersionOrderOracle::new()));
        h.current_version = 3;
        let mut ctx = h.ctx();
        assert_eq!(
            ctx.try_deliver(NodeId(0), NodeId(1), 3),
            Delivery::Delivered
        );
        // Simulate the naive absorb of an older payload.
        ctx.observe(&omn_sim::OracleObs::Absorb {
            node: 1,
            version: 1,
        });
        assert_eq!(h.world.oracle_report().count("version-monotonicity"), 1);
    }

    #[test]
    fn byte_denied_refreshes_queue_and_drain_at_the_next_contact() {
        let mut h = harness();
        h.current_version = 1;
        h.refresh_bytes = 64;
        h.queues = Some(TxQueues::new(4, 4));
        h.budget = Some(TransferBudget::unlimited().with_byte_capacity(Some(100)));
        {
            let mut ctx = h.ctx();
            assert_eq!(
                ctx.try_deliver(NodeId(0), NodeId(1), 1),
                Delivery::Delivered
            );
            // The second frame does not fit the 100-byte contact: queued.
            assert_eq!(ctx.try_deliver(NodeId(0), NodeId(2), 1), Delivery::Failed);
        }
        assert_eq!(h.extras.get("byte-deferred-transmissions"), 1);
        assert_eq!(h.queues.as_ref().unwrap().depth(0), 1);
        assert_eq!(h.transmissions, 1, "a denied frame never went on the air");

        // Next contact with capacity: the queued frame drains and delivers.
        h.budget = Some(TransferBudget::unlimited().with_byte_capacity(Some(100)));
        h.ctx().drain_queued(NodeId(0), NodeId(2));
        assert_eq!(h.member_versions[&NodeId(2)], 1);
        assert_eq!(h.extras.get("queued-refresh-drains"), 1);
        assert_eq!(h.transmissions, 2);
        assert!(h.queues.as_ref().unwrap().is_empty());
        assert_eq!(
            h.receipts[&NodeId(2)].len(),
            2,
            "drained frame is receipted"
        );
    }

    #[test]
    fn drain_respects_head_of_line_order_and_discards_obsolete_frames() {
        let mut h = harness();
        h.current_version = 1;
        h.refresh_bytes = 64;
        h.queues = Some(TxQueues::new(4, 4));
        // A zero-capacity contact queues frames for members 1 then 2.
        h.budget = Some(TransferBudget::unlimited().with_byte_capacity(Some(0)));
        {
            let mut ctx = h.ctx();
            assert_eq!(ctx.try_deliver(NodeId(0), NodeId(1), 1), Delivery::Failed);
            assert_eq!(ctx.try_deliver(NodeId(0), NodeId(2), 1), Delivery::Failed);
        }
        assert_eq!(h.queues.as_ref().unwrap().depth(0), 2);

        // Contact 0↔2: the head frame is addressed to node 1, so FIFO
        // order blocks the queue — nothing drains.
        h.budget = Some(TransferBudget::unlimited().with_byte_capacity(Some(1000)));
        h.ctx().drain_queued(NodeId(0), NodeId(2));
        assert_eq!(h.member_versions[&NodeId(2)], 0);
        assert_eq!(h.queues.as_ref().unwrap().depth(0), 2);

        // Node 1 catches up out of band: its frame is obsolete and is
        // discarded without spending any bytes when 0 meets 1 again.
        h.member_versions.insert(NodeId(1), 1);
        h.ctx().drain_queued(NodeId(0), NodeId(1));
        assert_eq!(h.queues.as_ref().unwrap().depth(0), 1);
        assert_eq!(h.budget.as_ref().unwrap().bytes_used(), 0);

        // With the head gone, 0↔2 delivers the remaining frame.
        h.ctx().drain_queued(NodeId(0), NodeId(2));
        assert_eq!(h.member_versions[&NodeId(2)], 1);
        assert!(h.queues.as_ref().unwrap().is_empty());
    }

    #[test]
    fn a_full_queue_drops_the_refresh_and_counts_it() {
        let mut h = harness();
        h.current_version = 1;
        h.refresh_bytes = 64;
        h.queues = Some(TxQueues::new(4, 1));
        h.budget = Some(TransferBudget::unlimited().with_byte_capacity(Some(0)));
        {
            let mut ctx = h.ctx();
            assert_eq!(ctx.try_deliver(NodeId(0), NodeId(1), 1), Delivery::Failed);
            assert_eq!(ctx.try_deliver(NodeId(0), NodeId(2), 1), Delivery::Failed);
        }
        assert_eq!(h.queues.as_ref().unwrap().depth(0), 1, "bound is 1");
        assert_eq!(h.extras.get("byte-deferred-transmissions"), 2);
        assert_eq!(h.extras.get("queue-dropped-refreshes"), 1);
        assert_eq!(h.queues.as_ref().unwrap().stats().dropped_msgs, 1);
    }

    #[test]
    fn oracle_check_routes_through_the_sink() {
        let mut h = harness();
        let mut ctx = h.ctx();
        assert!(ctx.oracle_active());
        ctx.oracle_check(true, "tree-structure", None, || unreachable!());
        ctx.oracle_check(false, "tree-structure", Some(NodeId(2)), || {
            "cycle via 2".into()
        });
        let report = h.world.oracle_report();
        assert_eq!(report.count("tree-structure"), 1);
        assert!(report
            .first_violation("tree-structure")
            .unwrap()
            .contains("node 2"));
    }
}
