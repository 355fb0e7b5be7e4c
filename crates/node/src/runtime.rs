//! The node runtime: one async task per node around a [`NodeProtocol`],
//! real serialized wire frames between them, and a link supervisor that
//! replays any [`ContactSource`] as link up/down events.
//!
//! Two drive disciplines share the same node tasks:
//!
//! * [`run_lockstep`] — the cross-validation mode (E18). The supervisor
//!   quiesces the network around every link event with probe/flush
//!   handshakes, so the distributed execution visits exactly the global
//!   states the DES visits: identical per-node version vectors, identical
//!   freshness tracker updates, identical transmission counts, and the
//!   same invariant oracles attached ([`VersionOrderOracle`] & co. from
//!   `omn-core`, fed through [`SimWorld`]'s dispatch hooks).
//! * [`run_firehose`] — the throughput mode. Link-ups are announced to
//!   both endpoints (each wire-sends its [`PeerSummary`] to the peer, no
//!   supervisor probing) and the network runs free; the report is message
//!   totals and wall clock, for the 10⁴-node scaling figure.
//!
//! Peer wire frames travel in each inbox's byte lane: the sender encodes
//! the frame straight into the receiver's buffer, and the receiving task
//! takes the whole buffer and decodes its frames in order before the
//! control message it took with them. The lockstep handshake relies on
//! that order: after a directional pass `x → y` acks, a `Flush` sent to
//! `y` is taken together with (or after) any wire frame `x` appended to
//! `y`'s lane, so `y`'s `FlushDone` certifies the frame was absorbed and
//! its events drained.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use omn_contacts::{ContactSource, LinkEventKind, LinkEvents, NodeId};
use omn_core::freshness::FreshnessTracker;
use omn_core::oracle::{BudgetOracle, TimerLivenessOracle, VersionOrderOracle};
use omn_core::protocol::{Effect, NodeProtocol, PeerSummary, ProtocolMode, ProtocolMsg, TimerKind};
use omn_core::{RefreshHierarchy, UpdateSchedule};
use omn_sim::metrics::Registry;
use omn_sim::{OracleMode, OracleObs, OracleSink, SimDuration, SimTime, SimWorld};

use crate::chan::{self, Batch, Receiver, Sender};
use crate::codec;
use crate::report::{FirehoseReport, NodeReport, RuntimeReport};
use crate::rt::Executor;

/// How the runtime is shaped.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Which protocol every node runs.
    pub mode: ProtocolMode,
    /// The source's periodic version-birth interval.
    pub refresh_period: SimDuration,
    /// Invariant-oracle handling (lockstep mode only).
    pub oracle_mode: OracleMode,
    /// Executor worker threads (0 = available parallelism).
    pub workers: usize,
    /// Per-node inbox capacity: how many supervisor dispatches one inbox
    /// queues before the supervisor blocks on it. It bounds the
    /// supervisor's lead over the node tasks, and so the runtime's queued
    /// memory; peer wire frames ride the byte lane, outside the bound, so
    /// the network never wedges on it.
    pub inbox_capacity: usize,
}

impl RuntimeConfig {
    /// A config with the defaults the E18 campaign uses.
    #[must_use]
    pub fn new(mode: ProtocolMode, refresh_period: SimDuration) -> RuntimeConfig {
        RuntimeConfig {
            mode,
            refresh_period,
            oracle_mode: OracleMode::from_env(),
            workers: 0,
            inbox_capacity: 64,
        }
    }
}

/// A runtime-internal channel or handshake failure: a node task died (or
/// a channel closed) while the supervisor still needed it. The
/// supervisors recover by aborting the replay and reporting the tally in
/// [`RuntimeReport::channel_errors`] / [`FirehoseReport::channel_errors`]
/// instead of panicking mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// A node's inbox closed while the supervisor was dispatching to it.
    InboxClosed(NodeId),
    /// The shared ack channel closed before the expected reply arrived.
    AckChannelClosed,
    /// A node replied out of protocol: the wrong ack for the handshake
    /// step (named by the reply the supervisor was waiting for).
    UnexpectedAck(&'static str),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::InboxClosed(n) => write!(f, "inbox of node {n} closed"),
            RuntimeError::AckChannelClosed => write!(f, "ack channel closed"),
            RuntimeError::UnexpectedAck(step) => {
                write!(f, "unexpected ack while waiting for {step}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Everything the supervisor can tell a node task (peer wire frames go
/// through the inbox's byte lane instead). Kept small (24 bytes): every
/// inbox queues up to `inbox_capacity` of them.
enum NodeMsg {
    /// Lockstep: report your [`PeerSummary`] (acked with
    /// [`Ack::Summary`]).
    Probe,
    /// Lockstep: a link to `peer` came up; run your directional pass
    /// (acked with [`Ack::PassDone`]).
    LinkUp { t: SimTime, peer: Box<PeerSummary> },
    /// Firehose: a link to `peer` came up; wire-send it your summary.
    Announce { t: SimTime, peer: NodeId },
    /// A timer this node asked for (or the supervisor drives) fired.
    Timer { t: SimTime, kind: TimerKind },
    /// Processed strictly after everything already queued; acked with
    /// [`Ack::FlushDone`].
    Flush,
    /// End of run at `t`: flush shutdown accounting and report (acked
    /// with [`Ack::Done`]).
    Shutdown { t: SimTime },
}

/// Out-of-band observations the lockstep supervisor consumes between
/// handshake steps (never in firehose mode).
enum Event {
    /// A node's cache took `version` (member absorbs and root births).
    CacheWrite { node: NodeId, version: u64 },
    /// A node asked for a timer.
    SetTimer {
        node: NodeId,
        at: SimTime,
        kind: TimerKind,
    },
}

/// Node-task replies on the shared ack channel.
enum Ack {
    Summary(PeerSummary),
    PassDone,
    FlushDone,
    Done(NodeReport),
}

/// One node task: the sans-io protocol plus the channel plumbing that
/// carries its effects.
struct NodeTask {
    proto: NodeProtocol,
    inbox: Receiver<NodeMsg>,
    /// Every node's inbox, indexed by [`NodeId`]: where wire frames go.
    peers: Arc<[Sender<NodeMsg>]>,
    /// Lockstep event feed (`None` in firehose mode).
    events: Option<Sender<Event>>,
    acks: Sender<Ack>,
    seq: u64,
    sent: u64,
    bytes_sent: u64,
    received: u64,
    bytes_received: u64,
    replicas: u64,
    decode_errors: u64,
    counts: Vec<(&'static str, u64)>,
    count_secs: Vec<(&'static str, f64)>,
}

impl NodeTask {
    async fn run(mut self) {
        let effects = self.proto.on_start();
        self.apply(SimTime::ZERO, effects, None).await;
        while let Some(Batch { bytes, item }) = self.inbox.recv_batch().await {
            self.absorb(&bytes).await;
            drop(bytes);
            let Some(msg) = item else { continue };
            match msg {
                NodeMsg::Probe => {
                    let _ = self.acks.send(Ack::Summary(self.proto.summary())).await;
                }
                NodeMsg::LinkUp { t, peer } => {
                    let effects = self.proto.on_contact_up(t, &peer);
                    self.apply(t, effects, Some(peer.node)).await;
                    let _ = self.acks.send(Ack::PassDone).await;
                }
                NodeMsg::Announce { t, peer } => {
                    let msg = ProtocolMsg::Summary(self.proto.summary());
                    self.wire_send(t, peer, &msg);
                }
                NodeMsg::Timer { t, kind } => {
                    let effects = self.proto.on_timer(t, kind);
                    self.apply(t, effects, None).await;
                }
                NodeMsg::Flush => {
                    let _ = self.acks.send(Ack::FlushDone).await;
                }
                NodeMsg::Shutdown { t } => {
                    let effects = self.proto.on_shutdown(t);
                    self.apply(t, effects, None).await;
                    let report = NodeReport {
                        node: self.proto.id(),
                        cache: self.proto.cache_version(),
                        carried: self.proto.carried_version(),
                        msgs_sent: self.sent,
                        bytes_sent: self.bytes_sent,
                        msgs_received: self.received,
                        bytes_received: self.bytes_received,
                        replicas_created: self.replicas,
                        decode_errors: self.decode_errors,
                        counts: std::mem::take(&mut self.counts),
                        count_secs: std::mem::take(&mut self.count_secs),
                    };
                    let _ = self.acks.send(Ack::Done(report)).await;
                    break;
                }
            }
        }
    }

    /// Handles the wire frames in `lane`, in order; effects a frame
    /// provokes go back to its sender. A malformed frame counts one decode
    /// error and ends the batch, since the frames behind it cannot be
    /// delimited.
    async fn absorb(&mut self, lane: &[u8]) {
        for frame in codec::decode_stream(lane) {
            let Ok((len, from, t, msg)) = frame else {
                self.decode_errors += 1;
                continue;
            };
            self.received += 1;
            self.bytes_received += len as u64;
            let effects = self.proto.on_message(t, from, &msg);
            self.apply(t, effects, Some(from)).await;
        }
    }

    /// Carries out `effects`; `link` is the peer of the link (or wire
    /// frame) that provoked them, if any.
    async fn apply(&mut self, t: SimTime, effects: Vec<Effect>, link: Option<NodeId>) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    // A Send effect is only honorable inside a link
                    // context; a protocol emitting one elsewhere is a
                    // bug, but dropping the frame and recording it keeps
                    // the rest of the network running.
                    if link.is_none() {
                        bump(&mut self.counts, "send-effect-without-link", 1);
                        continue;
                    }
                    self.wire_send(t, to, &msg);
                }
                Effect::CacheWrite { version } => {
                    if let Some(events) = &self.events {
                        let _ = events
                            .send(Event::CacheWrite {
                                node: self.proto.id(),
                                version,
                            })
                            .await;
                    }
                }
                Effect::ReplicaCreated => self.replicas += 1,
                Effect::SetTimer { at, kind } => {
                    if let Some(events) = &self.events {
                        let _ = events
                            .send(Event::SetTimer {
                                node: self.proto.id(),
                                at,
                                kind,
                            })
                            .await;
                    }
                }
                Effect::Count { name, n } => bump(&mut self.counts, name, n),
                Effect::CountSecs { name, secs } => bump_secs(&mut self.count_secs, name, secs),
            }
        }
    }

    fn wire_send(&mut self, t: SimTime, to: NodeId, msg: &ProtocolMsg) {
        // `to` may come off the wire (a summary's node); a node outside
        // the directory has no link to carry the frame.
        let Some(tx) = self.peers.get(to.index()) else {
            bump(&mut self.counts, "send-effect-without-link", 1);
            return;
        };
        let (seq, from) = (self.seq, self.proto.id());
        self.seq += 1;
        self.sent += 1;
        // The byte lane keeps the wait-for graph acyclic: a node never
        // blocks on a peer's inbox while its own inbox backs up (two nodes
        // wiring frames at each other through full bounded inboxes would
        // deadlock). Boundedness comes from the supervisor's dispatch
        // queue, which *does* block on capacity.
        let mut len = 0;
        let _ = tx.append(|lane| {
            let at = lane.len();
            codec::encode_into(seq, from, to, t, msg, lane);
            len = lane.len() - at;
        });
        self.bytes_sent += len as u64;
    }
}

fn bump(counts: &mut Vec<(&'static str, u64)>, name: &'static str, n: u64) {
    if let Some(slot) = counts.iter_mut().find(|(k, _)| *k == name) {
        slot.1 += n;
    } else {
        counts.push((name, n));
    }
}

fn bump_secs(counts: &mut Vec<(&'static str, f64)>, name: &'static str, secs: f64) {
    if let Some(slot) = counts.iter_mut().find(|(k, _)| *k == name) {
        slot.1 += secs;
    } else {
        counts.push((name, secs));
    }
}

/// The spawned network: per-node inbox senders plus the shared ack and
/// event receivers the supervisor consumes.
struct Network {
    exec: Executor,
    inboxes: Arc<[Sender<NodeMsg>]>,
    acks: Receiver<Ack>,
    events: Option<Receiver<Event>>,
}

fn spawn_network(
    node_count: usize,
    root: NodeId,
    members: &HashSet<NodeId>,
    tree: Option<&RefreshHierarchy>,
    config: &RuntimeConfig,
    span: SimTime,
    lockstep: bool,
) -> Network {
    assert!(
        config.mode != ProtocolMode::HierTree || tree.is_some(),
        "HierTree mode needs a refresh tree"
    );
    let workers = if config.workers == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        config.workers
    };
    let exec = Executor::new(workers);
    let (ack_tx, ack_rx) = chan::channel::<Ack>(node_count.max(64));
    let (event_tx, event_rx) = chan::channel::<Event>(4096);
    let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..node_count)
        .map(|_| chan::channel::<NodeMsg>(config.inbox_capacity))
        .unzip();
    let inboxes: Arc<[Sender<NodeMsg>]> = inboxes.into();
    for (i, inbox) in receivers.into_iter().enumerate() {
        let id = NodeId(u32::try_from(i).expect("node id fits u32"));
        let mut proto = NodeProtocol::new(id, root, members.contains(&id), config.mode);
        if let Some(tree) = tree {
            if tree.contains(id) {
                proto.set_tree(tree.parent_of(id), tree.children_of(id).to_vec());
            }
        }
        if id == root && lockstep {
            // Firehose drives births from the supervisor's precomputed
            // schedule instead (no event channel to carry SetTimer).
            proto.set_schedule(config.refresh_period, span);
        }
        let task = NodeTask {
            proto,
            inbox,
            peers: Arc::clone(&inboxes),
            events: lockstep.then(|| event_tx.clone()),
            acks: ack_tx.clone(),
            seq: 0,
            sent: 0,
            bytes_sent: 0,
            received: 0,
            bytes_received: 0,
            replicas: 0,
            decode_errors: 0,
            counts: Vec::new(),
            count_secs: Vec::new(),
        };
        exec.spawn(task.run());
    }
    Network {
        exec,
        inboxes,
        acks: ack_rx,
        events: lockstep.then_some(event_rx),
    }
}

/// Lockstep supervisor state shared by the contact and birth handlers.
struct Lockstep {
    inboxes: Arc<[Sender<NodeMsg>]>,
    acks: Receiver<Ack>,
    events: Receiver<Event>,
    world: SimWorld,
    tracker: FreshnessTracker,
    member_versions: HashMap<NodeId, u64>,
    current_version: u64,
    /// Pending birth timers: `(at, node, version)`.
    wheel: BinaryHeap<Reverse<(SimTime, u32, u64)>>,
}

impl Lockstep {
    fn expect_flush_done(&mut self) -> Result<(), RuntimeError> {
        match self.acks.recv_blocking() {
            Some(Ack::FlushDone) => Ok(()),
            Some(_) => Err(RuntimeError::UnexpectedAck("FlushDone")),
            None => Err(RuntimeError::AckChannelClosed),
        }
    }

    /// Flushes `node` and absorbs the events its queued work produced.
    fn flush_and_drain(&mut self, node: NodeId) -> Result<(), RuntimeError> {
        self.inboxes[node.index()]
            .send_blocking(NodeMsg::Flush)
            .map_err(|_| RuntimeError::InboxClosed(node))?;
        self.expect_flush_done()?;
        self.drain_events();
        Ok(())
    }

    fn drain_events(&mut self) {
        while let Some(ev) = self.events.try_recv() {
            match ev {
                Event::CacheWrite { node, version } => {
                    // Members absorb into the tracked version vector (and
                    // the version-order oracle); the root's own births go
                    // through fire_birth.
                    if let Some(slot) = self.member_versions.get_mut(&node) {
                        *slot = version;
                        self.world.oracle_event(&OracleObs::Absorb {
                            node: u64::from(node.0),
                            version,
                        });
                    }
                }
                Event::SetTimer {
                    node,
                    at,
                    kind: TimerKind::VersionBirth(v),
                } => {
                    self.wheel.push(Reverse((at, node.0, v)));
                }
            }
        }
    }

    /// Fires every pending birth at or before `upto` (the DES orders
    /// births before contacts at equal instants).
    fn fire_births_through(&mut self, upto: SimTime) -> Result<(), RuntimeError> {
        while let Some(&Reverse((at, node, version))) = self.wheel.peek() {
            if at > upto {
                break;
            }
            self.wheel.pop();
            self.fire_birth(at, NodeId(node), version)?;
        }
        Ok(())
    }

    fn fire_birth(&mut self, at: SimTime, node: NodeId, version: u64) -> Result<(), RuntimeError> {
        self.world.advance_to(at);
        self.world.oracle_timer("birth");
        self.current_version = version;
        self.inboxes[node.index()]
            .send_blocking(NodeMsg::Timer {
                t: at,
                kind: TimerKind::VersionBirth(version),
            })
            .map_err(|_| RuntimeError::InboxClosed(node))?;
        self.flush_and_drain(node)?;
        // A birth always re-marks freshness, even when nothing changed —
        // the DES's on_birth discipline.
        self.tracker.set_fresh(self.fresh_count(), at);
        Ok(())
    }

    /// Replays one contact as two quiesced directional passes.
    fn contact(&mut self, at: SimTime, a: NodeId, b: NodeId) -> Result<(), RuntimeError> {
        if self.world.has_oracles() {
            self.world.advance_to(at);
            self.world.oracle_contact(u64::from(a.0), u64::from(b.0));
        }
        for (x, y) in [(a, b), (b, a)] {
            let summary = self.probe(y)?;
            self.inboxes[x.index()]
                .send_blocking(NodeMsg::LinkUp {
                    t: at,
                    peer: Box::new(summary),
                })
                .map_err(|_| RuntimeError::InboxClosed(x))?;
            match self.acks.recv_blocking() {
                Some(Ack::PassDone) => {}
                Some(_) => return Err(RuntimeError::UnexpectedAck("PassDone")),
                None => return Err(RuntimeError::AckChannelClosed),
            }
            // FIFO: y's inbox already holds any frame x wired to it, so
            // this flush certifies the absorb happened and is drained.
            self.flush_and_drain(y)?;
        }
        let fresh = self.fresh_count();
        if fresh != self.tracker.fresh_count() {
            self.tracker.set_fresh(fresh, at);
        }
        Ok(())
    }

    fn probe(&mut self, node: NodeId) -> Result<PeerSummary, RuntimeError> {
        self.inboxes[node.index()]
            .send_blocking(NodeMsg::Probe)
            .map_err(|_| RuntimeError::InboxClosed(node))?;
        match self.acks.recv_blocking() {
            Some(Ack::Summary(s)) => Ok(s),
            Some(_) => Err(RuntimeError::UnexpectedAck("Summary")),
            None => Err(RuntimeError::AckChannelClosed),
        }
    }

    fn fresh_count(&self) -> usize {
        self.member_versions
            .values()
            .filter(|&&v| v == self.current_version)
            .count()
    }
}

/// Runs the protocol on the async runtime in lockstep with simulated
/// time, reproducing the DES's observable run bit-for-bit (E18's
/// cross-validation leg).
///
/// `tree` is required in [`ProtocolMode::HierTree`] and must be the same
/// tree the DES's scheme builds (root, members, oracle contact graph).
///
/// Internal runtime failures (a node task dying mid-handshake, a closed
/// channel) abort the replay instead of panicking: the remaining events
/// are skipped and the failure count lands in
/// [`RuntimeReport::channel_errors`] (0 on a healthy run).
///
/// # Panics
///
/// Panics in [`OracleMode::Strict`] on the first invariant violation —
/// exactly like the DES.
#[must_use]
pub fn run_lockstep<S: ContactSource>(
    contacts: S,
    root: NodeId,
    members: &[NodeId],
    tree: Option<&RefreshHierarchy>,
    config: &RuntimeConfig,
) -> RuntimeReport {
    let node_count = contacts.node_count();
    let span = contacts.span();
    let member_set: HashSet<NodeId> = members.iter().copied().collect();
    let schedule = UpdateSchedule::periodic(config.refresh_period, span);

    let network = spawn_network(node_count, root, &member_set, tree, config, span, true);
    let Network {
        exec,
        inboxes,
        acks,
        events,
    } = network;

    let mut world = SimWorld::new();
    world.set_oracle_sink(OracleSink::new(config.oracle_mode));
    if config.oracle_mode != OracleMode::Off {
        world.install_oracle(Box::new(VersionOrderOracle::new()));
        world.install_oracle(Box::new(BudgetOracle::new()));
        world.install_oracle(Box::new(TimerLivenessOracle::new(
            schedule.version_count().saturating_sub(1),
        )));
    }

    let mut sup = Lockstep {
        inboxes,
        acks,
        events: events.expect("lockstep network has an event channel"),
        world,
        tracker: FreshnessTracker::new(members.len(), members.len(), SimTime::ZERO),
        member_versions: members.iter().map(|&m| (m, 0)).collect(),
        current_version: 0,
        wheel: BinaryHeap::new(),
    };

    let mut channel_errors = 0u64;

    // Start barrier: every task runs on_start before its first flush ack,
    // which seeds the timer wheel with the root's first birth.
    let mut started = 0usize;
    for i in 0..node_count {
        if sup.inboxes[i].send_blocking(NodeMsg::Flush).is_ok() {
            started += 1;
        } else {
            channel_errors += 1;
        }
    }
    for _ in 0..started {
        if sup.expect_flush_done().is_err() {
            channel_errors += 1;
            break;
        }
    }
    sup.drain_events();

    let mut link = LinkEvents::new(contacts);
    let mut aborted = false;
    while let Some(ev) = link.next_event() {
        let step = sup.fire_births_through(ev.at).and_then(|()| {
            if ev.kind == LinkEventKind::Up {
                sup.contact(ev.at, ev.pair.0, ev.pair.1)
            } else {
                Ok(())
            }
        });
        if step.is_err() {
            // The network is wedged (a task died mid-handshake); replay
            // cannot continue deterministically, so stop here and let
            // the report carry the error count.
            channel_errors += 1;
            aborted = true;
            break;
        }
    }
    // Births after the final contact still fire: they drive freshness
    // decay even though no node can react any more.
    if !aborted && sup.fire_births_through(span).is_err() {
        channel_errors += 1;
    }

    // Shutdown: collect per-node tallies, then drain any final events.
    let mut expected = 0usize;
    for i in 0..node_count {
        if sup.inboxes[i]
            .send_blocking(NodeMsg::Shutdown { t: span })
            .is_ok()
        {
            expected += 1;
        } else {
            channel_errors += 1;
        }
    }
    let mut reports: Vec<NodeReport> = Vec::with_capacity(expected);
    while reports.len() < expected {
        match sup.acks.recv_blocking() {
            Some(Ack::Done(r)) => reports.push(r),
            // A stray ack from an aborted handshake; skip it.
            Some(_) => channel_errors += 1,
            None => {
                channel_errors += 1;
                break;
            }
        }
    }
    sup.drain_events();
    exec.shutdown();

    let Lockstep {
        mut world,
        tracker,
        member_versions,
        ..
    } = sup;
    world.advance_to(span);
    world.oracle_end_of_run();
    let oracle = world.take_oracle_report();

    let mut extras = Registry::new();
    let mut secs_totals: HashMap<&'static str, f64> = HashMap::new();
    let mut per_node_transmissions = vec![0u64; node_count];
    let mut transmissions = 0;
    let mut replicas = 0;
    let mut messages_received = 0;
    let mut bytes_sent = 0;
    let mut decode_errors = 0;
    for r in &reports {
        transmissions += r.msgs_sent;
        per_node_transmissions[r.node.index()] = r.msgs_sent;
        replicas += r.replicas_created;
        messages_received += r.msgs_received;
        bytes_sent += r.bytes_sent;
        decode_errors += r.decode_errors;
        for &(name, n) in &r.counts {
            extras.add(name, n);
        }
        for &(name, secs) in &r.count_secs {
            *secs_totals.entry(name).or_insert(0.0) += secs;
        }
    }
    // Fractional counters truncate once, after summing across nodes —
    // the DES's end-of-run discipline.
    let mut secs_totals: Vec<_> = secs_totals.into_iter().collect();
    secs_totals.sort_unstable_by_key(|&(name, _)| name);
    for (name, secs) in secs_totals {
        extras.add(name, secs as u64);
    }

    let mut final_member_versions: Vec<(NodeId, u64)> = member_versions.into_iter().collect();
    final_member_versions.sort_unstable();
    let (mean_freshness, freshness_timeline) = tracker.finish(span);

    RuntimeReport {
        mode: config.mode,
        root,
        members: members.to_vec(),
        version_count: schedule.version_count(),
        mean_freshness,
        freshness_timeline,
        transmissions,
        per_node_transmissions,
        replicas,
        extras,
        final_member_versions,
        messages_received,
        bytes_sent,
        decode_errors,
        channel_errors,
        oracle,
    }
}

/// Runs the protocol free-running for throughput: link-ups are announced
/// to both endpoints, every exchange crosses the wire, and the report is
/// message totals over wall clock (E18's scaling leg).
///
/// Causality per announce is bounded (summary → refresh → absorb), so a
/// fixed number of flush-all rounds quiesces the network before
/// shutdown.
#[must_use]
pub fn run_firehose<S: ContactSource>(
    contacts: S,
    root: NodeId,
    members: &[NodeId],
    config: &RuntimeConfig,
) -> FirehoseReport {
    let node_count = contacts.node_count();
    let span = contacts.span();
    let member_set: HashSet<NodeId> = members.iter().copied().collect();
    let births: Vec<SimTime> = UpdateSchedule::periodic(config.refresh_period, span)
        .births()
        .iter()
        .copied()
        .skip(1)
        .collect();

    let network = spawn_network(node_count, root, &member_set, None, config, span, false);
    let Network {
        exec,
        inboxes,
        mut acks,
        events: _,
    } = network;

    let start = std::time::Instant::now();
    let mut link = LinkEvents::new(contacts);
    let mut next_birth = 0usize;
    let mut contact_count = 0u64;
    let mut channel_errors = 0u64;
    while let Some(ev) = link.next_event() {
        while next_birth < births.len() && births[next_birth] <= ev.at {
            if inboxes[root.index()]
                .send_blocking(NodeMsg::Timer {
                    t: births[next_birth],
                    kind: TimerKind::VersionBirth(next_birth as u64 + 1),
                })
                .is_err()
            {
                channel_errors += 1;
            }
            next_birth += 1;
        }
        if ev.kind == LinkEventKind::Up {
            contact_count += 1;
            for (x, y) in [(ev.pair.0, ev.pair.1), (ev.pair.1, ev.pair.0)] {
                if inboxes[x.index()]
                    .send_blocking(NodeMsg::Announce { t: ev.at, peer: y })
                    .is_err()
                {
                    channel_errors += 1;
                }
            }
        }
    }
    while next_birth < births.len() {
        if inboxes[root.index()]
            .send_blocking(NodeMsg::Timer {
                t: births[next_birth],
                kind: TimerKind::VersionBirth(next_birth as u64 + 1),
            })
            .is_err()
        {
            channel_errors += 1;
        }
        next_birth += 1;
    }

    // Quiesce: each round's flush certifies one causality hop has fully
    // drained (announce → summary frame → refresh frame → absorb).
    for _ in 0..3 {
        let mut expected = 0usize;
        for tx in inboxes.iter() {
            if tx.send_blocking(NodeMsg::Flush).is_ok() {
                expected += 1;
            } else {
                channel_errors += 1;
            }
        }
        let mut done = 0usize;
        while done < expected {
            match acks.recv_blocking() {
                Some(Ack::FlushDone) => done += 1,
                Some(_) => channel_errors += 1,
                None => {
                    channel_errors += 1;
                    break;
                }
            }
        }
    }

    let mut expected = 0usize;
    for tx in inboxes.iter() {
        if tx.send_blocking(NodeMsg::Shutdown { t: span }).is_ok() {
            expected += 1;
        } else {
            channel_errors += 1;
        }
    }
    let mut messages_sent = 0;
    let mut messages_received = 0;
    let mut bytes_sent = 0;
    let mut bytes_received = 0;
    let mut decode_errors = 0;
    let mut done = 0usize;
    while done < expected {
        match acks.recv_blocking() {
            Some(Ack::Done(r)) => {
                messages_sent += r.msgs_sent;
                messages_received += r.msgs_received;
                bytes_sent += r.bytes_sent;
                bytes_received += r.bytes_received;
                decode_errors += r.decode_errors;
                done += 1;
            }
            Some(_) => channel_errors += 1,
            None => {
                channel_errors += 1;
                break;
            }
        }
    }
    let elapsed = start.elapsed();
    exec.shutdown();

    FirehoseReport {
        nodes: node_count,
        contacts: contact_count,
        births: births.len() as u64,
        messages_sent,
        messages_received,
        bytes_sent,
        bytes_received,
        decode_errors,
        channel_errors,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_msg_stays_small() {
        assert!(std::mem::size_of::<NodeMsg>() <= 24);
    }
}
