//! The per-node view of the protocol: a sans-io state machine suitable
//! for running one instance per node over a real transport.
//!
//! [`NodeProtocol`] is the protocol as one node experiences it:
//! `on_contact_up / on_message / on_timer → Vec<`[`Effect`]`>`, with time
//! injected at every entry point and no shared state between instances.
//! Where [`HierarchicalScheme`] and [`EpidemicRefresh`] are the *global*
//! formulation (one state machine that sees every contact — exactly what
//! the DES drives), `NodeProtocol` is the *local* formulation the async
//! `omn-node` runtime instantiates once per node.
//!
//! The two formulations coincide exactly for the protocol variants whose
//! decisions are locally decidable from pairwise state:
//!
//! * **Tree refreshing** ([`ProtocolMode::HierTree`]) — a parent forwards
//!   its cached version to a child holding an older one. Both sides of the
//!   decision are in the contact pair.
//! * **Epidemic flooding** ([`ProtocolMode::Epidemic`]) — the newest
//!   effective version in the pair flows to the older side.
//!
//! Probabilistic *replication* is deliberately not part of `NodeProtocol`:
//! the handoff guard (`version_of(parent) == current_version`) compares a
//! member's cache against the source's **global** current version, which a
//! disconnected node cannot know. That variant stays in the DES's
//! [`HierarchicalScheme`]; see DESIGN.md for the locality argument.
//!
//! [`HierarchicalScheme`]: crate::scheme::HierarchicalScheme
//! [`EpidemicRefresh`]: crate::scheme::EpidemicRefresh

use omn_contacts::NodeId;
use omn_sim::{SimDuration, SimTime};

/// Which local protocol a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMode {
    /// Static-tree hierarchical refreshing (the paper's tree half): a node
    /// refreshes exactly its children in the refresh tree.
    HierTree,
    /// Epidemic flooding: hand the newest version seen to anyone older.
    Epidemic,
}

/// A timer a node asked its runtime to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// The source's next version birth.
    VersionBirth(u64),
}

/// What one node tells a peer about itself when a link comes up (and what
/// a lockstep supervisor probes before replaying a contact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerSummary {
    /// The summarized node.
    pub node: NodeId,
    /// Whether it is a caching member.
    pub is_member: bool,
    /// Its cached version (members and the source; `None` otherwise).
    pub cache: Option<u64>,
    /// The version it carries as a relay (non-members; `None` otherwise).
    pub carried: Option<u64>,
}

/// A protocol message exchanged between nodes. `omn-node` serializes these
/// into length-prefixed wire frames; the replay harness hands them over
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMsg {
    /// "Here is version `version`" — a refresh delivery or relay handoff.
    Refresh {
        /// The version being pushed.
        version: u64,
    },
    /// The sender's self-description, exchanged when a link comes up in
    /// runtimes where no supervisor probes state (firehose mode).
    Summary(PeerSummary),
}

/// An instruction from the protocol to its runtime. The protocol never
/// performs IO; it returns effects and the runtime (DES replay harness,
/// async executor, deployment shim) carries them out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Transmit `msg` to `to` over the currently-up link. One `Send` is
    /// one transmission charged to this node.
    Send {
        /// The receiving node.
        to: NodeId,
        /// The message to serialize and transmit.
        msg: ProtocolMsg,
    },
    /// This node's cache was updated to `version`; the runtime records the
    /// receipt (and feeds the absorb to any attached invariant oracles).
    CacheWrite {
        /// The version now cached.
        version: u64,
    },
    /// This node (a non-member relay) now carries a copy: the runtime
    /// counts one replica.
    ReplicaCreated,
    /// Ask the runtime to schedule [`TimerKind`] at `at` (e.g. the
    /// source's next version birth).
    SetTimer {
        /// Absolute instant the timer should fire.
        at: SimTime,
        /// What to do when it fires.
        kind: TimerKind,
    },
    /// Add `n` to the named run counter (exact integral counters, e.g. a
    /// replaced relay copy's occupancy, truncated per event exactly like
    /// the DES does).
    Count {
        /// Counter name (the DES extras vocabulary).
        name: &'static str,
        /// Amount to add.
        n: u64,
    },
    /// Accumulate fractional seconds into the named counter; the runtime
    /// sums `f64` across nodes and truncates once at end of run, matching
    /// the DES's single end-of-run truncation.
    CountSecs {
        /// Counter name (the DES extras vocabulary).
        name: &'static str,
        /// Seconds to accumulate.
        secs: f64,
    },
}

/// The source's version-birth schedule (periodic, like the DES's
/// `UpdateSchedule::periodic`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RootSchedule {
    period: SimDuration,
    span: SimTime,
}

/// One node's protocol instance: all the state this node owns, and
/// nothing any other node owns.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProtocol {
    id: NodeId,
    root: NodeId,
    member: bool,
    mode: ProtocolMode,
    /// This node's parent in the refresh tree (tree mode, members only).
    parent: Option<NodeId>,
    /// This node's children in the refresh tree (tree mode).
    children: Vec<NodeId>,
    /// Cached version: members start at 0 (like the DES roster), the
    /// source tracks its own births, non-members cache nothing.
    cache: Option<u64>,
    /// Relay carriage (epidemic non-members): version and acquisition
    /// time, for occupancy accounting.
    carried: Option<(u64, SimTime)>,
    schedule: Option<RootSchedule>,
}

impl NodeProtocol {
    /// Creates the protocol instance for `id`. Members and the source
    /// start caching version 0, exactly like the DES roster.
    #[must_use]
    pub fn new(id: NodeId, root: NodeId, member: bool, mode: ProtocolMode) -> NodeProtocol {
        NodeProtocol {
            id,
            root,
            member,
            mode,
            parent: None,
            children: Vec::new(),
            cache: (member || id == root).then_some(0),
            carried: None,
            schedule: None,
        }
    }

    /// Installs this node's slice of the refresh tree (tree mode).
    pub fn set_tree(&mut self, parent: Option<NodeId>, children: Vec<NodeId>) {
        self.parent = parent;
        self.children = children;
    }

    /// Installs the source's periodic birth schedule; only meaningful on
    /// the root node. [`NodeProtocol::on_start`] then requests the first
    /// birth timer.
    pub fn set_schedule(&mut self, period: SimDuration, span: SimTime) {
        self.schedule = Some(RootSchedule { period, span });
    }

    /// The node this instance speaks for.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether this node is a caching member.
    #[must_use]
    pub fn is_member(&self) -> bool {
        self.member
    }

    /// The cached version (members and the source).
    #[must_use]
    pub fn cache_version(&self) -> Option<u64> {
        self.cache
    }

    /// The version carried as a relay, if any.
    #[must_use]
    pub fn carried_version(&self) -> Option<u64> {
        self.carried.map(|(v, _)| v)
    }

    /// This node's self-description for peers and supervisors.
    #[must_use]
    pub fn summary(&self) -> PeerSummary {
        PeerSummary {
            node: self.id,
            is_member: self.member,
            cache: self.cache,
            carried: self.carried_version(),
        }
    }

    /// Called once before any event. The source requests its first birth
    /// timer; every other node starts passive.
    #[must_use]
    pub fn on_start(&mut self) -> Vec<Effect> {
        let mut out = Vec::new();
        if self.id == self.root {
            if let Some(s) = self.schedule {
                let first = SimTime::ZERO + s.period;
                if first <= s.span {
                    out.push(Effect::SetTimer {
                        at: first,
                        kind: TimerKind::VersionBirth(1),
                    });
                }
            }
        }
        out
    }

    /// A link to `peer` came up at `now` (one directional pass: this node
    /// reacts to the peer's summarized state; the runtime runs the
    /// symmetric pass on the peer).
    #[must_use]
    pub fn on_contact_up(&mut self, now: SimTime, peer: &PeerSummary) -> Vec<Effect> {
        let _ = now;
        let mut out = Vec::new();
        match self.mode {
            ProtocolMode::HierTree => {
                // Tree responsibility: refresh exactly my children, and
                // only when I hold something strictly newer.
                if self.children.contains(&peer.node) {
                    if let Some(vx) = self.cache {
                        if peer.cache.is_none_or(|vy| vy < vx) {
                            out.push(Effect::Send {
                                to: peer.node,
                                msg: ProtocolMsg::Refresh { version: vx },
                            });
                        }
                    }
                }
            }
            ProtocolMode::Epidemic => {
                // The newest effective version flows to the older side;
                // only the strictly-newer endpoint sends, so the two
                // directional passes together make exactly the one
                // decision the global formulation makes per contact.
                let mine = self.effective_version();
                let theirs = peer.cache.or(peer.carried);
                if let Some(v) = mine {
                    if theirs.is_none_or(|t| t < v) {
                        if peer.is_member {
                            out.push(Effect::Send {
                                to: peer.node,
                                msg: ProtocolMsg::Refresh { version: v },
                            });
                        } else if peer.node != self.root {
                            // Relay handoff: the receiver's carriage
                            // bookkeeping happens in its on_message.
                            out.push(Effect::Send {
                                to: peer.node,
                                msg: ProtocolMsg::Refresh { version: v },
                            });
                            out.push(Effect::ReplicaCreated);
                        }
                    }
                }
            }
        }
        out
    }

    /// A serialized protocol message from `from` arrived at `now`.
    #[must_use]
    pub fn on_message(&mut self, now: SimTime, from: NodeId, msg: &ProtocolMsg) -> Vec<Effect> {
        let _ = from;
        match *msg {
            ProtocolMsg::Refresh { version } => self.absorb(now, version),
            // A peer's link-up self-description: react exactly as if the
            // supervisor had probed it for us (firehose mode).
            ProtocolMsg::Summary(peer) => self.on_contact_up(now, &peer),
        }
    }

    /// A timer this node asked for fired at `now`.
    #[must_use]
    pub fn on_timer(&mut self, now: SimTime, kind: TimerKind) -> Vec<Effect> {
        match kind {
            TimerKind::VersionBirth(v) => {
                if self.id != self.root {
                    return Vec::new();
                }
                self.cache = Some(v);
                let mut out = vec![Effect::CacheWrite { version: v }];
                if let Some(s) = self.schedule {
                    let next = now + s.period;
                    if next <= s.span {
                        out.push(Effect::SetTimer {
                            at: next,
                            kind: TimerKind::VersionBirth(v + 1),
                        });
                    }
                }
                out
            }
        }
    }

    /// End of run: flush relay-occupancy accounting for a still-carried
    /// copy (fractional, summed and truncated once by the runtime — the
    /// DES's end-of-run discipline).
    #[must_use]
    pub fn on_shutdown(&mut self, now: SimTime) -> Vec<Effect> {
        let mut out = Vec::new();
        if let Some((_, acquired)) = self.carried.take() {
            let secs = now.saturating_since(acquired).as_secs();
            if secs > 0.0 {
                out.push(Effect::CountSecs {
                    name: "relay-copy-seconds",
                    secs,
                });
            }
        }
        out
    }

    fn effective_version(&self) -> Option<u64> {
        self.cache.or(self.carried_version())
    }

    fn absorb(&mut self, now: SimTime, version: u64) -> Vec<Effect> {
        let mut out = Vec::new();
        if self.member || self.id == self.root {
            // Monotone cache: never regress (the receiver-side version
            // check the oracle proves).
            if self.cache.is_none_or(|h| h < version) {
                self.cache = Some(version);
                out.push(Effect::CacheWrite { version });
            }
        } else {
            // Relay carriage; a replaced copy's occupancy is truncated
            // per replacement, exactly like the DES epidemic accounting.
            match self.carried {
                Some((ov, _)) if ov >= version => {}
                old => {
                    if let Some((_, acquired)) = old {
                        out.push(Effect::Count {
                            name: "relay-copy-seconds",
                            n: now.saturating_since(acquired).as_secs() as u64,
                        });
                    }
                    self.carried = Some((version, now));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn members_and_root_start_at_version_zero() {
        let root = NodeProtocol::new(n(0), n(0), false, ProtocolMode::HierTree);
        let member = NodeProtocol::new(n(1), n(0), true, ProtocolMode::HierTree);
        let relay = NodeProtocol::new(n(3), n(0), false, ProtocolMode::HierTree);
        assert_eq!(root.cache_version(), Some(0));
        assert_eq!(member.cache_version(), Some(0));
        assert_eq!(relay.cache_version(), None);
    }

    #[test]
    fn tree_parent_refreshes_only_stale_children() {
        let mut p = NodeProtocol::new(n(0), n(0), false, ProtocolMode::HierTree);
        p.set_tree(None, vec![n(1)]);
        p.cache = Some(3);
        let stale = PeerSummary {
            node: n(1),
            is_member: true,
            cache: Some(1),
            carried: None,
        };
        let effects = p.on_contact_up(SimTime::from_secs(5.0), &stale);
        assert_eq!(
            effects,
            vec![Effect::Send {
                to: n(1),
                msg: ProtocolMsg::Refresh { version: 3 }
            }]
        );
        // A fresh child, a non-child, and an equal version all do nothing.
        let fresh = PeerSummary {
            cache: Some(3),
            ..stale
        };
        assert!(p.on_contact_up(SimTime::from_secs(6.0), &fresh).is_empty());
        let non_child = PeerSummary {
            node: n(2),
            ..stale
        };
        assert!(p
            .on_contact_up(SimTime::from_secs(6.0), &non_child)
            .is_empty());
    }

    #[test]
    fn member_absorbs_monotonically() {
        let mut m = NodeProtocol::new(n(1), n(0), true, ProtocolMode::HierTree);
        let e = m.on_message(
            SimTime::from_secs(1.0),
            n(0),
            &ProtocolMsg::Refresh { version: 2 },
        );
        assert_eq!(e, vec![Effect::CacheWrite { version: 2 }]);
        assert_eq!(m.cache_version(), Some(2));
        // Stale replay is refused without effect.
        let e = m.on_message(
            SimTime::from_secs(2.0),
            n(0),
            &ProtocolMsg::Refresh { version: 1 },
        );
        assert!(e.is_empty());
        assert_eq!(m.cache_version(), Some(2));
    }

    #[test]
    fn epidemic_newer_side_sends_and_relays_carry() {
        let mut src = NodeProtocol::new(n(0), n(0), false, ProtocolMode::Epidemic);
        src.cache = Some(1);
        let relay_summary = PeerSummary {
            node: n(3),
            is_member: false,
            cache: None,
            carried: None,
        };
        let effects = src.on_contact_up(SimTime::from_secs(1.0), &relay_summary);
        assert_eq!(
            effects,
            vec![
                Effect::Send {
                    to: n(3),
                    msg: ProtocolMsg::Refresh { version: 1 }
                },
                Effect::ReplicaCreated,
            ]
        );
        // The relay absorbs into carriage, then the older side of a
        // later contact receives from it.
        let mut relay = NodeProtocol::new(n(3), n(0), false, ProtocolMode::Epidemic);
        let e = relay.on_message(
            SimTime::from_secs(1.0),
            n(0),
            &ProtocolMsg::Refresh { version: 1 },
        );
        assert!(e.is_empty());
        assert_eq!(relay.carried_version(), Some(1));
        let member_summary = PeerSummary {
            node: n(2),
            is_member: true,
            cache: Some(0),
            carried: None,
        };
        let effects = relay.on_contact_up(SimTime::from_secs(2.0), &member_summary);
        assert_eq!(
            effects,
            vec![Effect::Send {
                to: n(2),
                msg: ProtocolMsg::Refresh { version: 1 }
            }]
        );
    }

    #[test]
    fn epidemic_never_hands_copies_to_the_root() {
        let mut m = NodeProtocol::new(n(1), n(0), true, ProtocolMode::Epidemic);
        m.cache = Some(4);
        let root_summary = PeerSummary {
            node: n(0),
            is_member: false,
            cache: Some(2),
            carried: None,
        };
        // A (hypothetically) stale root still receives a member delivery
        // only through the member path; it is never a relay target.
        let effects = m.on_contact_up(SimTime::from_secs(1.0), &root_summary);
        assert!(effects.is_empty());
    }

    #[test]
    fn replaced_relay_copy_counts_truncated_occupancy() {
        let mut relay = NodeProtocol::new(n(3), n(0), false, ProtocolMode::Epidemic);
        let _ = relay.on_message(
            SimTime::from_secs(10.0),
            n(0),
            &ProtocolMsg::Refresh { version: 1 },
        );
        let e = relay.on_message(
            SimTime::from_secs(25.5),
            n(2),
            &ProtocolMsg::Refresh { version: 2 },
        );
        assert_eq!(
            e,
            vec![Effect::Count {
                name: "relay-copy-seconds",
                n: 15
            }]
        );
        assert_eq!(relay.carried_version(), Some(2));
        // Shutdown flushes the remaining copy fractionally.
        let e = relay.on_shutdown(SimTime::from_secs(30.0));
        assert_eq!(
            e,
            vec![Effect::CountSecs {
                name: "relay-copy-seconds",
                secs: 4.5
            }]
        );
    }

    #[test]
    fn root_birth_timers_chain_until_span() {
        let mut root = NodeProtocol::new(n(0), n(0), false, ProtocolMode::HierTree);
        root.set_schedule(SimDuration::from_secs(10.0), SimTime::from_secs(25.0));
        let start = root.on_start();
        assert_eq!(
            start,
            vec![Effect::SetTimer {
                at: SimTime::from_secs(10.0),
                kind: TimerKind::VersionBirth(1)
            }]
        );
        let e = root.on_timer(SimTime::from_secs(10.0), TimerKind::VersionBirth(1));
        assert_eq!(
            e,
            vec![
                Effect::CacheWrite { version: 1 },
                Effect::SetTimer {
                    at: SimTime::from_secs(20.0),
                    kind: TimerKind::VersionBirth(2)
                },
            ]
        );
        // The birth at t=20 would chain to t=30 > span: no further timer.
        let e = root.on_timer(SimTime::from_secs(20.0), TimerKind::VersionBirth(2));
        assert_eq!(e, vec![Effect::CacheWrite { version: 2 }]);
        assert_eq!(root.cache_version(), Some(2));
    }
}
