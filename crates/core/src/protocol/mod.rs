//! The per-node formulation of the refresh protocol: a sans-io state
//! machine over injected time, randomness, and channel outcomes.
//!
//! [`NodeProtocol`] runs one instance per node,
//! `on_contact_up / on_message / on_timer → Vec<`[`Effect`]`>`, ready to
//! run over a real transport (the async `omn-node` runtime) or the
//! synchronous [`ReplayHarness`]. The DES side is the *global*
//! formulation in [`crate::scheme`]:
//! [`HierarchicalScheme`](crate::scheme::HierarchicalScheme) and
//! [`EpidemicRefresh`](crate::scheme::EpidemicRefresh), each one state
//! machine that observes every contact through
//! [`SchemeCtx`](crate::scheme::SchemeCtx).
//!
//! The effect vocabulary ([`Effect`]) is the complete set of things the
//! protocol may ask a runtime to do: send a message, record a cache
//! write, create a replica, set a timer, re-parent, bump a counter.

pub mod node;
pub mod replay;

pub use node::{Effect, NodeProtocol, PeerSummary, ProtocolMode, ProtocolMsg, TimerKind};
pub use replay::{ReplayHarness, ReplayOutcome};
