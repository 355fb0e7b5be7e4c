//! Async node runtime for the cache-freshness protocol.
//!
//! Where the DES (`omn-core`'s [`FreshnessSimulator`]) drives the
//! protocol as one global state machine, this crate runs the *same*
//! sans-io core ([`NodeProtocol`](omn_core::protocol::NodeProtocol)) the
//! way a deployment would: one async task per node, real serialized
//! [`wire`] frames between them over bounded channels, and a link
//! supervisor replaying any
//! [`ContactSource`](omn_contacts::ContactSource) as link up/down
//! events.
//!
//! The container this workspace builds in has no async runtime crate, so
//! the executor ([`rt`]) and channels ([`chan`]) are hand-rolled from
//! `std` primitives — small, single-purpose, and sufficient for 10⁴+
//! concurrent node tasks.
//!
//! Two drive modes:
//!
//! * [`run_lockstep`] quiesces the network around every link event so
//!   the distributed execution is observably identical to the DES — the
//!   E18 campaign cross-validates per-node version vectors, freshness
//!   ratios, and transmission counts between the two, with the same
//!   invariant oracles attached.
//! * [`run_firehose`] lets the network run free and measures message
//!   throughput against the wall clock at scale.
//!
//! With the `net-loopback` feature, [`transport`] ships the same frames
//! over real loopback TCP sockets (round-trip smoke scope).
//!
//! [`FreshnessSimulator`]: omn_core::sim::FreshnessSimulator

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chan;
pub mod codec;
pub mod report;
pub mod rt;
pub mod runtime;
#[cfg(feature = "net-loopback")]
pub mod transport;
pub mod wire;

pub use codec::CodecError;
pub use report::{FirehoseReport, NodeReport, RuntimeReport};
pub use runtime::{run_firehose, run_lockstep, RuntimeConfig, RuntimeError};
