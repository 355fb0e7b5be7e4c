//! Mobility and contact-trace substrate for opportunistic mobile networks.
//!
//! Opportunistic (delay/disruption-tolerant) mobile networks are driven by
//! *contacts*: intervals during which two devices are within radio range and
//! can exchange data. Everything above this crate — cooperative caching,
//! cache-freshness maintenance, the node runtime — consumes a
//! [`ContactTrace`] or a streamed [`ContactSource`].
//!
//! The crate provides:
//!
//! * [`Contact`] / [`ContactTrace`] — validated contact intervals and trace
//!   containers with windowing and time scaling; [`link`] flattens a trace
//!   into ordered link up/down events.
//! * [`io`] — a plain-text trace format with round-trip read/write.
//! * [`TraceStats`] — aggregate trace characteristics (inter-contact times,
//!   contact durations, degrees) used to produce trace-summary tables.
//! * [`ContactGraph`] — the pairwise contact-rate graph with expected-delay
//!   shortest paths and the centrality metrics used for Network Central
//!   Location (NCL) selection.
//! * [`estimate`] — the online pairwise contact-rate table (cumulative
//!   MLE) that protocol nodes maintain from observed contacts.
//! * [`ContactSource`] — an ordered contact stream pulled lazily: a cursor
//!   over a materialized trace ([`TraceSource`]), a line-by-line file
//!   reader ([`io::StreamingTraceSource`]), or a sharded large-N generator
//!   ([`synth::sharded::ShardedCommunitySource`]) whose resident memory is
//!   O(shards) instead of O(contacts).
//! * [`ContactDriver`] — the shared contact feed beside the event kernel:
//!   it hands out contacts from a [`ContactSource`] in stream order, one
//!   peeked ahead, for each loop to merge with its timers, and classifies
//!   each contact's fate (deliverable or down) under the active fault
//!   plan, so every simulator applies faults with identical semantics.
//! * [`faults`] — deterministic fault injection ([`faults::FaultPlan`]):
//!   transmission loss, node churn with rejoin, permanent departures,
//!   stale-version corruption, crashes with state loss, and regional
//!   outages, all seeded from dedicated
//!   [`RngFactory`](omn_sim::RngFactory) streams.
//! * [`synth`] — synthetic mobility generators (heterogeneous pairwise
//!   Poisson, community-structured, diurnal modulation) with presets
//!   calibrated to the published statistics of the MIT Reality and
//!   Haggle/Infocom'06 traces that the reproduced paper evaluates on.
//!
//! # Example
//!
//! ```
//! use omn_contacts::synth::{PairwiseConfig, generate_pairwise};
//! use omn_contacts::TraceStats;
//! use omn_sim::RngFactory;
//!
//! let config = PairwiseConfig::new(20, omn_sim::SimDuration::from_days(2.0));
//! let trace = generate_pairwise(&config, &RngFactory::new(1));
//! let stats = TraceStats::compute(&trace);
//! assert_eq!(stats.node_count, 20);
//! assert!(stats.total_contacts > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod contact;
mod driver;
pub mod estimate;
pub mod faults;
mod graph;
pub mod io;
pub mod link;
pub mod source;
mod stats;
pub mod synth;
pub mod temporal;
mod trace;

pub use contact::{Contact, ContactError, NodeId};
pub use driver::{ContactDriver, ContactFate, TransferOutcome};
pub use graph::{Centrality, ContactGraph};
pub use link::{LinkEvent, LinkEventKind, LinkEvents};
pub use source::{ContactSource, LastContact, TraceSource};
pub use stats::TraceStats;
pub use trace::{ContactTrace, TraceBuilder, TraceError};
