//! Deterministic discrete-event simulation substrate for opportunistic
//! mobile-network experiments.
//!
//! This crate provides the machinery every simulator in the workspace is
//! built on:
//!
//! * [`SimTime`] / [`SimDuration`] — finite, totally ordered virtual time.
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic [`EventClass`]-then-FIFO tie-breaking.
//! * [`Engine`] — a virtual clock driving an [`EventQueue`].
//! * [`SimWorld`] — the per-run state (clock mirror, metrics registry,
//!   invariant oracles) every workspace simulator shares.
//! * [`RngFactory`] — reproducible, independently seeded random-number
//!   streams derived from a single master seed, so adding a new source of
//!   randomness never perturbs existing ones.
//! * [`oracle`] — always-on protocol invariant oracles: per-event hooks
//!   installed on a [`SimWorld`] that either panic on the first violation
//!   (strict mode, CI) or accumulate per-run violation counters (campaign
//!   mode).
//! * [`metrics`] — counters, time-weighted averages, sample histograms and
//!   timelines for measuring simulations.
//! * [`stats`] — summary statistics, empirical CDFs and confidence intervals
//!   for reporting results across seeds.
//!
//! # Example
//!
//! A two-event simulation:
//!
//! ```
//! use omn_sim::{Engine, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::from_secs(1.0), Ev::Ping);
//! engine.schedule_at(SimTime::from_secs(2.0), Ev::Pong);
//!
//! let mut seen = Vec::new();
//! while let Some(ev) = engine.next_event() {
//!     seen.push(ev.payload);
//! }
//! assert_eq!(seen, vec![Ev::Ping, Ev::Pong]);
//! assert_eq!(engine.now(), SimTime::from_secs(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
mod engine;
mod link;
pub mod metrics;
pub mod oracle;
mod queue;
mod rng;
pub mod stats;
mod time;
mod world;

pub use budget::{ByteConsume, TransferBudget};
pub use engine::{Engine, ScheduledEvent};
pub use link::{LinkConfig, LinkStats, Queued, TxQueues};
pub use oracle::{InvariantOracle, OracleMode, OracleObs, OracleReport, OracleSink, Violation};
pub use queue::{EventClass, EventQueue};
pub use rng::{split_mix64, RngFactory};
pub use time::{SimDuration, SimTime, TimeError};
pub use world::SimWorld;
