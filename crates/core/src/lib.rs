//! Distributed maintenance of cache freshness in opportunistic mobile
//! networks.
//!
//! This crate is the primary contribution of the reproduced system
//! (Gao, Cao, Srivatsa, Iyengar — ICDCS 2012): keeping the *cached copies*
//! of periodically refreshed data items fresh, in a network where nodes
//! meet only intermittently and no infrastructure exists.
//!
//! # The scheme
//!
//! A data source produces a new version of its item every refresh period.
//! The copies held by the caching nodes (selected by the cooperative
//! caching layer, [`omn_caching`]) go stale the moment a new version is
//! born; the problem is getting the new version to every caching node
//! quickly and cheaply.
//!
//! * **Hierarchical refreshing** ([`hierarchy`]): the caching nodes are
//!   organized into a refresh tree rooted at the source, built from the
//!   estimated pairwise contact rates so that expected root-to-node refresh
//!   delays are small and no node is responsible for more children than its
//!   fanout bound. Each caching node refreshes *only its children*: the
//!   load of disseminating a version is spread over the caching nodes
//!   instead of falling entirely on the source, and no caching node needs
//!   global knowledge.
//!
//! * **Probabilistic replication** ([`replication`]): a single opportunistic
//!   link may be too slow to meet the freshness requirement "a caching node
//!   receives each new version within deadline τ with probability ≥ q".
//!   Each tree edge therefore gets a *replication plan*: the minimal set of
//!   relay nodes (ranked by two-hop delivery probability, computed in
//!   closed form from the exponential contact model in [`delay`]) such that
//!   the combined probability of direct or relayed delivery within the hop
//!   deadline reaches the per-hop target.
//!
//! * **Analytical model** ([`analysis`]): per-node refresh-delay
//!   distributions composed from the hop models, and predicted freshness
//!   `1 − E[min(D, T)]/T`, validated against simulation (experiment E2).
//!
//! * **Schemes and baselines** ([`scheme`]): the paper's scheme
//!   ([`scheme::HierarchicalScheme`]) and everything the evaluation
//!   compares against — source-only refreshing, epidemic flooding of
//!   updates, random hierarchies, and no refreshing at all — each one
//!   [`scheme::RefreshScheme`] impl driven directly by the DES.
//!
//! * **Sans-io per-node protocol** ([`protocol`]): the tree and epidemic
//!   modes as a per-node [`protocol::NodeProtocol`] (`on_contact_up /
//!   on_message / on_timer → Vec<Effect>`) that the async `omn-node`
//!   runtime instantiates once per node.
//!
//! * **Simulator** ([`sim`]): a trace-driven simulator measuring cache
//!   freshness over time, refresh delays, fresh-query ratios and overhead
//!   for any scheme.
//!
//! * **Invariant oracles** ([`oracle`]): always-on checkers (version
//!   monotonicity, budget accounting, timer liveness) that every run
//!   dispatches protocol observations to, so fault-injection campaigns can
//!   assert the protocol's safety invariants held *throughout* the run and
//!   not just that it terminated.
//!
//! # Example
//!
//! ```
//! use omn_core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
//! use omn_contacts::synth::presets::TracePreset;
//! use omn_sim::RngFactory;
//!
//! let factory = RngFactory::new(1);
//! let trace = TracePreset::InfocomLike.generate_small(&factory);
//! let config = FreshnessConfig::default();
//! let report = FreshnessSimulator::new(config)
//!     .run(&trace, SchemeChoice::Hierarchical, &factory);
//! assert!(report.mean_freshness > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod delay;
pub mod freshness;
pub mod hierarchy;
pub mod joint;
pub mod oracle;
pub mod protocol;
pub mod replication;
pub mod scheme;
pub mod sim;

pub use freshness::{FreshnessRequirement, UpdateSchedule};
pub use hierarchy::{HierarchyError, RefreshHierarchy};
