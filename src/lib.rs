//! `omn` — distributed maintenance of cache freshness in opportunistic
//! mobile networks.
//!
//! A full-stack Rust reproduction of *Gao, Cao, Srivatsa, Iyengar,
//! "Distributed Maintenance of Cache Freshness in Opportunistic Mobile
//! Networks", ICDCS 2012*: the hierarchical refresh scheme with
//! probabilistic replication, every substrate it depends on, the baselines
//! it is evaluated against, and a trace-driven experiment harness.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`sim`] ([`omn_sim`]) — deterministic discrete-event simulation:
//!   virtual time, class-ordered event queues, seeded RNG streams,
//!   invariant oracles, metrics and statistics.
//! * [`contacts`] ([`omn_contacts`]) — contact traces, synthetic mobility
//!   (heterogeneous pairwise, community, diurnal), contact
//!   graphs, centrality, and online rate estimation.
//! * [`caching`] ([`omn_caching`]) — the NCL cooperative caching framework:
//!   central-node selection, cache stores and replacement policies, Zipf
//!   query workloads, and the data-access layer the joint world drives.
//! * [`core`] ([`omn_core`]) — **the paper's contribution**: refresh
//!   hierarchies, analytically sized probabilistic replication, the
//!   baseline schemes, the freshness simulator, the joint
//!   caching + freshness world, and the closed-form freshness analysis.
//!
//! # Quickstart
//!
//! Compare the paper's scheme against the source-only baseline on a
//! conference-style trace:
//!
//! ```
//! use omn::contacts::synth::presets::TracePreset;
//! use omn::core::sim::{FreshnessConfig, FreshnessSimulator, SchemeChoice};
//! use omn::sim::RngFactory;
//!
//! let factory = RngFactory::new(7);
//! let trace = TracePreset::InfocomLike.generate_small(&factory);
//! let sim = FreshnessSimulator::new(FreshnessConfig::default());
//!
//! let hier = sim.run(&trace, SchemeChoice::Hierarchical, &factory);
//! let star = sim.run(&trace, SchemeChoice::SourceOnly, &factory);
//! assert!(hier.mean_freshness >= star.mean_freshness - 0.05);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the full
//! reconstructed evaluation (experiments E1–E19, one `specs/eNN.scn`
//! each, run with `omn-scn run eNN`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use omn_caching as caching;
pub use omn_contacts as contacts;
pub use omn_core as core;
pub use omn_sim as sim;
