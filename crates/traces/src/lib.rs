//! Real contact-dataset ingestion and calibration.
//!
//! The reproduced paper evaluates on two real opportunistic-network traces:
//! *MIT Reality* (Bluetooth proximity on ~100 campus phones over 9 months)
//! and *Haggle/Infocom'06* (iMotes on 78 conference attendees over ~4
//! days). This crate turns those published dump formats into the validated
//! [`ContactTrace`](omn_contacts::ContactTrace)s / streaming
//! [`ContactSource`](omn_contacts::ContactSource)s everything else
//! consumes, and fits the pairwise-exponential model the protocol analysis
//! assumes:
//!
//! * [`reality`] / [`haggle`] — line-by-line parsers for the two dump
//!   formats, each a [`reader::LineFormat`] plugged into the generic
//!   bounded-memory [`reader::TraceReader`];
//! * [`normalize`] — the shared record normalizer: node-id remapping,
//!   duplicate/overlap merging, and the strict-vs-lenient malformed-record
//!   policy, reporting failures through the typed
//!   [`ParseError`](omn_contacts::io::ParseError) introduced for
//!   `StreamingTraceSource`;
//! * [`registry`](mod@registry) — dataset specs ([`registry::TraceSpec`]: path, format,
//!   pinned checksum, expected population/span), format sniffing and
//!   probing, and the built-in registry that prefers full datasets under
//!   `datasets/` and falls back to fixture excerpts under `tests/data/`;
//! * [`calibrate`] — pairwise inter-contact rate estimation, Gamma
//!   heterogeneity fitting with an exponential goodness-of-fit figure, the
//!   fitted synthetic preset ([`calibrate::Calibration::preset`]), and the
//!   real-vs-synthetic [`calibrate::calibration_check`] that experiment
//!   E16 tabulates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibrate;
pub mod haggle;
pub mod normalize;
pub mod reader;
pub mod reality;
pub mod registry;

pub use calibrate::{calibration_check, Calibration, CalibrationCheck};
pub use normalize::{IdPolicy, IngestConfig, IngestStats, RecordPolicy};
pub use reader::TraceReader;
pub use registry::{ingest_file, open_source, probe, registry, Ingested, TraceFormat, TraceSpec};
