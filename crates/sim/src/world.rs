//! The per-run world state shared by the workspace simulators.
//!
//! Every simulator in the workspace — cache freshness, the joint
//! caching + freshness world, the node runtime's lockstep mode — carries
//! a [`SimWorld`]: a virtual-clock mirror, a registry of counters
//! accumulated as the run unfolds, and the installed invariant oracles
//! with their violation sink.
//!
//! The world is deliberately contact-agnostic: `omn-contacts` depends on
//! this crate, so the contact-feed half of the substrate (the
//! `ContactDriver`) lives there and composes with a [`SimWorld`] rather
//! than being part of it.

use crate::metrics::Registry;
use crate::oracle::{InvariantOracle, OracleObs, OracleReport, OracleSink};
use crate::time::SimTime;

/// The state every simulator run carries: a clock mirror that the
/// simulator advances alongside its [`Engine`](crate::Engine), the registry
/// that collects auxiliary counters (fault events, suppressed contacts,
/// rejoins, …), and the run's invariant oracles.
#[derive(Debug)]
pub struct SimWorld {
    now: SimTime,
    metrics: Registry,
    oracles: Vec<Box<dyn InvariantOracle>>,
    sink: OracleSink,
}

impl Default for SimWorld {
    fn default() -> SimWorld {
        SimWorld::new()
    }
}

impl SimWorld {
    /// Creates a world at time zero. The oracle sink's mode is resolved
    /// from `OMN_ORACLE` (see
    /// [`OracleMode::from_env`](crate::OracleMode::from_env)); use
    /// [`set_oracle_sink`](SimWorld::set_oracle_sink) to override it.
    #[must_use]
    pub fn new() -> SimWorld {
        SimWorld {
            now: SimTime::ZERO,
            metrics: Registry::new(),
            oracles: Vec::new(),
            sink: OracleSink::from_env(),
        }
    }

    /// Advances the world clock. The clock never moves backwards; calls
    /// with an earlier instant are ignored, so the mirror can be updated
    /// from out-of-band bookkeeping without ordering hazards.
    pub fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            self.now = at;
        }
    }

    /// The run's counter registry.
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.metrics
    }

    /// Consumes the world, returning its accumulated metrics registry.
    #[must_use]
    pub fn into_metrics(self) -> Registry {
        self.metrics
    }

    /// Installs an invariant oracle; its hooks fire for every subsequent
    /// dispatched event, contact, timer, and end-of-run sweep.
    pub fn install_oracle(&mut self, oracle: Box<dyn InvariantOracle>) {
        self.oracles.push(oracle);
    }

    /// Whether any oracle is installed (dispatch is a no-op otherwise).
    #[must_use]
    pub fn has_oracles(&self) -> bool {
        !self.oracles.is_empty()
    }

    /// Replaces the violation sink (e.g. to force strict or off mode
    /// independently of the `OMN_ORACLE` environment variable).
    pub fn set_oracle_sink(&mut self, sink: OracleSink) {
        self.sink = sink;
    }

    /// The mode of the current violation sink.
    #[must_use]
    pub fn oracle_mode(&self) -> crate::oracle::OracleMode {
        self.sink.mode()
    }

    /// Direct access to the violation sink, so protocol code can report
    /// invariant checks it performs in place (tree validation, orphan
    /// bounds) without routing them through a trait object.
    pub fn oracle_sink_mut(&mut self) -> &mut OracleSink {
        &mut self.sink
    }

    /// Dispatches a protocol observation to every installed oracle at the
    /// current world clock.
    pub fn oracle_event(&mut self, obs: &OracleObs) {
        for oracle in &mut self.oracles {
            oracle.on_event(self.now, obs, &mut self.sink);
        }
    }

    /// Dispatches a contact event to every installed oracle.
    pub fn oracle_contact(&mut self, a: u64, b: u64) {
        for oracle in &mut self.oracles {
            oracle.on_contact(self.now, a, b, &mut self.sink);
        }
    }

    /// Dispatches a protocol timer firing to every installed oracle.
    pub fn oracle_timer(&mut self, label: &str) {
        for oracle in &mut self.oracles {
            oracle.on_timer(self.now, label, &mut self.sink);
        }
    }

    /// Runs every installed oracle's end-of-run sweep.
    pub fn oracle_end_of_run(&mut self) {
        for oracle in &mut self.oracles {
            oracle.end_of_run(self.now, &mut self.sink);
        }
    }

    /// The violation report accumulated so far (campaign mode).
    #[must_use]
    pub fn oracle_report(&self) -> &OracleReport {
        self.sink.report()
    }

    /// Takes the accumulated violation report out of the world, leaving an
    /// empty one (same mode) behind.
    pub fn take_oracle_report(&mut self) -> OracleReport {
        let mode = self.sink.mode();
        std::mem::replace(&mut self.sink, OracleSink::new(mode)).into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_clock_starts_at_zero_and_never_regresses() {
        let mut w = SimWorld::new();
        assert_eq!(w.now, SimTime::ZERO);
        w.advance_to(SimTime::from_secs(10.0));
        assert_eq!(w.now, SimTime::from_secs(10.0));
        // The clock never regresses.
        w.advance_to(SimTime::from_secs(4.0));
        assert_eq!(w.now, SimTime::from_secs(10.0));
    }

    #[test]
    fn installed_oracles_receive_dispatched_hooks() {
        use crate::oracle::{InvariantOracle, OracleMode, OracleObs, OracleSink, Violation};

        /// Flags every absorb of a version older than 100s and counts
        /// contacts; used to prove dispatch plumbing works end to end.
        #[derive(Debug, Default)]
        struct Probe {
            contacts: u32,
        }
        impl InvariantOracle for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn on_event(&mut self, at: SimTime, obs: &OracleObs, sink: &mut OracleSink) {
                if let OracleObs::Absorb { node, version } = *obs {
                    sink.check(version >= 100, || Violation {
                        invariant: "probe-version",
                        at,
                        node: Some(node),
                        detail: format!("version {version} too old"),
                    });
                }
            }
            fn on_contact(&mut self, _at: SimTime, _a: u64, _b: u64, _sink: &mut OracleSink) {
                self.contacts += 1;
            }
            fn end_of_run(&mut self, at: SimTime, sink: &mut OracleSink) {
                sink.check(self.contacts > 0, || Violation {
                    invariant: "probe-saw-no-contacts",
                    at,
                    node: None,
                    detail: "no contact ever dispatched".into(),
                });
            }
        }

        let mut w = SimWorld::new();
        w.set_oracle_sink(OracleSink::new(OracleMode::Campaign));
        assert!(!w.has_oracles());
        w.install_oracle(Box::new(Probe::default()));
        assert!(w.has_oracles());
        w.advance_to(SimTime::from_secs(10.0));
        w.oracle_contact(0, 1);
        w.oracle_event(&OracleObs::Absorb {
            node: 2,
            version: 5,
        });
        w.oracle_timer("refresh");
        w.oracle_end_of_run();
        assert_eq!(w.oracle_report().count("probe-version"), 1);
        assert_eq!(w.oracle_report().count("probe-saw-no-contacts"), 0);
        let report = w.take_oracle_report();
        assert_eq!(report.total(), 1);
        assert!(w.oracle_report().is_clean(), "take leaves an empty report");
    }

    #[test]
    fn metrics_accumulate_and_survive_into_metrics() {
        let mut w = SimWorld::new();
        w.metrics_mut().incr("rejoin-events");
        w.metrics_mut().add("down-contacts", 3);
        let reg = w.into_metrics();
        assert_eq!(reg.get("rejoin-events"), 1);
        assert_eq!(reg.get("down-contacts"), 3);
    }
}
