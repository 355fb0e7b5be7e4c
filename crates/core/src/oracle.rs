//! Concrete protocol invariant oracles for the freshness layer.
//!
//! These implement [`omn_sim::InvariantOracle`] over the observation
//! alphabet ([`omn_sim::OracleObs`]) that [`crate::sim::FreshnessRun`] and
//! [`crate::joint::JointSimulator`] dispatch while a run unfolds:
//!
//! * [`VersionOrderOracle`] — version monotonicity: no node ever absorbs a
//!   version older than one it already absorbed, unless a crash fault
//!   provably wiped its state first.
//! * [`BudgetOracle`] — transfer-budget accounting: no contact retires more
//!   transfers than its configured capacity.
//! * [`BandwidthOracle`] — link-model accounting: no contact moves more
//!   bytes than its bandwidth×duration capacity, and no per-node
//!   transmission queue grows past its depth bound.
//! * [`TimerLivenessOracle`] — refresh-timer liveness: every scheduled
//!   version-birth timer actually fires before the run ends.
//!
//! Structural tree invariants (acyclicity, fanout bound, no orphaned
//! member) are checked in place by the hierarchical scheme after every
//! mutation, through [`crate::scheme::SchemeCtx::oracle_check`] — the
//! scheme holds the tree, so mirroring it into an oracle would only add a
//! second copy to keep consistent.

use omn_sim::{FxHashMap, InvariantOracle, OracleObs, OracleSink, SimTime, Violation};

/// Version monotonicity: a node's absorbed version number never regresses.
///
/// Tracks a per-node high-water mark over [`OracleObs::Absorb`]
/// observations and flags any absorb below it. An
/// [`OracleObs::StateLoss`] resets the node's watermark: after a crash
/// wiped its cache, re-absorbing an older (but newer-than-nothing) version
/// is legitimate recovery.
#[derive(Debug, Default)]
pub struct VersionOrderOracle {
    high: FxHashMap<u64, u64>,
}

impl VersionOrderOracle {
    /// Creates the oracle with no history.
    #[must_use]
    pub fn new() -> VersionOrderOracle {
        VersionOrderOracle::default()
    }
}

impl InvariantOracle for VersionOrderOracle {
    fn name(&self) -> &'static str {
        "version-order"
    }

    fn on_event(&mut self, at: SimTime, obs: &OracleObs, sink: &mut OracleSink) {
        match *obs {
            OracleObs::Absorb { node, version } => {
                let high = self.high.entry(node).or_insert(version);
                sink.check(version >= *high, || Violation {
                    invariant: "version-monotonicity",
                    at,
                    node: Some(node),
                    detail: format!("absorbed version {version} after already holding {high}"),
                });
                *high = (*high).max(version);
            }
            OracleObs::StateLoss { node } => {
                self.high.remove(&node);
            }
            _ => {}
        }
    }
}

/// Transfer-budget accounting: a retired contact budget never reports more
/// consumed transfers than its capacity allowed.
#[derive(Debug, Default)]
pub struct BudgetOracle;

impl BudgetOracle {
    /// Creates the oracle.
    #[must_use]
    pub fn new() -> BudgetOracle {
        BudgetOracle
    }
}

impl InvariantOracle for BudgetOracle {
    fn name(&self) -> &'static str {
        "budget"
    }

    fn on_event(&mut self, at: SimTime, obs: &OracleObs, sink: &mut OracleSink) {
        if let OracleObs::BudgetRetired {
            used,
            capacity: Some(cap),
        } = *obs
        {
            sink.check(used <= cap, || Violation {
                invariant: "budget-overspent",
                at,
                node: None,
                detail: format!("contact carried {used} transfers against capacity {cap}"),
            });
        }
    }
}

/// Link-model accounting: bytes moved never exceed the contact's byte
/// capacity, and no per-node transmission queue ever exceeds its depth
/// bound.
///
/// Consumes [`OracleObs::BytesRetired`] (emitted once per retired contact
/// budget, like [`OracleObs::BudgetRetired`]) and
/// [`OracleObs::QueueDepth`] (emitted whenever a queue grows).
#[derive(Debug, Default)]
pub struct BandwidthOracle;

impl BandwidthOracle {
    /// Creates the oracle.
    #[must_use]
    pub fn new() -> BandwidthOracle {
        BandwidthOracle
    }
}

impl InvariantOracle for BandwidthOracle {
    fn name(&self) -> &'static str {
        "bandwidth"
    }

    fn on_event(&mut self, at: SimTime, obs: &OracleObs, sink: &mut OracleSink) {
        match *obs {
            OracleObs::BytesRetired {
                bytes_used,
                byte_capacity: Some(cap),
            } => {
                sink.check(bytes_used <= cap, || Violation {
                    invariant: "byte-capacity-overspent",
                    at,
                    node: None,
                    detail: format!("contact carried {bytes_used} bytes against capacity {cap}"),
                });
            }
            OracleObs::QueueDepth { node, depth, bound } => {
                sink.check(depth <= bound, || Violation {
                    invariant: "queue-depth-bound",
                    at,
                    node: Some(node),
                    detail: format!("transmission queue depth {depth} exceeds bound {bound}"),
                });
            }
            _ => {}
        }
    }
}

/// Refresh-timer liveness: every scheduled version-birth timer fires.
///
/// The driving loop dispatches a `"birth"` timer label per version birth;
/// this oracle counts them and flags a shortfall at end of run — a lost
/// timer means the event kernel silently dropped protocol work.
#[derive(Debug)]
pub struct TimerLivenessOracle {
    expected: u64,
    fired: u64,
}

impl TimerLivenessOracle {
    /// Creates the oracle expecting `expected` birth-timer firings.
    #[must_use]
    pub fn new(expected: u64) -> TimerLivenessOracle {
        TimerLivenessOracle { expected, fired: 0 }
    }
}

impl InvariantOracle for TimerLivenessOracle {
    fn name(&self) -> &'static str {
        "timer-liveness"
    }

    fn on_timer(&mut self, _at: SimTime, label: &str, _sink: &mut OracleSink) {
        if label == "birth" {
            self.fired += 1;
        }
    }

    fn end_of_run(&mut self, at: SimTime, sink: &mut OracleSink) {
        let (fired, expected) = (self.fired, self.expected);
        sink.check(fired >= expected, || Violation {
            invariant: "timer-liveness",
            at,
            node: None,
            detail: format!("only {fired} of {expected} scheduled birth timers fired"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omn_sim::OracleMode;

    fn sink() -> OracleSink {
        OracleSink::new(OracleMode::Campaign)
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn version_order_accepts_monotone_and_flags_regression() {
        let mut o = VersionOrderOracle::new();
        let mut s = sink();
        o.on_event(
            t(1.0),
            &OracleObs::Absorb {
                node: 3,
                version: 1,
            },
            &mut s,
        );
        o.on_event(
            t(2.0),
            &OracleObs::Absorb {
                node: 3,
                version: 4,
            },
            &mut s,
        );
        o.on_event(
            t(3.0),
            &OracleObs::Absorb {
                node: 5,
                version: 2,
            },
            &mut s,
        );
        assert!(s.report().is_clean());
        o.on_event(
            t(4.0),
            &OracleObs::Absorb {
                node: 3,
                version: 2,
            },
            &mut s,
        );
        assert_eq!(s.report().count("version-monotonicity"), 1);
        let first = s.report().first_violation("version-monotonicity").unwrap();
        assert!(first.contains("node 3"), "context kept: {first}");
    }

    #[test]
    fn state_loss_resets_the_watermark() {
        let mut o = VersionOrderOracle::new();
        let mut s = sink();
        o.on_event(
            t(1.0),
            &OracleObs::Absorb {
                node: 3,
                version: 5,
            },
            &mut s,
        );
        o.on_event(t(2.0), &OracleObs::StateLoss { node: 3 }, &mut s);
        // Re-absorbing an older version after a crash is legitimate.
        o.on_event(
            t(3.0),
            &OracleObs::Absorb {
                node: 3,
                version: 2,
            },
            &mut s,
        );
        assert!(s.report().is_clean());
        // But a regression after the re-absorb is not.
        o.on_event(
            t(4.0),
            &OracleObs::Absorb {
                node: 3,
                version: 1,
            },
            &mut s,
        );
        assert_eq!(s.report().count("version-monotonicity"), 1);
    }

    #[test]
    fn budget_oracle_flags_overspend_only() {
        let mut o = BudgetOracle::new();
        let mut s = sink();
        o.on_event(
            t(1.0),
            &OracleObs::BudgetRetired {
                used: 4,
                capacity: Some(4),
            },
            &mut s,
        );
        o.on_event(
            t(2.0),
            &OracleObs::BudgetRetired {
                used: 9,
                capacity: None,
            },
            &mut s,
        );
        assert!(s.report().is_clean());
        o.on_event(
            t(3.0),
            &OracleObs::BudgetRetired {
                used: 5,
                capacity: Some(4),
            },
            &mut s,
        );
        assert_eq!(s.report().count("budget-overspent"), 1);
    }

    #[test]
    fn bandwidth_oracle_flags_byte_overspend_and_depth_breach() {
        let mut o = BandwidthOracle::new();
        let mut s = sink();
        o.on_event(
            t(1.0),
            &OracleObs::BytesRetired {
                bytes_used: 900,
                byte_capacity: Some(1000),
            },
            &mut s,
        );
        o.on_event(
            t(2.0),
            &OracleObs::BytesRetired {
                bytes_used: 1_000_000,
                byte_capacity: None,
            },
            &mut s,
        );
        o.on_event(
            t(3.0),
            &OracleObs::QueueDepth {
                node: 7,
                depth: 4,
                bound: 4,
            },
            &mut s,
        );
        assert!(s.report().is_clean());
        o.on_event(
            t(4.0),
            &OracleObs::BytesRetired {
                bytes_used: 1001,
                byte_capacity: Some(1000),
            },
            &mut s,
        );
        o.on_event(
            t(5.0),
            &OracleObs::QueueDepth {
                node: 7,
                depth: 5,
                bound: 4,
            },
            &mut s,
        );
        assert_eq!(s.report().count("byte-capacity-overspent"), 1);
        assert_eq!(s.report().count("queue-depth-bound"), 1);
    }

    #[test]
    fn timer_liveness_requires_every_birth() {
        let mut o = TimerLivenessOracle::new(2);
        let mut s = sink();
        o.on_timer(t(1.0), "birth", &mut s);
        o.on_timer(t(2.0), "refresh", &mut s);
        o.end_of_run(t(10.0), &mut s);
        assert_eq!(s.report().count("timer-liveness"), 1);

        let mut o = TimerLivenessOracle::new(2);
        let mut s = sink();
        o.on_timer(t(1.0), "birth", &mut s);
        o.on_timer(t(2.0), "birth", &mut s);
        o.end_of_run(t(10.0), &mut s);
        assert!(s.report().is_clean());
    }
}
