//! The shared contact driver: one fault-filtered contact feed for every
//! simulator.
//!
//! Before this module existed, each simulator in the workspace hand-rolled
//! its own `for contact in trace.contacts()` loop, and only the freshness
//! simulator consulted the [`FaultPlan`](crate::faults::FaultPlan). The
//! [`ContactDriver`] centralizes that logic: it hands out contacts from a
//! [`ContactSource`] in stream order and classifies each contact's *fate*
//! — deliverable, or suppressed by node downtime — so every simulator
//! applies churn, departures, and transmission loss with identical
//! semantics.
//!
//! The feed is an ordered pull: [`peek_start`](ContactDriver::peek_start)
//! pulls the next contact and reports its start, and
//! [`next_contact`](ContactDriver::next_contact) hands it out. A
//! simulation loop merges this stream with its event engine's timers by
//! comparing the peeked start against the next timer, so contacts never
//! enter the engine's heap. At most two contacts are resident in the driver
//! at any instant (the one being handled and the peeked next one), so
//! memory scales with the source's internal state (O(shards) for the
//! sharded generator), not with the total contact count.
//!
//! The driver lives in `omn-contacts` rather than `omn-sim` because it is
//! the contact-shaped half of the substrate: `omn-sim` owns the generic
//! kernel ([`Engine`](omn_sim::Engine), [`EventClass`](omn_sim::EventClass),
//! [`SimWorld`](omn_sim::SimWorld)) and knows nothing about [`Contact`]s or fault
//! plans, while this crate owns both.

use omn_sim::{RngFactory, SimTime, TransferBudget};

use crate::faults::{FaultConfig, FaultPlan, Rejoin};
use crate::source::{ContactSource, LastContact, TraceSource};
use crate::{Contact, ContactTrace, NodeId};

/// What happens to a single contact once faults are applied (checked by
/// [`ContactDriver::fate`]): if either endpoint is down (churned out,
/// departed, crashed, or inside a regional outage), the contact is
/// [`Down`](ContactFate::Down): the radios never meet, so rate estimators
/// see nothing and no protocol exchange happens. Otherwise it is
/// [`Deliverable`](ContactFate::Deliverable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactFate {
    /// The contact proceeds normally; data may be exchanged.
    Deliverable,
    /// At least one endpoint is down; the contact never happens at all.
    Down,
}

/// The result of one budget-constrained transfer attempt; see
/// [`ContactDriver::budgeted_transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The transfer went through (budget consumed, loss draw passed).
    Sent,
    /// The transfer was attempted but lost in transit (budget consumed,
    /// loss draw failed). Counts as a transmission.
    Lost,
    /// The contact's capacity was already exhausted; nothing was sent, no
    /// randomness was consumed, and no transmission happened.
    OverBudget,
    /// The message did not fit the contact's remaining byte capacity
    /// (sized transfers only; see
    /// [`ContactDriver::budgeted_transfer_sized`]). Nothing was sent, no
    /// randomness was consumed, and no transmission happened — but unlike
    /// [`OverBudget`](TransferOutcome::OverBudget), the caller may queue
    /// the message for a later contact.
    ByteDenied,
}

/// An ordered, fault-filtered contact feed.
///
/// Construct one per run with [`ContactDriver::new`] (over a materialized
/// trace) or [`ContactDriver::from_source`] (over any stream), pull
/// contacts in stream order with [`peek_start`](ContactDriver::peek_start)
/// and [`next_contact`](ContactDriver::next_contact), then query
/// [`ContactDriver::fate`] for each contact handed out and
/// [`ContactDriver::transfer_fails`] per attempted data transfer.
///
/// A driver built with `faults: None` performs no fault bookkeeping and
/// consumes no randomness, so fault-free runs stay bit-identical to the
/// pre-driver simulators.
#[derive(Debug)]
pub struct ContactDriver<S> {
    source: S,
    plan: Option<FaultPlan>,
    /// The contact pulled from the source but not yet handed out.
    peeked: Option<Contact>,
    /// Whether the source has returned `None`; it is not asked again.
    exhausted: bool,
    /// Total contacts pulled from the source so far.
    pulled: usize,
    /// Start time of the most recently pulled contact, for the sorted-order
    /// assertion.
    last_start: Option<SimTime>,
    /// High-water mark of driver-resident contacts plus the source's
    /// buffered state at pull time (see
    /// [`peak_resident`](ContactDriver::peak_resident)).
    peak_resident: usize,
}

impl<'a> ContactDriver<TraceSource<'a>> {
    /// Creates a driver over a materialized `trace`, building a
    /// [`FaultPlan`] from `faults` (drawing from the factory's dedicated
    /// fault streams) when one is configured.
    #[must_use]
    pub fn new(
        trace: &'a ContactTrace,
        faults: Option<FaultConfig>,
        factory: &RngFactory,
    ) -> ContactDriver<TraceSource<'a>> {
        ContactDriver::from_source(TraceSource::new(trace), faults, factory)
    }
}

impl<S: ContactSource> ContactDriver<S> {
    /// Creates a driver over any [`ContactSource`], building a
    /// [`FaultPlan`] from `faults` when one is configured. The plan needs
    /// only the source's node count and span, so it works over streams of
    /// unknown length.
    #[must_use]
    pub fn from_source(
        source: S,
        faults: Option<FaultConfig>,
        factory: &RngFactory,
    ) -> ContactDriver<S> {
        let plan = faults
            .map(|config| FaultPlan::build(config, source.node_count(), source.span(), factory));
        ContactDriver {
            source,
            plan,
            peeked: None,
            exhausted: false,
            pulled: 0,
            last_start: None,
            peak_resident: 0,
        }
    }

    /// Number of nodes in the source's population.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.source.node_count()
    }

    /// Total simulated span of the source.
    #[must_use]
    pub fn span(&self) -> SimTime {
        self.source.span()
    }

    /// The start time of the final contact the source will yield, if known.
    /// A streaming source of unknown length conservatively reports the span
    /// (events up to the span may still influence an exchange). Simulators
    /// use this to bound workload processing.
    #[must_use]
    pub fn last_contact_start(&self) -> Option<SimTime> {
        match self.source.last_contact() {
            LastContact::Known(t) => t,
            LastContact::Unknown => Some(self.source.span()),
        }
    }

    /// The start of the next contact the feed will hand out, pulling it
    /// from the source if it is not pulled yet; `None` once the source is
    /// exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the source yields a contact that starts before the
    /// previous one: every simulator's event order rests on the source's
    /// nondecreasing start order.
    pub fn peek_start(&mut self) -> Option<SimTime> {
        if self.peeked.is_none() && !self.exhausted {
            self.peeked = self.source.next_contact();
            match self.peeked {
                Some(c) => {
                    assert!(
                        self.last_start.is_none_or(|prev| c.start() >= prev),
                        "ContactSource yielded out-of-order contact {} after start {:?}",
                        c,
                        self.last_start
                    );
                    self.last_start = Some(c.start());
                    self.pulled += 1;
                    // Resident: the peeked contact, plus the one the caller
                    // is handling once it has been handed one.
                    self.peak_resident = self
                        .peak_resident
                        .max(self.pulled.min(2) + self.source.resident_hint());
                }
                None => self.exhausted = true,
            }
        }
        self.peeked.map(|c| c.start())
    }

    /// Hands out the next contact with its stream index (`0` for the
    /// source's first contact), or `None` once the source is exhausted.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-order source, as
    /// [`peek_start`](ContactDriver::peek_start) does.
    pub fn next_contact(&mut self) -> Option<(usize, Contact)> {
        self.peek_start()?;
        self.peeked.take().map(|c| (self.pulled - 1, c))
    }

    /// High-water mark of contacts resident in memory, sampled at every
    /// pull: the driver's own window plus whatever the source kept buffered
    /// at that moment ([`ContactSource::resident_hint`]). Over an
    /// incremental source this stays O(source state) regardless of how
    /// many contacts the run processes; over a materialized
    /// [`TraceSource`] it reports the full trace (plus the bounded window),
    /// which is exactly the memory the streaming pipeline exists to avoid.
    #[must_use]
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Total contacts pulled from the source so far.
    #[must_use]
    pub fn contacts_pulled(&self) -> usize {
        self.pulled
    }

    /// Classifies `contact` at its start instant. Without a plan every
    /// contact is [`ContactFate::Deliverable`].
    #[must_use]
    pub fn fate(&self, contact: &Contact) -> ContactFate {
        let (a, b) = contact.pair();
        let at = contact.start();
        if self.node_down(a, at) || self.node_down(b, at) {
            ContactFate::Down
        } else {
            ContactFate::Deliverable
        }
    }

    /// Draws whether the next attempted data transfer fails. Always `false`
    /// without a plan; consumes no randomness when loss is zero.
    pub fn transfer_fails(&mut self) -> bool {
        self.plan.as_mut().is_some_and(FaultPlan::transfer_fails)
    }

    /// Attempts one data transfer within a shared per-contact `budget`.
    ///
    /// The budget is checked *before* the loss draw: an over-budget
    /// attempt consumes no randomness and must not be counted as a
    /// transmission by the caller — the radios never got the airtime, so
    /// nothing was sent and nothing could be lost. With an unlimited
    /// budget this is bit-identical to calling
    /// [`transfer_fails`](ContactDriver::transfer_fails) directly.
    pub fn budgeted_transfer(&mut self, budget: &mut TransferBudget) -> TransferOutcome {
        self.budgeted_transfer_sized(budget, 0)
    }

    /// Attempts one sized data transfer within a shared per-contact
    /// `budget`, charging `bytes` against its byte capacity (if any).
    ///
    /// Both capacity axes are checked *before* the loss draw: a denied
    /// attempt consumes no randomness and must not be counted as a
    /// transmission. A zero-size transfer or a budget without a byte
    /// capacity degrades bit-identically to
    /// [`budgeted_transfer`](ContactDriver::budgeted_transfer).
    pub fn budgeted_transfer_sized(
        &mut self,
        budget: &mut TransferBudget,
        bytes: u64,
    ) -> TransferOutcome {
        match budget.try_consume_sized(bytes) {
            omn_sim::ByteConsume::SlotDenied => TransferOutcome::OverBudget,
            omn_sim::ByteConsume::ByteDenied => TransferOutcome::ByteDenied,
            omn_sim::ByteConsume::Granted => {
                if self.transfer_fails() {
                    TransferOutcome::Lost
                } else {
                    TransferOutcome::Sent
                }
            }
        }
    }

    /// Whether `node` is down at instant `at`. Always `false` without a
    /// plan.
    #[must_use]
    pub fn node_down(&self, node: NodeId, at: SimTime) -> bool {
        self.plan.as_ref().is_some_and(|p| p.node_down(node, at))
    }

    /// All rejoins within the source span, sorted (empty without a plan).
    /// Precomputed at plan build time; queries are allocation-free.
    #[must_use]
    pub fn rejoin_events(&self) -> &[Rejoin] {
        self.plan.as_ref().map_or(&[], FaultPlan::rejoin_events)
    }

    /// Draws whether the next successful data transfer is corrupted into a
    /// stale-version replay. Always `false` without a plan; consumes no
    /// randomness when corruption is zero.
    pub fn transfer_corrupts(&mut self) -> bool {
        self.plan.as_mut().is_some_and(FaultPlan::transfer_corrupts)
    }

    /// The permanently departed nodes (empty without a plan).
    #[must_use]
    pub fn departed(&self) -> &[NodeId] {
        self.plan.as_ref().map_or(&[], FaultPlan::departed)
    }

    /// The underlying fault plan, if one is active.
    #[must_use]
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Mutable access to the fault plan (e.g. so schemes can draw their own
    /// transfer-loss decisions through it).
    pub fn plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.plan.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::DowntimeConfig;
    use crate::synth::{generate_pairwise, PairwiseConfig};
    use omn_sim::SimDuration;

    fn trace(seed: u64) -> ContactTrace {
        let config = PairwiseConfig::new(10, SimDuration::from_days(1.0));
        generate_pairwise(&config, &RngFactory::new(seed))
    }

    /// Drains `driver`, checking the feed's index and peek contract, and
    /// returns every contact handed out.
    fn drain<S: ContactSource>(driver: &mut ContactDriver<S>) -> Vec<Contact> {
        let mut seen = Vec::new();
        while let Some(start) = driver.peek_start() {
            assert_eq!(driver.peek_start(), Some(start), "peeking twice pulls once");
            let (i, c) = driver
                .next_contact()
                .expect("a peeked contact is handed out");
            assert_eq!((i, c.start()), (seen.len(), start));
            seen.push(c);
        }
        assert_eq!(driver.next_contact(), None);
        seen
    }

    #[test]
    fn pull_feed_yields_the_trace_in_order() {
        let t = trace(8);
        let mut driver = ContactDriver::new(&t, None, &RngFactory::new(8));
        assert_eq!(driver.contacts_pulled(), 0);
        assert_eq!(drain(&mut driver), t.contacts());
        assert_eq!(driver.contacts_pulled(), t.len());
        // Only the current and next contacts are ever resident in the
        // driver's own window.
        assert!(driver.peak_resident() - t.len() <= 2);
    }

    #[test]
    fn driver_without_faults_is_transparent() {
        let t = trace(2);
        let mut driver = ContactDriver::new(&t, None, &RngFactory::new(2));
        for c in drain(&mut driver) {
            assert_eq!(driver.fate(&c), ContactFate::Deliverable);
        }
        assert!(!driver.transfer_fails());
        assert!(!driver.transfer_corrupts());
        assert!(driver.rejoin_events().is_empty());
        assert!(driver.departed().is_empty());
        assert!(driver.plan().is_none());
    }

    #[test]
    fn fate_is_down_exactly_when_an_endpoint_is_down() {
        let t = trace(3);
        let config = FaultConfig {
            downtime: Some(DowntimeConfig {
                node_fraction: 1.0,
                mean_uptime: SimDuration::from_hours(2.0),
                mean_downtime: SimDuration::from_hours(2.0),
                exempt: None,
            }),
            ..FaultConfig::default()
        };
        let mut driver = ContactDriver::new(&t, Some(config), &RngFactory::new(3));
        let mut down = 0;
        let mut deliverable = 0;
        while let Some((_, c)) = driver.next_contact() {
            let (a, b) = c.pair();
            let reference = driver.plan().expect("plan must exist");
            let fate = driver.fate(&c);
            if reference.node_down(a, c.start()) || reference.node_down(b, c.start()) {
                assert_eq!(fate, ContactFate::Down);
                down += 1;
            } else {
                assert_eq!(fate, ContactFate::Deliverable);
                deliverable += 1;
            }
        }
        assert!(down > 0, "full churn produced no downtime suppression");
        assert!(deliverable > 0, "no contact survived churn");
    }

    #[test]
    fn budgeted_transfer_checks_budget_before_loss_draw() {
        let t = trace(6);
        let config = FaultConfig {
            transmission_loss: 0.5,
            ..FaultConfig::default()
        };
        let mut d1 = ContactDriver::new(&t, Some(config), &RngFactory::new(6));
        let mut d2 = ContactDriver::new(&t, Some(config), &RngFactory::new(6));
        // d1: several attempts under a budget of 1 — only one real draw.
        let mut b = TransferBudget::capped(1);
        assert_ne!(d1.budgeted_transfer(&mut b), TransferOutcome::OverBudget);
        assert_eq!(d1.budgeted_transfer(&mut b), TransferOutcome::OverBudget);
        assert_eq!(d1.budgeted_transfer(&mut b), TransferOutcome::OverBudget);
        assert_eq!(b.used(), 1);
        // d2: one plain draw. The streams must stay aligned afterwards,
        // proving denied attempts consume no randomness.
        let _ = d2.transfer_fails();
        for _ in 0..64 {
            assert_eq!(d1.transfer_fails(), d2.transfer_fails());
        }
    }

    #[test]
    fn unlimited_budget_matches_plain_transfers() {
        let t = trace(7);
        let config = FaultConfig {
            transmission_loss: 0.3,
            ..FaultConfig::default()
        };
        let mut d1 = ContactDriver::new(&t, Some(config), &RngFactory::new(7));
        let mut d2 = ContactDriver::new(&t, Some(config), &RngFactory::new(7));
        let mut b = TransferBudget::unlimited();
        for _ in 0..64 {
            let outcome = d1.budgeted_transfer(&mut b);
            let failed = d2.transfer_fails();
            assert_eq!(outcome == TransferOutcome::Lost, failed);
        }
        assert_eq!(b.used(), 64);
    }

    #[test]
    fn byte_denied_transfer_consumes_no_randomness() {
        let t = trace(9);
        let config = FaultConfig {
            transmission_loss: 0.5,
            ..FaultConfig::default()
        };
        let mut d1 = ContactDriver::new(&t, Some(config), &RngFactory::new(9));
        let mut d2 = ContactDriver::new(&t, Some(config), &RngFactory::new(9));
        let mut b = TransferBudget::unlimited().with_byte_capacity(Some(100));
        // An oversized message is byte-denied without a loss draw.
        assert_eq!(
            d1.budgeted_transfer_sized(&mut b, 500),
            TransferOutcome::ByteDenied
        );
        assert_eq!(b.used(), 0);
        assert_eq!(b.bytes_used(), 0);
        // A fitting message draws; both streams stay aligned afterwards.
        let outcome = d1.budgeted_transfer_sized(&mut b, 80);
        let failed = d2.transfer_fails();
        assert_eq!(outcome == TransferOutcome::Lost, failed);
        assert_eq!(b.bytes_used(), 80);
        for _ in 0..64 {
            assert_eq!(d1.transfer_fails(), d2.transfer_fails());
        }
    }

    #[test]
    fn zero_size_sized_transfer_matches_unsized() {
        let t = trace(10);
        let config = FaultConfig {
            transmission_loss: 0.3,
            ..FaultConfig::default()
        };
        let mut d1 = ContactDriver::new(&t, Some(config), &RngFactory::new(10));
        let mut d2 = ContactDriver::new(&t, Some(config), &RngFactory::new(10));
        let mut b1 = TransferBudget::capped(4).with_byte_capacity(Some(0));
        let mut b2 = TransferBudget::capped(4);
        for _ in 0..8 {
            assert_eq!(
                d1.budgeted_transfer_sized(&mut b1, 0),
                d2.budgeted_transfer(&mut b2)
            );
        }
        assert_eq!(b1.used(), b2.used());
    }

    #[test]
    fn last_contact_start_and_empty_trace() {
        let t = trace(5);
        let driver = ContactDriver::new(&t, None, &RngFactory::new(5));
        assert_eq!(
            driver.last_contact_start(),
            Some(t.contacts().last().unwrap().start())
        );
        let empty = crate::TraceBuilder::new(3)
            .span(SimTime::from_hours(1.0))
            .build()
            .expect("empty trace builds");
        let d = ContactDriver::new(&empty, None, &RngFactory::new(5));
        assert_eq!(d.last_contact_start(), None);
    }

    /// A deliberately broken source that yields contacts in descending
    /// start order.
    struct Unsorted {
        left: Vec<Contact>,
    }

    impl ContactSource for Unsorted {
        fn node_count(&self) -> usize {
            3
        }
        fn span(&self) -> SimTime {
            SimTime::from_hours(1.0)
        }
        fn next_contact(&mut self) -> Option<Contact> {
            self.left.pop()
        }
        fn last_contact(&self) -> crate::source::LastContact {
            crate::source::LastContact::Unknown
        }
    }

    /// Drains a source whose second contact starts before its first.
    fn drain_unsorted_source() {
        let c = |s: f64| {
            Contact::new(
                NodeId(0),
                NodeId(1),
                SimTime::from_secs(s),
                SimTime::from_secs(s + 1.0),
            )
            .unwrap()
        };
        // pop() yields 30 then 10: out of order.
        let src = Unsorted {
            left: vec![c(10.0), c(30.0)],
        };
        let mut driver = ContactDriver::from_source(src, None, &RngFactory::new(1));
        drain(&mut driver);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out-of-order contact")]
    fn unsorted_source_is_rejected_in_debug_builds() {
        drain_unsorted_source();
    }

    #[cfg(not(debug_assertions))]
    #[test]
    #[should_panic(expected = "out-of-order contact")]
    fn unsorted_source_is_rejected_in_release_builds() {
        drain_unsorted_source();
    }

    #[test]
    fn streamed_unknown_length_source_reports_span_as_last_contact() {
        let src = Unsorted { left: Vec::new() };
        let driver = ContactDriver::from_source(src, None, &RngFactory::new(1));
        assert_eq!(driver.last_contact_start(), Some(SimTime::from_hours(1.0)));
    }
}
