//! Streaming contact sources.
//!
//! A [`ContactSource`] yields contacts one at a time in nondecreasing
//! `(start, end, pair)` order — the same total order a materialized
//! [`ContactTrace`] stores its contacts in. The
//! [`ContactDriver`](crate::ContactDriver) pulls from a source lazily, one
//! contact ahead of the simulation loop, so only O(1) contacts are
//! resident at once regardless of how many the source will ever produce.
//!
//! Two classes of sources exist:
//!
//! * [`TraceSource`] — a cursor over a materialized trace. Everything is
//!   already in memory, so `last_contact` is [`LastContact::Known`] and
//!   `resident_hint` reports the full trace length.
//! * streaming generators (e.g.
//!   [`ShardedCommunitySource`](crate::synth::sharded::ShardedCommunitySource))
//!   and file readers ([`io::StreamingTraceSource`](crate::io)) — contacts are
//!   produced on demand; the time of the final contact is
//!   [`LastContact::Unknown`] until the stream is exhausted.

use omn_sim::SimTime;

use crate::contact::Contact;
use crate::trace::ContactTrace;

/// What a source knows up front about the start time of its final contact.
///
/// Consumers use the last contact start to gate timers (queries, expiries,
/// rejoins) to the portion of the span where contacts still happen. A
/// materialized trace knows this exactly; a streaming source generally does
/// not until it is exhausted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LastContact {
    /// The source knows its final contact start time up front.
    /// `Known(None)` means the source is empty: it will never yield a
    /// contact.
    Known(Option<SimTime>),
    /// The source cannot know until the stream is exhausted. Consumers
    /// should fall back to the span as a conservative bound.
    Unknown,
}

/// An ordered stream of contacts over a fixed node population and span.
///
/// # Contract
///
/// * `next_contact` yields contacts in nondecreasing `(start, end, pair)`
///   order — the [`TraceBuilder`](crate::TraceBuilder) sort key. The driver
///   debug-asserts this in debug builds.
/// * Every contact's endpoints are `< node_count()` and its interval lies
///   within `[0, span()]`.
/// * Once `next_contact` returns `None` it keeps returning `None`.
pub trait ContactSource {
    /// Number of nodes (ids are `0..node_count`).
    fn node_count(&self) -> usize;

    /// Total simulated span.
    fn span(&self) -> SimTime;

    /// Pulls the next contact, or `None` when the stream is exhausted.
    fn next_contact(&mut self) -> Option<Contact>;

    /// Start time of the final contact, if the source knows it up front.
    fn last_contact(&self) -> LastContact;

    /// Approximate number of contacts this source keeps resident in memory
    /// (buffered, pre-generated, or materialized). Used for peak-memory
    /// reporting; `0` for fully incremental sources.
    fn resident_hint(&self) -> usize {
        0
    }
}

/// A [`ContactSource`] cursor over a materialized [`ContactTrace`].
#[derive(Debug, Clone)]
pub struct TraceSource<'a> {
    trace: &'a ContactTrace,
    next: usize,
}

impl<'a> TraceSource<'a> {
    /// Starts a cursor at the beginning of the trace.
    #[must_use]
    pub fn new(trace: &'a ContactTrace) -> TraceSource<'a> {
        TraceSource { trace, next: 0 }
    }
}

impl ContactSource for TraceSource<'_> {
    fn node_count(&self) -> usize {
        self.trace.node_count()
    }

    fn span(&self) -> SimTime {
        self.trace.span()
    }

    fn next_contact(&mut self) -> Option<Contact> {
        let c = self.trace.contacts().get(self.next).copied();
        if c.is_some() {
            self.next += 1;
        }
        c
    }

    fn last_contact(&self) -> LastContact {
        LastContact::Known(self.trace.contacts().last().map(Contact::start))
    }

    fn resident_hint(&self) -> usize {
        self.trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::NodeId;
    use crate::trace::TraceBuilder;

    fn small_trace() -> ContactTrace {
        TraceBuilder::new(3)
            .span(SimTime::from_secs(100.0))
            .contact(
                Contact::new(
                    NodeId(0),
                    NodeId(1),
                    SimTime::from_secs(5.0),
                    SimTime::from_secs(9.0),
                )
                .unwrap(),
            )
            .contact(
                Contact::new(
                    NodeId(1),
                    NodeId(2),
                    SimTime::from_secs(2.0),
                    SimTime::from_secs(4.0),
                )
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn trace_source_streams_in_trace_order() {
        let trace = small_trace();
        let mut src = TraceSource::new(&trace);
        assert_eq!(src.node_count(), 3);
        assert_eq!(src.span(), SimTime::from_secs(100.0));
        let streamed: Vec<Contact> = std::iter::from_fn(|| src.next_contact()).collect();
        assert_eq!(streamed, trace.contacts());
        assert_eq!(src.next_contact(), None, "stays exhausted");
    }

    #[test]
    fn trace_source_knows_its_last_contact() {
        let trace = small_trace();
        let src = TraceSource::new(&trace);
        assert_eq!(
            src.last_contact(),
            LastContact::Known(Some(SimTime::from_secs(5.0)))
        );
        assert_eq!(src.resident_hint(), 2);

        let empty = TraceBuilder::new(2)
            .span(SimTime::from_secs(10.0))
            .build()
            .unwrap();
        let src = TraceSource::new(&empty);
        assert_eq!(src.last_contact(), LastContact::Known(None));
    }
}
