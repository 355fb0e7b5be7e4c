//! Contact-trace containers.

use std::fmt;

use omn_sim::SimTime;

use crate::contact::{Contact, NodeId};

/// An immutable, validated contact trace.
///
/// Invariants: contacts are sorted by `(start, end, a, b)`; every endpoint id
/// is `< node_count`; the trace span covers every contact.
///
/// Build one with [`TraceBuilder`], a synthetic generator from
/// [`crate::synth`], or [`crate::io::read_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct ContactTrace {
    node_count: usize,
    span: SimTime,
    contacts: Vec<Contact>,
}

/// Error produced by [`TraceBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// A contact endpoint is `>= node_count`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The declared node count.
        node_count: usize,
    },
    /// A contact extends past the declared span.
    ContactPastSpan,
    /// The declared node count is zero.
    NoNodes,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NodeOutOfRange { node, node_count } => {
                write!(f, "contact endpoint {node} >= node count {node_count}")
            }
            TraceError::ContactPastSpan => write!(f, "contact extends past the trace span"),
            TraceError::NoNodes => write!(f, "trace must have at least one node"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Incremental builder for [`ContactTrace`].
///
/// # Example
///
/// ```
/// use omn_contacts::{Contact, NodeId, TraceBuilder};
/// use omn_sim::SimTime;
///
/// let trace = TraceBuilder::new(3)
///     .contact(Contact::new(NodeId(0), NodeId(1),
///         SimTime::from_secs(1.0), SimTime::from_secs(2.0))?)
///     .build()?;
/// assert_eq!(trace.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    node_count: usize,
    span: Option<SimTime>,
    contacts: Vec<Contact>,
}

impl TraceBuilder {
    /// Starts a builder for a trace over `node_count` nodes.
    #[must_use]
    pub fn new(node_count: usize) -> TraceBuilder {
        TraceBuilder {
            node_count,
            span: None,
            contacts: Vec::new(),
        }
    }

    /// Fixes the trace span explicitly. Without this the span is the end of
    /// the last contact.
    #[must_use]
    pub fn span(mut self, span: SimTime) -> TraceBuilder {
        self.span = Some(span);
        self
    }

    /// Adds one contact.
    #[must_use]
    pub fn contact(mut self, c: Contact) -> TraceBuilder {
        self.contacts.push(c);
        self
    }

    /// Adds many contacts.
    #[must_use]
    pub fn contacts<I: IntoIterator<Item = Contact>>(mut self, iter: I) -> TraceBuilder {
        self.contacts.extend(iter);
        self
    }

    /// Validates and builds the trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the node count is zero, an endpoint is out
    /// of range, or a contact extends past an explicitly set span.
    pub fn build(mut self) -> Result<ContactTrace, TraceError> {
        if self.node_count == 0 {
            return Err(TraceError::NoNodes);
        }
        let mut max_end = SimTime::ZERO;
        for c in &self.contacts {
            for node in [c.a(), c.b()] {
                if node.index() >= self.node_count {
                    return Err(TraceError::NodeOutOfRange {
                        node,
                        node_count: self.node_count,
                    });
                }
            }
            max_end = max_end.max(c.end());
        }
        let span = match self.span {
            Some(s) => {
                if max_end > s {
                    return Err(TraceError::ContactPastSpan);
                }
                s
            }
            None => max_end,
        };
        self.contacts
            .sort_by_key(|c| (c.start(), c.end(), c.pair()));
        Ok(ContactTrace {
            node_count: self.node_count,
            span,
            contacts: self.contacts,
        })
    }
}

impl ContactTrace {
    /// Number of nodes in the trace (ids are `0..node_count`).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All node ids in the trace.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId)
    }

    /// Total simulated span of the trace.
    #[must_use]
    pub fn span(&self) -> SimTime {
        self.span
    }

    /// The contacts, sorted by start time.
    #[must_use]
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Number of contacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    /// True if there are no contacts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// The sub-trace overlapping `[from, to)`, clipped to that window and
    /// shifted so the window start becomes time zero.
    #[must_use]
    pub fn window(&self, from: SimTime, to: SimTime) -> ContactTrace {
        let to = to.min(self.span);
        let shift = from;
        let contacts: Vec<Contact> = self
            .contacts
            .iter()
            .filter_map(|c| c.clip(from, to))
            .map(|c| {
                Contact::new(
                    c.a(),
                    c.b(),
                    SimTime::ZERO + c.start().saturating_since(shift),
                    SimTime::ZERO + c.end().saturating_since(shift),
                )
                .expect("clipped contact stays valid")
            })
            .collect();
        ContactTrace {
            node_count: self.node_count,
            span: SimTime::ZERO + to.saturating_since(from),
            contacts,
        }
    }

    /// Returns a copy with all times multiplied by `factor` (e.g. to
    /// compress a multi-month trace into a tractable simulation).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    #[must_use]
    pub fn scale_time(&self, factor: f64) -> ContactTrace {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale_time: factor must be positive and finite"
        );
        let contacts = self
            .contacts
            .iter()
            .map(|c| {
                Contact::new(
                    c.a(),
                    c.b(),
                    SimTime::from_secs(c.start().as_secs() * factor),
                    SimTime::from_secs(c.end().as_secs() * factor),
                )
                .expect("scaling preserves validity")
            })
            .collect();
        ContactTrace {
            node_count: self.node_count,
            span: SimTime::from_secs(self.span.as_secs() * factor),
            contacts,
        }
    }

    /// Contacts involving a particular node, in time order.
    pub fn contacts_of(&self, node: NodeId) -> impl Iterator<Item = &Contact> {
        self.contacts.iter().filter(move |c| c.involves(node))
    }

    /// Number of contacts between a specific pair.
    #[must_use]
    pub fn pair_contact_count(&self, x: NodeId, y: NodeId) -> usize {
        let (a, b) = if x < y { (x, y) } else { (y, x) };
        self.contacts.iter().filter(|c| c.pair() == (a, b)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn c(a: u32, b: u32, s: f64, e: f64) -> Contact {
        Contact::new(NodeId(a), NodeId(b), t(s), t(e)).unwrap()
    }

    #[test]
    fn builder_sorts_contacts() {
        let trace = TraceBuilder::new(4)
            .contact(c(0, 1, 5.0, 6.0))
            .contact(c(2, 3, 1.0, 2.0))
            .build()
            .unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.contacts()[0].start(), t(1.0));
        assert_eq!(trace.span(), t(6.0));
        assert_eq!(trace.node_count(), 4);
        assert_eq!(trace.nodes().count(), 4);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let err = TraceBuilder::new(2)
            .contact(c(0, 5, 0.0, 1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, TraceError::NodeOutOfRange { .. }));
    }

    #[test]
    fn builder_rejects_contact_past_span() {
        let err = TraceBuilder::new(3)
            .span(t(1.0))
            .contact(c(0, 1, 0.0, 2.0))
            .build()
            .unwrap_err();
        assert_eq!(err, TraceError::ContactPastSpan);
    }

    #[test]
    fn builder_rejects_zero_nodes() {
        assert_eq!(
            TraceBuilder::new(0).build().unwrap_err(),
            TraceError::NoNodes
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = TraceBuilder::new(3).span(t(10.0)).build().unwrap();
        assert!(trace.is_empty());
        assert_eq!(trace.span(), t(10.0));
    }

    #[test]
    fn windowing_clips_and_shifts() {
        let trace = TraceBuilder::new(3)
            .contact(c(0, 1, 0.0, 4.0))
            .contact(c(1, 2, 8.0, 9.0))
            .build()
            .unwrap();
        let w = trace.window(t(2.0), t(8.5));
        assert_eq!(w.len(), 2);
        assert_eq!(w.contacts()[0].start(), t(0.0));
        assert_eq!(w.contacts()[0].end(), t(2.0));
        assert_eq!(w.contacts()[1].start(), t(6.0));
        assert_eq!(w.contacts()[1].end(), t(6.5));
        assert_eq!(w.span(), t(6.5));
    }

    #[test]
    fn scaling_scales_everything() {
        let trace = TraceBuilder::new(2)
            .contact(c(0, 1, 1.0, 2.0))
            .build()
            .unwrap();
        let s = trace.scale_time(10.0);
        assert_eq!(s.contacts()[0].start(), t(10.0));
        assert_eq!(s.contacts()[0].end(), t(20.0));
        assert_eq!(s.span(), t(20.0));
    }

    #[test]
    fn per_node_and_per_pair_queries() {
        let trace = TraceBuilder::new(3)
            .contact(c(0, 1, 0.0, 1.0))
            .contact(c(0, 1, 2.0, 3.0))
            .contact(c(0, 2, 4.0, 5.0))
            .build()
            .unwrap();
        assert_eq!(trace.contacts_of(NodeId(0)).count(), 3);
        assert_eq!(trace.contacts_of(NodeId(2)).count(), 1);
        assert_eq!(trace.pair_contact_count(NodeId(1), NodeId(0)), 2);
        assert_eq!(trace.pair_contact_count(NodeId(1), NodeId(2)), 0);
    }
}
