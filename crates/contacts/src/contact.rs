//! Node identifiers and validated contact intervals.

use std::fmt;

use omn_sim::{SimDuration, SimTime};

/// Identifier of a mobile node.
///
/// Node ids are dense indices `0..node_count`, which lets per-node state be
/// stored in flat vectors throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> NodeId {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Error produced when constructing an invalid [`Contact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactError {
    /// The two endpoints are the same node.
    SelfContact,
    /// The interval is empty or inverted (`end <= start`).
    EmptyInterval,
}

impl fmt::Display for ContactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContactError::SelfContact => write!(f, "contact endpoints are the same node"),
            ContactError::EmptyInterval => write!(f, "contact interval is empty or inverted"),
        }
    }
}

impl std::error::Error for ContactError {}

/// A contact: an interval `[start, end)` during which nodes `a` and `b` are
/// within communication range.
///
/// Invariants, enforced on construction: `a < b` (endpoints are normalized,
/// contacts are undirected) and `start < end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contact {
    a: NodeId,
    b: NodeId,
    start: SimTime,
    end: SimTime,
}

impl Contact {
    /// Creates a contact, normalizing the endpoint order.
    ///
    /// # Errors
    ///
    /// Returns [`ContactError::SelfContact`] if `x == y` and
    /// [`ContactError::EmptyInterval`] if `end <= start`.
    pub fn new(
        x: NodeId,
        y: NodeId,
        start: SimTime,
        end: SimTime,
    ) -> Result<Contact, ContactError> {
        if x == y {
            return Err(ContactError::SelfContact);
        }
        if end <= start {
            return Err(ContactError::EmptyInterval);
        }
        let (a, b) = if x < y { (x, y) } else { (y, x) };
        Ok(Contact { a, b, start, end })
    }

    /// The smaller endpoint.
    #[must_use]
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// The larger endpoint.
    #[must_use]
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// Both endpoints as `(a, b)` with `a < b`.
    #[must_use]
    pub fn pair(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// Start of the contact interval.
    #[must_use]
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// End of the contact interval.
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Length of the contact.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// True if the contact involves `node`.
    #[must_use]
    pub fn involves(&self, node: NodeId) -> bool {
        self.a == node || self.b == node
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of this contact.
    #[must_use]
    pub fn peer_of(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("Contact::peer_of: {node} is not an endpoint of {self:?}")
        }
    }

    /// True if the contact interval contains instant `t`.
    #[must_use]
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// True if this contact overlaps interval `[from, to)`.
    #[must_use]
    pub fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.start < to && from < self.end
    }

    /// Clips the contact to `[from, to)`, returning `None` if nothing
    /// remains.
    #[must_use]
    pub fn clip(&self, from: SimTime, to: SimTime) -> Option<Contact> {
        let start = self.start.max(from);
        let end = self.end.min(to);
        (start < end).then_some(Contact {
            a: self.a,
            b: self.b,
            start,
            end,
        })
    }
}

impl fmt::Display for Contact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{} [{}, {})", self.a, self.b, self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn normalizes_endpoint_order() {
        let c = Contact::new(NodeId(5), NodeId(2), t(0.0), t(1.0)).unwrap();
        assert_eq!(c.pair(), (NodeId(2), NodeId(5)));
        assert_eq!(c.a(), NodeId(2));
        assert_eq!(c.b(), NodeId(5));
    }

    #[test]
    fn rejects_self_contact() {
        assert_eq!(
            Contact::new(NodeId(1), NodeId(1), t(0.0), t(1.0)),
            Err(ContactError::SelfContact)
        );
    }

    #[test]
    fn rejects_empty_interval() {
        assert_eq!(
            Contact::new(NodeId(1), NodeId(2), t(1.0), t(1.0)),
            Err(ContactError::EmptyInterval)
        );
        assert_eq!(
            Contact::new(NodeId(1), NodeId(2), t(2.0), t(1.0)),
            Err(ContactError::EmptyInterval)
        );
    }

    #[test]
    fn duration_and_membership() {
        let c = Contact::new(NodeId(0), NodeId(1), t(2.0), t(5.0)).unwrap();
        assert_eq!(c.duration(), SimDuration::from_secs(3.0));
        assert!(c.involves(NodeId(0)));
        assert!(!c.involves(NodeId(2)));
        assert_eq!(c.peer_of(NodeId(0)), NodeId(1));
        assert_eq!(c.peer_of(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn peer_of_non_member_panics() {
        let c = Contact::new(NodeId(0), NodeId(1), t(0.0), t(1.0)).unwrap();
        let _ = c.peer_of(NodeId(9));
    }

    #[test]
    fn interval_predicates() {
        let c = Contact::new(NodeId(0), NodeId(1), t(2.0), t(5.0)).unwrap();
        assert!(c.contains(t(2.0)));
        assert!(c.contains(t(4.9)));
        assert!(!c.contains(t(5.0)));
        assert!(c.overlaps(t(0.0), t(3.0)));
        assert!(c.overlaps(t(4.0), t(9.0)));
        assert!(!c.overlaps(t(5.0), t(9.0)));
        assert!(!c.overlaps(t(0.0), t(2.0)));
    }

    #[test]
    fn clipping() {
        let c = Contact::new(NodeId(0), NodeId(1), t(2.0), t(5.0)).unwrap();
        let clipped = c.clip(t(3.0), t(4.0)).unwrap();
        assert_eq!(clipped.start(), t(3.0));
        assert_eq!(clipped.end(), t(4.0));
        assert_eq!(c.clip(t(5.0), t(9.0)), None);
        assert_eq!(c.clip(t(0.0), t(2.0)), None);
        // Clip fully containing the contact is identity.
        assert_eq!(c.clip(t(0.0), t(10.0)), Some(c));
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).index(), 3);
        assert_eq!(NodeId::from(7u32), NodeId(7));
    }
}
