//! Unicast messages.

use std::fmt;

use omn_contacts::NodeId;
use omn_sim::{SimDuration, SimTime};

/// Unique identifier of a unicast message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An immutable unicast message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    id: MessageId,
    src: NodeId,
    dst: NodeId,
    size: u64,
    created: SimTime,
    ttl: Option<SimDuration>,
}

impl Message {
    /// Creates a message.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or `size == 0`.
    #[must_use]
    pub fn new(
        id: MessageId,
        src: NodeId,
        dst: NodeId,
        size: u64,
        created: SimTime,
        ttl: Option<SimDuration>,
    ) -> Message {
        assert!(src != dst, "Message::new: src == dst");
        assert!(size > 0, "Message::new: zero size");
        Message {
            id,
            src,
            dst,
            size,
            created,
            ttl,
        }
    }

    /// The message id.
    #[must_use]
    pub fn id(&self) -> MessageId {
        self.id
    }

    /// The originating node.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The destination node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Payload size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Creation time.
    #[must_use]
    pub fn created(&self) -> SimTime {
        self.created
    }

    /// Time-to-live, if bounded.
    #[must_use]
    pub fn ttl(&self) -> Option<SimDuration> {
        self.ttl
    }

    /// True if the message has expired at `now`.
    #[must_use]
    pub fn is_expired(&self, now: SimTime) -> bool {
        match self.ttl {
            Some(ttl) => now.saturating_since(self.created) > ttl,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn accessors() {
        let m = Message::new(
            MessageId(1),
            NodeId(0),
            NodeId(5),
            1024,
            t(10.0),
            Some(SimDuration::from_secs(100.0)),
        );
        assert_eq!(m.id(), MessageId(1));
        assert_eq!(m.src(), NodeId(0));
        assert_eq!(m.dst(), NodeId(5));
        assert_eq!(m.size(), 1024);
        assert_eq!(m.created(), t(10.0));
        assert_eq!(m.id().to_string(), "m1");
    }

    #[test]
    fn expiry() {
        let m = Message::new(
            MessageId(1),
            NodeId(0),
            NodeId(1),
            1,
            t(10.0),
            Some(SimDuration::from_secs(100.0)),
        );
        assert!(!m.is_expired(t(10.0)));
        assert!(!m.is_expired(t(110.0)));
        assert!(m.is_expired(t(110.1)));
        let eternal = Message::new(MessageId(2), NodeId(0), NodeId(1), 1, t(0.0), None);
        assert!(!eternal.is_expired(t(1e9)));
    }

    #[test]
    #[should_panic(expected = "src == dst")]
    fn rejects_self_message() {
        let _ = Message::new(MessageId(1), NodeId(3), NodeId(3), 1, t(0.0), None);
    }

    #[test]
    #[should_panic(expected = "zero size")]
    fn rejects_zero_size() {
        let _ = Message::new(MessageId(1), NodeId(0), NodeId(1), 0, t(0.0), None);
    }
}
