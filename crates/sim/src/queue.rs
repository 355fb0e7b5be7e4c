//! A deterministic event queue.
//!
//! Events scheduled at equal times are delivered by ascending
//! [`EventClass`], then in scheduling order (FIFO), which keeps simulations
//! reproducible regardless of heap internals. Each heap entry carries its
//! payload; entries are ordered on `(time, class, seq)` alone, and `seq` is
//! unique per queue, so the delivery order is total and never consults the
//! payload.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A delivery-priority class for events that share a timestamp.
///
/// When several events are scheduled at the same instant, the queue delivers
/// them by ascending class first and scheduling order (FIFO) second. This
/// lets a simulator encode its causal conventions at a shared timestamp —
/// e.g. "data births precede queries precede contacts" — without relying on
/// the order in which it happened to enqueue them.
///
/// Classes are plain bytes; smaller fires earlier. Events scheduled without
/// an explicit class get [`EventClass::DEFAULT`] (the midpoint, 128), so
/// class-annotated events can be ordered both before and after legacy ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventClass(pub u8);

impl EventClass {
    /// The class used by [`EventQueue::schedule`]: the midpoint `128`.
    pub const DEFAULT: EventClass = EventClass(128);
}

impl Default for EventClass {
    fn default() -> EventClass {
        EventClass::DEFAULT
    }
}

/// A scheduled event: its ordering key and its payload.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    class: EventClass,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    // Lexicographic (time, class, seq): time-ordered delivery with class
    // priority and FIFO tie-breaking at equal (time, class).
    fn key(&self) -> (SimTime, EventClass, u64) {
        (self.time, self.class, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Entry<E>) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Entry<E>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Entry<E>) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A priority queue of timestamped events with deterministic
/// class-then-FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use omn_sim::{EventClass, EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), "late");
/// q.schedule(SimTime::from_secs(1.0), "default");
/// q.schedule_with_class(SimTime::from_secs(1.0), EventClass(0), "urgent");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "urgent")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "default")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time` with [`EventClass::DEFAULT`].
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        self.schedule_with_class(time, EventClass::DEFAULT, payload);
    }

    /// Schedules `payload` at `time` in the given delivery class.
    ///
    /// At equal timestamps, events fire by ascending class, then FIFO.
    pub fn schedule_with_class(&mut self, time: SimTime, class: EventClass, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time,
            class,
            seq,
            payload,
        }));
    }

    /// Removes and returns the next event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }

    /// Removes and returns the next event only if its `(time, class)`
    /// orders strictly before `(time, class)` given here.
    pub(crate) fn pop_before(&mut self, time: SimTime, class: EventClass) -> Option<(SimTime, E)> {
        let Reverse(next) = self.heap.peek()?;
        if (next.time, next.class) < (time, class) {
            self.pop()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5.0), i)));
        }
    }

    #[test]
    fn classes_order_events_at_equal_times() {
        let mut q = EventQueue::new();
        // Scheduled out of class order at the same instant.
        q.schedule_with_class(t(1.0), EventClass(60), "contact");
        q.schedule_with_class(t(1.0), EventClass(10), "birth");
        q.schedule_with_class(t(1.0), EventClass(20), "query");
        assert_eq!(q.pop(), Some((t(1.0), "birth")));
        assert_eq!(q.pop(), Some((t(1.0), "query")));
        assert_eq!(q.pop(), Some((t(1.0), "contact")));
    }

    #[test]
    fn time_dominates_class() {
        let mut q = EventQueue::new();
        q.schedule_with_class(t(2.0), EventClass(0), "later");
        q.schedule_with_class(t(1.0), EventClass(255), "earlier");
        assert_eq!(q.pop(), Some((t(1.0), "earlier")));
        assert_eq!(q.pop(), Some((t(2.0), "later")));
    }

    #[test]
    fn equal_time_and_class_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule_with_class(t(3.0), EventClass(7), i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((t(3.0), i)));
        }
    }

    #[test]
    fn default_class_is_midpoint() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "default");
        q.schedule_with_class(t(1.0), EventClass(129), "after");
        q.schedule_with_class(t(1.0), EventClass(127), "before");
        assert_eq!(EventClass::default(), EventClass::DEFAULT);
        assert_eq!(q.pop(), Some((t(1.0), "before")));
        assert_eq!(q.pop(), Some((t(1.0), "default")));
        assert_eq!(q.pop(), Some((t(1.0), "after")));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "a");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        q.schedule(t(0.5), "b");
        q.schedule(t(0.5), "c");
        assert_eq!(q.pop(), Some((t(0.5), "b")));
        assert_eq!(q.pop(), Some((t(0.5), "c")));
    }
}
