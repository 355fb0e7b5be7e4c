//! The simulation engine: a virtual clock driving an event queue.

use crate::queue::{EventClass, EventQueue};
use crate::time::SimTime;

/// An event delivered by [`Engine::next_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The virtual time at which the event fires (equal to `engine.now()`
    /// right after delivery).
    pub time: SimTime,
    /// The event payload.
    pub payload: E,
}

/// A discrete-event simulation engine.
///
/// The engine owns the virtual clock and an [`EventQueue`]. Simulations are
/// driven by an explicit loop so that handlers can freely schedule follow-up
/// events on the engine they hold:
///
/// ```
/// use omn_sim::{Engine, SimDuration, SimTime};
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::from_secs(1.0), 0u32);
/// let mut fired = 0;
/// while let Some(ev) = engine.next_event() {
///     fired += 1;
///     if ev.payload < 3 {
///         engine.schedule_at(ev.time + SimDuration::from_secs(1.0), ev.payload + 1);
///     }
/// }
/// assert_eq!(fired, 4);
/// assert_eq!(engine.now(), SimTime::from_secs(4.0));
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Engine<E> {
    fn default() -> Engine<E> {
        Engine::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Engine<E> {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time: delivering events in the
    /// past would violate causality.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "Engine::schedule_at: {at} is before now ({})",
            self.now
        );
        self.queue.schedule(at, payload);
    }

    /// Schedules `payload` at absolute time `at` in the given delivery
    /// class. At equal timestamps, events fire by ascending
    /// [`EventClass`], then FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_at_class(&mut self, at: SimTime, class: EventClass, payload: E) {
        assert!(
            at >= self.now,
            "Engine::schedule_at_class: {at} is before now ({})",
            self.now
        );
        self.queue.schedule_with_class(at, class, payload);
    }

    /// Delivers the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn next_event(&mut self) -> Option<ScheduledEvent<E>> {
        let (time, payload) = self.queue.pop()?;
        self.now = time;
        Some(ScheduledEvent { time, payload })
    }

    /// Delivers the next event only if it orders strictly before an event
    /// at `(at, class)`: earlier than `at`, or at `at` in a lower class.
    ///
    /// This merges the queue with an external stream kept in the same
    /// order: with the stream's next item at `(at, class)`, a loop that
    /// takes this event when there is one and the stream's item otherwise
    /// delivers exactly what one queue holding both would, given that the
    /// stream's item was enqueued before any equal `(time, class)` event.
    /// The clock advances only with delivered events.
    pub fn next_event_before(
        &mut self,
        at: SimTime,
        class: EventClass,
    ) -> Option<ScheduledEvent<E>> {
        let (time, payload) = self.queue.pop_before(at, class)?;
        self.now = time;
        Some(ScheduledEvent { time, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn clock_advances_with_events() {
        let mut e = Engine::new();
        e.schedule_at(t(5.0), "a");
        e.schedule_at(t(2.0), "b");
        let ev = e.next_event().unwrap();
        assert_eq!(ev.time, t(2.0));
        assert_eq!(e.now(), t(2.0));
        let ev = e.next_event().unwrap();
        assert_eq!(ev.payload, "a");
        assert_eq!(e.now(), t(5.0));
        assert!(e.next_event().is_none());
    }

    #[test]
    fn run_loop_with_rescheduling() {
        let mut e = Engine::new();
        e.schedule_at(t(1.0), 0u32);
        let mut count = 0;
        while let Some(ev) = e.next_event() {
            count += 1;
            if ev.payload < 4 {
                e.schedule_at(e.now() + SimDuration::from_secs(1.0), ev.payload + 1);
            }
        }
        assert_eq!(count, 5);
        assert_eq!(e.now(), t(5.0));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(t(5.0), ());
        e.next_event();
        e.schedule_at(t(1.0), ());
    }

    #[test]
    fn deterministic_order_at_same_time() {
        let mut e = Engine::new();
        e.schedule_at(t(1.0), "first");
        e.schedule_at(t(1.0), "second");
        assert_eq!(e.next_event().unwrap().payload, "first");
        assert_eq!(e.next_event().unwrap().payload, "second");
    }

    #[test]
    fn classes_order_delivery_at_equal_times() {
        let mut e = Engine::new();
        e.schedule_at_class(t(1.0), EventClass(60), "contact");
        e.schedule_at_class(t(1.0), EventClass(10), "birth");
        e.schedule_at_class(t(1.0), EventClass(30), "expiry");
        assert_eq!(e.next_event().unwrap().payload, "birth");
        assert_eq!(e.next_event().unwrap().payload, "expiry");
        assert_eq!(e.next_event().unwrap().payload, "contact");
    }

    #[test]
    fn next_event_before_stops_at_the_bound() {
        let mut e = Engine::new();
        e.schedule_at_class(t(1.0), EventClass(10), "early");
        e.schedule_at_class(t(2.0), EventClass(10), "same-instant-below");
        e.schedule_at_class(t(2.0), EventClass(60), "same-key");
        e.schedule_at_class(t(2.0), EventClass(200), "same-instant-above");
        let bound = (t(2.0), EventClass(60));
        assert_eq!(
            e.next_event_before(bound.0, bound.1).unwrap().payload,
            "early"
        );
        let ev = e.next_event_before(bound.0, bound.1).unwrap();
        assert_eq!(ev.payload, "same-instant-below");
        assert_eq!(e.now(), t(2.0));
        assert!(e.next_event_before(bound.0, bound.1).is_none());
        assert_eq!(e.next_event().unwrap().payload, "same-key");
        assert_eq!(e.next_event().unwrap().payload, "same-instant-above");
    }
}
