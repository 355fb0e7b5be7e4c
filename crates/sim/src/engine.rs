//! The simulation engine: a virtual clock driving an event queue.

use crate::queue::{EventClass, EventQueue};
use crate::time::{SimDuration, SimTime};

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
/// use omn_sim::{Engine, SimDuration};
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_secs(1.0), 0u32);
/// let mut fired = 0;
/// while let Some(ev) = engine.next_event() {
///     fired += 1;
///     if ev.payload < 3 {
///         engine.schedule_in(SimDuration::from_secs(1.0), ev.payload + 1);
///     }
/// }
/// assert_eq!(fired, 4);
/// ```
///
/// An optional *horizon* bounds the run: events strictly after the horizon
/// stay in the queue and [`Engine::next_event`] returns `None` once only such
/// events remain (the clock is advanced to the horizon in that case).
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: Option<SimTime>,
}

impl<E> Default for Engine<E> {
    fn default() -> Engine<E> {
        Engine::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`] and no horizon.
    #[must_use]
    pub fn new() -> Engine<E> {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: None,
        }
    }

    /// Creates an engine that will not deliver events after `horizon`.
    #[must_use]
    pub fn with_horizon(horizon: SimTime) -> Engine<E> {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: Some(horizon),
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured horizon, if any.
    #[must_use]
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// Sets (or clears) the horizon.
    pub fn set_horizon(&mut self, horizon: Option<SimTime>) {
        self.horizon = horizon;
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
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

    /// Schedules `payload` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        let at = self.now + delay;
        self.queue.schedule(at, payload);
    }

    /// Schedules `payload` after a relative delay in the given delivery
    /// class.
    pub fn schedule_in_class(&mut self, delay: SimDuration, class: EventClass, payload: E) {
        let at = self.now + delay;
        self.queue.schedule_with_class(at, class, payload);
    }

    /// The time of the next deliverable event, if one exists within the
    /// horizon.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let t = self.queue.peek_time()?;
        match self.horizon {
            Some(h) if t > h => None,
            _ => Some(t),
        }
    }

    /// Delivers the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted or when every remaining
    /// event lies beyond the horizon; in the latter case the clock is
    /// advanced to the horizon so that `now()` reports the full simulated
    /// span.
    pub fn next_event(&mut self) -> Option<ScheduledEvent<E>> {
        let t = self.queue.peek_time()?;
        if let Some(h) = self.horizon.filter(|&h| t > h) {
            self.now = self.now.max(h);
            return None;
        }
        self.deliver()
    }

    /// Delivers the next event at or before `bound`, advancing the clock to
    /// its timestamp.
    ///
    /// This is the window-barrier stepping primitive for sharded runs: a
    /// sub-engine is drained `while let Some(ev) = e.next_event_through(to)`
    /// inside each synchronization window. Returns `None` once every
    /// remaining event lies strictly after `bound` (or after the horizon);
    /// the clock then advances to `bound` — clamped to the horizon — so the
    /// engine stands exactly at the barrier and follow-up events scheduled
    /// from the next window can never be in its past.
    pub fn next_event_through(&mut self, bound: SimTime) -> Option<ScheduledEvent<E>> {
        let limit = match self.horizon {
            Some(h) => h.min(bound),
            None => bound,
        };
        match self.queue.peek_time() {
            Some(t) if t <= limit => self.deliver(),
            _ => {
                self.now = self.now.max(limit);
                None
            }
        }
    }

    /// Pops the next event and advances the clock to its timestamp.
    fn deliver(&mut self) -> Option<ScheduledEvent<E>> {
        let (time, payload) = self.queue.pop()?;
        self.now = time;
        Some(ScheduledEvent { time, payload })
    }

    /// Runs the simulation to completion (or to the horizon), invoking
    /// `handler` for each event. The handler receives the engine so it can
    /// schedule follow-up events.
    pub fn run<F>(mut self, mut handler: F) -> SimTime
    where
        F: FnMut(&mut Engine<E>, ScheduledEvent<E>),
    {
        while let Some(ev) = self.next_event() {
            handler(&mut self, ev);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn d(secs: f64) -> SimDuration {
        SimDuration::from_secs(secs)
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
    #[should_panic(expected = "before now")]
    fn scheduling_in_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(t(5.0), ());
        e.next_event();
        e.schedule_at(t(1.0), ());
    }

    #[test]
    fn horizon_stops_delivery_and_advances_clock() {
        let mut e = Engine::with_horizon(t(10.0));
        e.schedule_at(t(5.0), 1);
        e.schedule_at(t(15.0), 2);
        assert_eq!(e.next_event().map(|ev| ev.payload), Some(1));
        assert!(e.next_event().is_none());
        assert_eq!(e.now(), t(10.0));
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn peek_respects_horizon() {
        let mut e = Engine::with_horizon(t(1.0));
        e.schedule_at(t(2.0), ());
        assert_eq!(e.peek_time(), None);
        e.set_horizon(None);
        assert_eq!(e.peek_time(), Some(t(2.0)));
    }

    #[test]
    fn run_loop_with_rescheduling() {
        let mut e = Engine::new();
        e.schedule_in(d(1.0), 0u32);
        let mut count = 0;
        let end = e.run(|engine, ev| {
            count += 1;
            if ev.payload < 4 {
                engine.schedule_in(d(1.0), ev.payload + 1);
            }
        });
        assert_eq!(count, 5);
        assert_eq!(end, t(5.0));
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
    fn next_event_through_stops_at_the_barrier() {
        let mut e = Engine::new();
        e.schedule_at(t(1.0), "a");
        e.schedule_at(t(5.0), "b");
        e.schedule_at(t(5.0), "c");
        e.schedule_at(t(9.0), "d");
        let mut first = Vec::new();
        while let Some(ev) = e.next_event_through(t(5.0)) {
            first.push(ev.payload);
        }
        assert_eq!(first, ["a", "b", "c"]);
        assert_eq!(e.now(), t(5.0));
        assert_eq!(e.pending(), 1);
        // The next window picks up exactly where the barrier left off.
        assert_eq!(
            e.next_event_through(t(10.0)).map(|ev| ev.payload),
            Some("d")
        );
        assert!(e.next_event_through(t(10.0)).is_none());
        assert_eq!(e.now(), t(10.0));
    }

    #[test]
    fn next_event_through_respects_horizon() {
        let mut e = Engine::with_horizon(t(4.0));
        e.schedule_at(t(3.0), 1);
        e.schedule_at(t(6.0), 2);
        assert_eq!(e.next_event_through(t(10.0)).map(|ev| ev.payload), Some(1));
        // The barrier is clamped to the horizon: the t=6 event stays
        // pending and the clock stops at the horizon, not the bound.
        assert!(e.next_event_through(t(10.0)).is_none());
        assert_eq!(e.now(), t(4.0));
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn classes_order_delivery_at_equal_times() {
        let mut e = Engine::new();
        e.schedule_at_class(t(1.0), EventClass(60), "contact");
        e.schedule_at_class(t(1.0), EventClass(10), "birth");
        e.schedule_in_class(SimDuration::from_secs(1.0), EventClass(30), "expiry");
        assert_eq!(e.next_event().unwrap().payload, "birth");
        assert_eq!(e.next_event().unwrap().payload, "expiry");
        assert_eq!(e.next_event().unwrap().payload, "contact");
    }
}
