//! Layer wrappers: [`TimedSource`] around a [`ContactSource`] (the
//! `omn-contacts` layer) and [`TimedScheme`] around a [`RefreshScheme`] (the
//! `omn-core` protocol layer). Both always count calls, and a source marks
//! the time every `MARK_EVERY` pulls; a timed [`Clock`] also accumulates
//! the time spent inside the wrapped layer. The untraced pass runs the same
//! wrappers with an untimed clock, so the traced/untraced gap
//! (`trace.overhead`) is the cost of the per-call clock reads alone.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use omn_contacts::{Contact, ContactSource, LastContact, NodeId};
use omn_core::scheme::{RefreshScheme, SchemeCtx};
use omn_sim::SimTime;

/// Calls into one layer and, when timed, the nanoseconds spent inside it.
/// Shared by reference because the simulators take their source by value.
#[derive(Debug, Default)]
pub struct Clock {
    timed: bool,
    calls: Cell<u64>,
    busy_ns: Cell<u64>,
    items: Cell<u64>,
    peak_resident: Cell<usize>,
    marks: RefCell<Vec<Instant>>,
}

/// A source clock marks the time of every `MARK_EVERY`-th pull, so a run
/// can be cut into equal chunks of contacts (see [`Clock::segments`]).
const MARK_EVERY: u64 = 1 << 16;

impl Clock {
    /// A clock that counts calls and, if `timed`, accumulates busy time.
    pub fn new(timed: bool) -> Clock {
        Clock {
            timed,
            ..Clock::default()
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }

    /// Contacts a source yielded (pulls that returned one).
    pub fn items(&self) -> u64 {
        self.items.get()
    }

    /// The largest `resident_hint` a timed source reported after a pull.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident.get()
    }

    /// The durations, seconds, of the pieces the marks cut the run from
    /// `start` to `end` into: before the first mark, each whole chunk of
    /// `MARK_EVERY` pulls, and after the last mark.
    pub fn segments(&self, start: Instant, end: Instant) -> Vec<f64> {
        let mut points = vec![start];
        points.extend(self.marks.borrow().iter().copied());
        points.push(end);
        points
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }

    #[inline]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        if !self.timed {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.set(self.busy_ns.get().saturating_add(ns));
        r
    }
}

/// A [`ContactSource`] that forwards to `inner` and reports each pull to a
/// [`Clock`]. `calls` counts pulls, including the final `None`.
#[derive(Debug)]
pub struct TimedSource<'a, S> {
    inner: S,
    clock: &'a Clock,
}

impl<'a, S: ContactSource> TimedSource<'a, S> {
    pub fn new(inner: S, clock: &'a Clock) -> TimedSource<'a, S> {
        TimedSource { inner, clock }
    }
}

impl<S: ContactSource> ContactSource for TimedSource<'_, S> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn span(&self) -> SimTime {
        self.inner.span()
    }

    fn next_contact(&mut self) -> Option<Contact> {
        if self.clock.calls().is_multiple_of(MARK_EVERY) {
            self.clock.marks.borrow_mut().push(Instant::now());
        }
        let inner = &mut self.inner;
        let c = self.clock.time(|| inner.next_contact());
        if c.is_some() {
            self.clock.items.set(self.clock.items.get() + 1);
        }
        if self.clock.timed {
            let resident = self.inner.resident_hint();
            if resident > self.clock.peak_resident.get() {
                self.clock.peak_resident.set(resident);
            }
        }
        c
    }

    fn last_contact(&self) -> LastContact {
        self.inner.last_contact()
    }

    fn resident_hint(&self) -> usize {
        self.inner.resident_hint()
    }
}

/// A [`RefreshScheme`] that forwards every callback to `inner` and reports
/// it to a [`Clock`].
#[derive(Debug)]
pub struct TimedScheme<'a> {
    inner: &'a mut dyn RefreshScheme,
    clock: &'a Clock,
}

impl<'a> TimedScheme<'a> {
    pub fn new(inner: &'a mut dyn RefreshScheme, clock: &'a Clock) -> TimedScheme<'a> {
        TimedScheme { inner, clock }
    }
}

impl RefreshScheme for TimedScheme<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut SchemeCtx<'_>) {
        let inner = &mut *self.inner;
        self.clock.time(|| inner.on_start(ctx));
    }

    fn on_version_birth(&mut self, version: u64, ctx: &mut SchemeCtx<'_>) {
        let inner = &mut *self.inner;
        self.clock.time(|| inner.on_version_birth(version, ctx));
    }

    fn on_contact(&mut self, a: NodeId, b: NodeId, ctx: &mut SchemeCtx<'_>) {
        let inner = &mut *self.inner;
        self.clock.time(|| inner.on_contact(a, b, ctx));
    }

    fn on_state_loss(&mut self, node: NodeId, ctx: &mut SchemeCtx<'_>) {
        let inner = &mut *self.inner;
        self.clock.time(|| inner.on_state_loss(node, ctx));
    }

    fn on_finish(&mut self, ctx: &mut SchemeCtx<'_>) {
        let inner = &mut *self.inner;
        self.clock.time(|| inner.on_finish(ctx));
    }
}

#[cfg(test)]
mod tests {
    use omn_bench::experiments::e15_scalability::{run_point, scale_config};
    use omn_core::sim::SchemeChoice;
    use omn_sim::{OracleMode, RngFactory};

    use crate::workloads::{stream_pass, warm_up};

    #[test]
    fn timed_wrappers_are_transparent() {
        // E15's own 100-node point (no wrappers) against the benchmark's
        // stream pass with both wrappers timing.
        let (nodes, seed) = (100, 11);
        let plain = run_point(nodes, SchemeChoice::Hierarchical, seed);
        let world = scale_config(nodes);
        let factory = RngFactory::new(seed);
        let roles = warm_up(&world, &factory);
        let timed = stream_pass(&world, &factory, &roles, OracleMode::Campaign, true);

        assert_eq!(
            timed.report.mean_freshness.to_bits(),
            plain.report.mean_freshness.to_bits()
        );
        assert_eq!(timed.report.transmissions, plain.report.transmissions);
        assert_eq!(timed.report.version_count, plain.report.version_count);
        assert_eq!(timed.stats.contacts_total, plain.stats.contacts_total);
        assert_eq!(timed.stats.peak_resident, plain.stats.peak_resident);
        // The wrappers saw the work they wrap.
        assert_eq!(timed.source.items() as usize, plain.stats.contacts_total);
        assert!(timed.source.busy_ns() > 0 && timed.scheme.busy_ns() > 0);
        assert!(timed.scheme.calls() >= timed.source.items());
    }
}
