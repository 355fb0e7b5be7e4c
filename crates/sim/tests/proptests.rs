//! Property-based tests for the simulation substrate.

use omn_sim::metrics::{SampleHistogram, TimeWeightedMean};
use omn_sim::stats::{mean_ci95, EmpiricalCdf, Summary};
use omn_sim::{Engine, EventClass, EventQueue, RngFactory, SimDuration, SimTime};
use proptest::prelude::*;

fn finite_positive() -> impl Strategy<Value = f64> {
    (0.001f64..1e6).prop_map(|x| x)
}

proptest! {
    /// Events always pop in non-decreasing time order, regardless of
    /// insertion order.
    #[test]
    fn queue_pops_sorted(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Pop order is a stable sort of the scheduled events by (time, class):
    /// ties in both fall back to insertion order. Few distinct times and
    /// classes force heavy ties.
    #[test]
    fn queue_order_is_a_stable_sort_by_time_then_class(
        events in prop::collection::vec((0u8..6, 0u8..4), 0..300),
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, class)) in events.iter().enumerate() {
            q.schedule_with_class(SimTime::from_secs(f64::from(t)), EventClass(class), i);
        }
        let mut expected: Vec<usize> = (0..events.len()).collect();
        expected.sort_by_key(|&i| events[i]);
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
        prop_assert_eq!(popped, expected);
    }

    /// Merging the engine's timers with a sorted external stream through
    /// `next_event_before` delivers exactly what one queue holding the
    /// stream as class-60 events delivers. Timers sit at few instants in
    /// classes on both sides of 60, and some schedule a follow-up timer
    /// when they fire (a delay of 3 means none).
    #[test]
    fn merging_a_sorted_stream_matches_one_queue(
        timers in prop::collection::vec((0u8..6, 0usize..8, 0u8..4, 0usize..8), 0..60),
        mut stream in prop::collection::vec(0u8..6, 0..60),
    ) {
        const CLASSES: [u8; 8] = [0, 10, 20, 40, 59, 61, 128, 200];
        const STREAM_CLASS: EventClass = EventClass(60);
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Ev {
            Timer(usize),
            FollowUp(usize),
            Stream(usize),
        }
        let at = |t: u8| SimTime::from_secs(f64::from(t));
        let class = |c: usize| EventClass(CLASSES[c]);
        let follow_up = |ev: Ev, now: SimTime| match ev {
            Ev::Timer(i) if timers[i].2 < 3 => {
                let (_, _, delay, c) = timers[i];
                Some((now + SimDuration::from_secs(f64::from(delay)), class(c), Ev::FollowUp(i)))
            }
            _ => None,
        };
        stream.sort_unstable();

        // Reference: one queue, the stream scheduled after the timers.
        let mut queue = EventQueue::new();
        for (i, &(t, c, ..)) in timers.iter().enumerate() {
            queue.schedule_with_class(at(t), class(c), Ev::Timer(i));
        }
        for (j, &t) in stream.iter().enumerate() {
            queue.schedule_with_class(at(t), STREAM_CLASS, Ev::Stream(j));
        }
        let mut expected = Vec::new();
        while let Some((now, ev)) = queue.pop() {
            if let Some((due, c, next)) = follow_up(ev, now) {
                queue.schedule_with_class(due, c, next);
            }
            expected.push((now, ev));
        }

        // Merge: only timers in the engine, the stream pulled in order.
        let mut engine = Engine::new();
        for (i, &(t, c, ..)) in timers.iter().enumerate() {
            engine.schedule_at_class(at(t), class(c), Ev::Timer(i));
        }
        let mut pulled = 0;
        let mut merged = Vec::new();
        loop {
            let timer = match stream.get(pulled) {
                Some(&t) => engine.next_event_before(at(t), STREAM_CLASS),
                None => engine.next_event(),
            };
            if let Some(ev) = timer {
                if let Some((due, c, next)) = follow_up(ev.payload, ev.time) {
                    engine.schedule_at_class(due, c, next);
                }
                merged.push((ev.time, ev.payload));
            } else if let Some(&t) = stream.get(pulled) {
                merged.push((at(t), Ev::Stream(pulled)));
                pulled += 1;
            } else {
                break;
            }
        }
        prop_assert_eq!(merged, expected);
    }

    /// The engine clock never goes backwards and ends at the max event time.
    #[test]
    fn engine_clock_monotone(times in prop::collection::vec(0.0f64..1e4, 1..100)) {
        let mut e = Engine::new();
        for &t in &times {
            e.schedule_at(SimTime::from_secs(t), ());
        }
        let mut prev = SimTime::ZERO;
        while let Some(ev) = e.next_event() {
            prop_assert!(ev.time >= prev);
            prop_assert_eq!(ev.time, e.now());
            prev = ev.time;
        }
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!((e.now().as_secs() - max).abs() < 1e-9);
    }

    /// Time-weighted mean of a signal lies within [min, max] of its values.
    #[test]
    fn twm_within_bounds(
        values in prop::collection::vec(-1e3f64..1e3, 1..50),
        gaps in prop::collection::vec(0.001f64..100.0, 1..50),
    ) {
        let mut m = TimeWeightedMean::starting_at(SimTime::ZERO, values[0]);
        let mut now = SimTime::ZERO;
        for (v, g) in values.iter().skip(1).zip(gaps.iter()) {
            now += SimDuration::from_secs(*g);
            m.update(now, *v);
        }
        now += SimDuration::from_secs(1.0);
        let mean = m.finish(now);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }

    /// Histogram quantiles are monotone in q and bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut h: SampleHistogram = samples.iter().cloned().collect();
        let s = Summary::from_samples(&samples);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = f64::from(i) / 10.0;
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= prev);
            prop_assert!(v >= s.min - 1e-9 && v <= s.max + 1e-9);
            prev = v;
        }
    }

    /// Empirical CDF is monotone, 0 below the min, 1 at and above the max.
    #[test]
    fn cdf_properties(samples in prop::collection::vec(-1e4f64..1e4, 1..200)) {
        let cdf = EmpiricalCdf::from_samples(samples.clone());
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(cdf.eval(lo - 1.0), 0.0);
        prop_assert_eq!(cdf.eval(hi), 1.0);
        let mut prev = 0.0;
        for (_, f) in cdf.curve(32) {
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
    }

    /// CI mean matches the arithmetic mean; half-width is non-negative.
    #[test]
    fn ci_sane(samples in prop::collection::vec(finite_positive(), 1..100)) {
        let (mean, hw) = mean_ci95(&samples);
        let direct = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((mean - direct).abs() < 1e-9);
        prop_assert!(hw >= 0.0);
    }

    /// RNG streams with equal (seed, label, index) agree; different indices
    /// disagree on the first draw with overwhelming probability.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), idx in 0u64..1000) {
        use rand::Rng;
        let f = RngFactory::new(seed);
        let a: u64 = f.stream_indexed("s", idx).gen();
        let b: u64 = f.stream_indexed("s", idx).gen();
        prop_assert_eq!(a, b);
        let c: u64 = f.stream_indexed("s", idx + 1).gen();
        prop_assert_ne!(a, c);
    }
}
