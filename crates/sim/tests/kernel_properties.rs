//! Property tests of the simulation kernel: event ordering, station
//! conservation, and distribution sanity.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use agentrack_sim::{
    DurationDist, Scheduler, ServiceStation, SimDuration, SimRng, SimTime, WindowedRate,
};
use proptest::prelude::*;

proptest! {
    /// Events come out in non-decreasing time order regardless of the
    /// scheduling order, and same-instant events preserve FIFO order.
    #[test]
    fn scheduler_orders_any_schedule(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sched: Scheduler<usize> = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            sched.schedule(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut popped = 0usize;
        while let Some((at, idx)) = sched.pop() {
            popped += 1;
            prop_assert!(at >= last_time, "time went backwards");
            if at == last_time {
                // FIFO within an instant: indices increase.
                if let Some(&prev) = seen_at_time.last() {
                    if times[prev] == times[idx] {
                        prop_assert!(idx > prev, "FIFO violated at {at}");
                    }
                }
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(idx);
            last_time = at;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Interleaved scheduling and popping, with delays drawn from a few
    /// nanoseconds so that many events share an instant and popped slab
    /// slots are reused, pops events in exactly the `(at, seq)` order of
    /// a reference heap. `None` pops; `Some(d)` schedules `d` ns ahead.
    #[test]
    fn scheduler_pops_interleaved_schedules_in_at_seq_order(
        ops in prop::collection::vec(prop::option::of(0u64..4), 1..300)
    ) {
        let mut sched: Scheduler<usize> = Scheduler::new();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Some(delay) => {
                    sched.schedule_after(SimDuration::from_nanos(delay), i);
                    reference.push(Reverse((now + SimDuration::from_nanos(delay), seq, i)));
                    seq += 1;
                }
                None => {
                    let want = reference.pop().map(|Reverse((at, _, i))| (at, i));
                    if let Some((at, _)) = want {
                        now = at;
                    }
                    prop_assert_eq!(sched.pop(), want);
                }
            }
            prop_assert_eq!(sched.len(), reference.len());
            prop_assert_eq!(sched.now(), now);
        }
        while let Some(Reverse((at, _, i))) = reference.pop() {
            prop_assert_eq!(sched.pop(), Some((at, i)));
        }
        prop_assert!(sched.is_empty());
        prop_assert_eq!(sched.pop(), None);
    }

    /// A FIFO station serves every item exactly once, in order, with no
    /// overlap: completion times are strictly increasing by at least the
    /// service time, and total busy time equals the sum of service times.
    #[test]
    fn station_conserves_work(
        jobs in prop::collection::vec((0u64..1_000_000, 1u64..10_000), 1..100)
    ) {
        let mut jobs = jobs;
        jobs.sort_by_key(|&(arrive, _)| arrive);
        let mut station = ServiceStation::new();
        let mut last_done = SimTime::ZERO;
        let mut total_service = SimDuration::ZERO;
        for &(arrive, service) in &jobs {
            let arrive = SimTime::from_nanos(arrive);
            let service = SimDuration::from_nanos(service);
            let done = station.admit(arrive, service);
            prop_assert!(done >= arrive + service, "service cannot finish early");
            prop_assert!(done >= last_done + service, "overlapping service");
            last_done = done;
            total_service += service;
        }
        prop_assert_eq!(station.admitted(), jobs.len() as u64);
        // The server can never have been busy longer than the span it had.
        prop_assert!(station.busy_until() >= SimTime::ZERO + total_service);
    }

    /// The windowed rate estimator never reports a negative rate and
    /// reports zero after the window fully rolls past the last event.
    #[test]
    fn windowed_rate_bounds(gaps in prop::collection::vec(0u64..200_000_000, 1..100)) {
        let mut rate = WindowedRate::new(SimDuration::from_secs(1), 10);
        let mut t = SimTime::ZERO;
        for gap in gaps {
            t += SimDuration::from_nanos(gap);
            rate.record(t);
            let r = rate.rate_per_sec(t);
            prop_assert!(r >= 0.0);
        }
        let silent = t + SimDuration::from_secs(2);
        prop_assert_eq!(rate.rate_per_sec(silent), 0.0);
    }

    /// Sampled durations respect their distribution's support.
    #[test]
    fn distributions_stay_in_support(seed in any::<u64>(), lo in 0u64..1000, width in 0u64..1000) {
        let mut rng = SimRng::seed_from(seed);
        let lo_d = SimDuration::from_micros(lo);
        let hi_d = SimDuration::from_micros(lo + width);
        let uniform = DurationDist::Uniform { lo: lo_d, hi: hi_d };
        for _ in 0..50 {
            let s = rng.sample(&uniform);
            prop_assert!(s >= lo_d && s <= hi_d);
        }
        let constant = DurationDist::Constant(lo_d);
        prop_assert_eq!(rng.sample(&constant), lo_d);
    }
}
