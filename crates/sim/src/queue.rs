//! The event queue: a future-event list ordered by virtual time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A discrete-event scheduler over events of type `E`.
///
/// Events scheduled for the same instant are delivered in scheduling order
/// (FIFO tie-breaking), which keeps runs deterministic.
///
/// Events wait in a slab whose freed slots are reused; the heap orders
/// only small keys into it, so a push or pop moves 24 bytes per heap
/// level whatever the size of `E`.
///
/// # Examples
///
/// ```
/// use agentrack_sim::{Scheduler, SimDuration, SimTime};
///
/// let mut sched: Scheduler<&str> = Scheduler::new();
/// sched.schedule_after(SimDuration::from_millis(2), "second");
/// sched.schedule_after(SimDuration::from_millis(1), "first");
/// assert_eq!(sched.pop(), Some((SimTime::from_nanos(1_000_000), "first")));
/// assert_eq!(sched.pop(), Some((SimTime::from_nanos(2_000_000), "second")));
/// assert_eq!(sched.pop(), None);
/// ```
pub struct Scheduler<E> {
    /// Keys only: the heap sifts 24-byte `(at, seq, slot)` entries however
    /// large `E` is.
    heap: BinaryHeap<Key>,
    /// Pending events, addressed by their key's `slot`.
    slab: Vec<Option<E>>,
    /// Slab slots freed by `pop`, reused before the slab grows.
    free: Vec<usize>,
    now: SimTime,
    seq: u64,
}

/// Where and when an event fires. The ordering reads only `(at, seq)`,
/// and `seq` is unique, so `slot` never decides an order.
#[derive(PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: usize,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within an
        // instant, the first-scheduled) event comes out first. One 128-bit
        // comparison orders by `at`, then `seq`, without the branch a
        // two-step comparison takes on every sift.
        let order = |k: &Key| (u128::from(k.at.as_nanos()) << 64) | u128::from(k.seq);
        order(other).cmp(&order(self))
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    #[must_use]
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// The current virtual time: the timestamp of the last event popped.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules an event at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — the simulation cannot rewrite
    /// history.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        self.heap.push(Key {
            at,
            seq: self.seq,
            slot,
        });
        self.seq += 1;
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        debug_assert!(key.at >= self.now);
        let event = self.slab[key.slot]
            .take()
            .expect("a key's slot holds its event");
        self.free.push(key.slot);
        self.now = key.at;
        Some((key.at, event))
    }

    /// The timestamp of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Advances the clock to `t` without processing anything. A bounded
    /// run that finds no event before its deadline must still end *at*
    /// the deadline, or repeated short runs across a quiet gap would
    /// recompute the same deadline forever and the clock would never
    /// move. Going backwards is a no-op.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl<E> fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_out_in_time_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_nanos(30), 3);
        s.schedule(SimTime::from_nanos(10), 1);
        s.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(s.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            s.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_after(SimDuration::from_millis(1), "a");
        let (t1, _) = s.pop().unwrap();
        s.schedule_after(SimDuration::from_millis(1), "b");
        let (t2, _) = s.pop().unwrap();
        assert_eq!(t2 - t1, SimDuration::from_millis(1));
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.peek_time(), None);
    }

    #[test]
    fn popped_slots_are_reused() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for round in 0..100 {
            s.schedule_after(SimDuration::from_nanos(2), round);
            s.schedule_after(SimDuration::from_nanos(1), round);
            s.pop();
            s.pop();
        }
        assert_eq!(s.slab.len(), 2, "the slab never outgrows the pending peak");
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_nanos(10), 1);
        s.pop();
        s.schedule(SimTime::from_nanos(5), 2);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule(SimTime::from_nanos(10), 1);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(s.now(), SimTime::ZERO);
    }
}
