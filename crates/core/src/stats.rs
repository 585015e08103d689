//! Load statistics maintained by trackers.
//!
//! Each IAgent keeps (1) a sliding-window estimate of the total message
//! rate it receives — compared against `T_max`/`T_min` to trigger rehashing
//! — and (2) "the accumulated rate of update and query requests" per served
//! agent (paper §4.1), which the HAgent uses to plan even splits. Per-agent
//! counters decay by halving on a fixed interval so the plan reflects
//! recent traffic rather than all of history.

use std::collections::HashMap;
use std::fmt;

use agentrack_platform::AgentId;
use agentrack_sim::{SimDuration, SimTime, WindowedRate};

/// Buckets the rate window is divided into: a request leaves the rate
/// estimate between one window and one window plus a tenth after it.
const RATE_BUCKETS: usize = 10;

/// Interval at which per-agent load counters are halved, so split
/// planning reflects recent traffic.
const DECAY_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// Rate and per-agent load statistics of one tracker.
pub struct LoadStats {
    rate: WindowedRate,
    /// Requests recorded since creation; `reset` keeps it.
    total: u64,
    per_agent: HashMap<AgentId, u64>,
    last_decay: SimTime,
    window: SimDuration,
}

impl LoadStats {
    /// Creates empty statistics whose rate estimate spans `window`.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    #[must_use]
    pub fn new(window: SimDuration) -> Self {
        LoadStats {
            rate: WindowedRate::new(window, RATE_BUCKETS),
            total: 0,
            per_agent: HashMap::new(),
            last_decay: SimTime::ZERO,
            window,
        }
    }

    /// Records one request concerning `about` (the registered/updated/
    /// located agent) at time `now`.
    pub fn record(&mut self, now: SimTime, about: AgentId) {
        self.total += 1;
        self.rate.record(now);
        *self.per_agent.entry(about).or_insert(0) += 1;
        self.maybe_decay(now);
    }

    /// Current request rate in messages/second.
    #[must_use]
    pub fn rate_per_sec(&mut self, now: SimTime) -> f64 {
        self.rate.rate_per_sec(now)
    }

    /// Snapshot of per-agent accumulated loads (for a split request).
    #[must_use]
    pub fn loads(&self) -> Vec<(AgentId, u64)> {
        let mut v: Vec<(AgentId, u64)> = self.per_agent.iter().map(|(&a, &w)| (a, w)).collect();
        v.sort_unstable();
        v
    }

    /// Forgets an agent entirely (handed off or deregistered).
    pub fn forget(&mut self, agent: AgentId) {
        self.per_agent.remove(&agent);
    }

    /// Starts a fresh measurement epoch: clears the rate window and the
    /// per-agent counters. Called when a new hash-function version is
    /// installed — the traffic that drove the old partition must not drive
    /// another rehash of the new one.
    pub fn reset(&mut self, now: SimTime) {
        self.rate = WindowedRate::new(self.window, RATE_BUCKETS);
        self.per_agent.clear();
        self.last_decay = now;
    }

    /// Total requests recorded since creation: unlike the rate and the
    /// per-agent loads, [`reset`](Self::reset) does not clear it.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    fn maybe_decay(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_decay);
        let intervals = elapsed.as_nanos() / DECAY_INTERVAL.as_nanos();
        if intervals == 0 {
            return;
        }
        // Advance by whole intervals only, so the fractional remainder
        // keeps accumulating: counters decay the same way whether a quiet
        // stretch is observed in one call or across many.
        self.last_decay += DECAY_INTERVAL * intervals;
        let shift = u32::try_from(intervals).unwrap_or(63).min(63);
        self.per_agent.retain(|_, w| {
            *w >>= shift;
            *w > 0
        });
    }
}

impl fmt::Debug for LoadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadStats")
            .field("tracked_agents", &self.per_agent.len())
            .field("total", &self.total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> LoadStats {
        LoadStats::new(SimDuration::from_secs(1))
    }

    /// A second agent, whose requests advance the clock in tests that
    /// assert only about the first.
    const OTHER: AgentId = AgentId::new(99);

    /// The first agent's accumulated load, if it still has one.
    fn load_of_first(s: &LoadStats) -> Option<u64> {
        s.loads()
            .into_iter()
            .find(|&(a, _)| a == AgentId::new(1))
            .map(|(_, w)| w)
    }

    #[test]
    fn records_accumulate_per_agent() {
        let mut s = stats();
        let t = SimTime::ZERO;
        s.record(t, AgentId::new(1));
        s.record(t, AgentId::new(1));
        s.record(t, AgentId::new(2));
        assert_eq!(s.loads(), vec![(AgentId::new(1), 2), (AgentId::new(2), 1)]);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn the_total_survives_a_reset() {
        let mut s = stats();
        s.record(SimTime::ZERO, AgentId::new(1));
        s.record(SimTime::ZERO, OTHER);
        s.reset(SimTime::ZERO);
        assert_eq!(s.total(), 2);
        s.record(SimTime::ZERO, OTHER);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn decay_halves_counters() {
        let mut s = stats();
        let t0 = SimTime::ZERO;
        for _ in 0..8 {
            s.record(t0, AgentId::new(1));
        }
        s.record(t0, AgentId::new(2)); // weight 1 → decays to 0 and is dropped
        let later = t0 + SimDuration::from_secs(3);
        s.record(later, AgentId::new(3));
        let loads = s.loads();
        assert!(loads.contains(&(AgentId::new(1), 4)));
        assert!(!loads.iter().any(|&(a, _)| a == AgentId::new(2)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = stats();
        s.record(SimTime::ZERO, AgentId::new(1));
        s.reset(SimTime::ZERO);
        assert!(s.loads().is_empty());
        assert_eq!(s.rate_per_sec(SimTime::ZERO), 0.0);
    }

    #[test]
    fn forget_removes_the_agent() {
        let mut s = stats();
        s.record(SimTime::ZERO, AgentId::new(1));
        s.forget(AgentId::new(1));
        assert!(s.loads().is_empty());
    }

    /// Regression: `maybe_decay` used to halve exactly once per call no
    /// matter how many intervals had elapsed, so after a quiet stretch a
    /// tracker's split plan over-weighted ancient traffic.
    #[test]
    fn decay_catches_up_over_a_quiet_stretch() {
        let mut s = stats(); // 2 s decay interval
        let t0 = SimTime::ZERO;
        for _ in 0..64 {
            s.record(t0, AgentId::new(1));
        }
        // 6.5 s of silence = 3 whole intervals: 64 >> 3 = 8, not 32.
        s.record(t0 + SimDuration::from_millis(6500), OTHER);
        assert_eq!(load_of_first(&s), Some(8));
    }

    #[test]
    fn decay_shift_is_capped_not_overflowing() {
        let mut s = stats();
        let t0 = SimTime::ZERO;
        for _ in 0..8 {
            s.record(t0, AgentId::new(1));
        }
        // 200 intervals elapse at once; a shift of 200 must clear the
        // counter, not overflow the shift amount.
        s.record(t0 + SimDuration::from_secs(400), OTHER);
        assert_eq!(load_of_first(&s), None);
    }

    #[test]
    fn counters_halve_every_two_seconds() {
        let mut s = stats();
        let t0 = SimTime::ZERO;
        for _ in 0..8 {
            s.record(t0, AgentId::new(1));
        }
        s.record(t0 + SimDuration::from_millis(1999), OTHER);
        assert_eq!(load_of_first(&s), Some(8));
        s.record(t0 + SimDuration::from_secs(2), OTHER);
        assert_eq!(load_of_first(&s), Some(4));
    }

    #[test]
    fn a_request_leaves_the_rate_a_tenth_of_a_window_late() {
        // Ten buckets over a 1 s window: a request's 100 ms bucket drops
        // out once all of it is more than a window old.
        let mut s = stats();
        s.record(SimTime::ZERO, AgentId::new(1));
        assert!(s.rate_per_sec(SimTime::ZERO + SimDuration::from_millis(1099)) > 0.0);
        assert_eq!(
            s.rate_per_sec(SimTime::ZERO + SimDuration::from_millis(1100)),
            0.0
        );
    }

    #[test]
    fn rate_reflects_recent_traffic() {
        let mut s = stats();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            s.record(t, AgentId::new(1));
            t += SimDuration::from_millis(10);
        }
        let r = s.rate_per_sec(t);
        assert!((80.0..120.0).contains(&r), "rate {r}");
        // After silence the rate collapses.
        assert_eq!(s.rate_per_sec(t + SimDuration::from_secs(5)), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Decay must be time-translation-invariant: observing one
            /// long gap in a single `record` call leaves exactly the
            /// same per-agent loads as observing the same gap chopped
            /// into many intermediate calls.
            #[test]
            fn decay_is_invariant_under_gap_splitting(
                seed in 1usize..512,
                gap_ms in 1u64..60_000,
                cuts in prop::collection::vec(0.0f64..1.0, 0..6),
            ) {
                let mut one = stats();
                let mut many = stats();
                let agent = AgentId::new(1);
                for _ in 0..seed {
                    one.record(SimTime::ZERO, agent);
                    many.record(SimTime::ZERO, agent);
                }
                let gap = SimDuration::from_millis(gap_ms);
                let mut times: Vec<SimTime> = cuts
                    .into_iter()
                    .map(|frac| SimTime::ZERO + gap.mul_f64(frac))
                    .collect();
                times.sort_unstable();
                for t in times {
                    many.record(t, OTHER);
                }
                one.record(SimTime::ZERO + gap, OTHER);
                many.record(SimTime::ZERO + gap, OTHER);
                prop_assert_eq!(load_of_first(&one), load_of_first(&many));
            }
        }
    }
}
