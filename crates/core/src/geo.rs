//! Partition-aware reachability tracking for geo-distributed deployments.
//!
//! When the topology spans WAN regions, a severed inter-region link shows
//! up to a client as locate timeouts against trackers in the cut-off
//! region. The [`ReachabilityMap`] turns those per-destination timeout
//! streams into a small health state machine:
//!
//! ```text
//! Healthy --2 consecutive timeouts--> Degraded --first success--> Reconciling
//!    ^                                    ^                            |
//!    |                                    +------- timeout ------------+
//!    +--------------- 2 consecutive successes ------------------------+
//! ```
//!
//! Clients consult it to *hedge*: a freshness-bounded locate whose
//! responsible tracker sits behind a `Degraded` destination is sent to the
//! tracker's buddy replica at the same time, so the bounded read can be
//! served locally instead of waiting out the full retry budget against a
//! dead link. `Reconciling` is the guarded transition back: one success
//! after a partition does not prove the link healed (it may be a straggler
//! that left before the sever), so hedging stays on until
//! [`HEAL_AFTER`] successes land in a row.

use std::collections::HashMap;

use agentrack_platform::NodeId;

/// Consecutive locate timeouts against one destination before a client
/// marks it degraded and starts hedging freshness-bounded locates to the
/// tracker's buddy replica.
const DEGRADE_AFTER: u32 = 2;
/// Consecutive successful answers from a degraded destination before the
/// client trusts it again and stops hedging.
const HEAL_AFTER: u32 = 2;

/// Health of one destination (node) as observed from a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionState {
    /// Answers arrive normally.
    Healthy,
    /// Enough consecutive timeouts that the destination is presumed
    /// unreachable (severed link or dead node): hedge bounded reads.
    Degraded,
    /// Answers started arriving again after a degraded spell; hedging
    /// stays on until the recovery is confirmed.
    Reconciling,
}

#[derive(Debug, Clone, Copy)]
struct Health {
    state: RegionState,
    /// Consecutive timeouts while `Healthy` (toward degrading).
    timeouts: u32,
    /// Consecutive successes while `Reconciling` (toward healing).
    successes: u32,
}

impl Health {
    const HEALTHY: Health = Health {
        state: RegionState::Healthy,
        timeouts: 0,
        successes: 0,
    };
}

/// Per-destination health, fed by locate outcomes: a destination degrades
/// after 2 consecutive timeouts and heals after 2 consecutive successes.
///
/// # Examples
///
/// ```
/// use agentrack_core::{ReachabilityMap, RegionState};
/// use agentrack_platform::NodeId;
///
/// let mut map = ReachabilityMap::new();
/// let far = NodeId::new(7);
/// assert_eq!(map.state(far), RegionState::Healthy);
/// map.on_timeout(far);
/// map.on_timeout(far);
/// assert_eq!(map.state(far), RegionState::Degraded);
/// map.on_success(far);
/// assert_eq!(map.state(far), RegionState::Reconciling);
/// map.on_success(far);
/// assert_eq!(map.state(far), RegionState::Healthy);
/// ```
#[derive(Debug, Default)]
pub struct ReachabilityMap {
    destinations: HashMap<NodeId, Health>,
}

impl ReachabilityMap {
    /// Creates a map in which every destination is healthy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current health of `dest` (destinations never heard about are
    /// `Healthy`).
    #[must_use]
    pub fn state(&self, dest: NodeId) -> RegionState {
        self.destinations
            .get(&dest)
            .map_or(RegionState::Healthy, |h| h.state)
    }

    /// `true` when bounded reads toward `dest` should be hedged: the
    /// destination is degraded, or recovering but not yet confirmed.
    #[must_use]
    pub fn should_hedge(&self, dest: NodeId) -> bool {
        matches!(
            self.state(dest),
            RegionState::Degraded | RegionState::Reconciling
        )
    }

    /// A locate toward `dest` timed out.
    pub fn on_timeout(&mut self, dest: NodeId) {
        let h = self.destinations.entry(dest).or_insert(Health::HEALTHY);
        match h.state {
            RegionState::Healthy => {
                h.timeouts += 1;
                if h.timeouts >= DEGRADE_AFTER {
                    h.state = RegionState::Degraded;
                    h.successes = 0;
                }
            }
            RegionState::Degraded => {}
            RegionState::Reconciling => {
                // The heal was not real: straight back to degraded.
                h.state = RegionState::Degraded;
                h.successes = 0;
            }
        }
    }

    /// An answer from `dest` arrived.
    pub fn on_success(&mut self, dest: NodeId) {
        let Some(h) = self.destinations.get_mut(&dest) else {
            return; // already healthy with no history
        };
        match h.state {
            RegionState::Healthy => h.timeouts = 0,
            RegionState::Degraded | RegionState::Reconciling => {
                if h.state == RegionState::Degraded {
                    h.successes = 0;
                }
                h.state = RegionState::Reconciling;
                h.successes += 1;
                if h.successes >= HEAL_AFTER {
                    *h = Health::HEALTHY;
                }
            }
        }
    }

    /// Number of destinations currently degraded or reconciling.
    #[must_use]
    pub fn troubled(&self) -> usize {
        self.destinations
            .values()
            .filter(|h| h.state != RegionState::Healthy)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u32) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn degrades_only_after_consecutive_timeouts() {
        assert_eq!(DEGRADE_AFTER, 2);
        let mut map = ReachabilityMap::new();
        map.on_timeout(n(1));
        assert_eq!(map.state(n(1)), RegionState::Healthy);
        // A success resets the streak.
        map.on_success(n(1));
        map.on_timeout(n(1));
        assert_eq!(map.state(n(1)), RegionState::Healthy);
        map.on_timeout(n(1));
        assert_eq!(map.state(n(1)), RegionState::Degraded);
        assert!(map.should_hedge(n(1)));
        assert_eq!(map.troubled(), 1);
        // Other destinations are unaffected.
        assert_eq!(map.state(n(2)), RegionState::Healthy);
    }

    #[test]
    fn heals_through_reconciling_and_relapses_on_timeout() {
        assert_eq!(HEAL_AFTER, 2);
        let mut map = ReachabilityMap::new();
        map.on_timeout(n(4));
        map.on_timeout(n(4));
        assert_eq!(map.state(n(4)), RegionState::Degraded);
        map.on_success(n(4));
        assert_eq!(map.state(n(4)), RegionState::Reconciling);
        assert!(map.should_hedge(n(4)), "hedging stays on mid-reconcile");
        // A relapse sends it straight back to degraded and the success
        // streak restarts.
        map.on_timeout(n(4));
        assert_eq!(map.state(n(4)), RegionState::Degraded);
        map.on_success(n(4));
        assert_eq!(map.state(n(4)), RegionState::Reconciling);
        map.on_success(n(4));
        assert_eq!(map.state(n(4)), RegionState::Healthy);
        assert!(!map.should_hedge(n(4)));
        assert_eq!(map.troubled(), 0);
    }
}
