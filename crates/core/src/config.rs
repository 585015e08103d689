//! Configuration of the location mechanism.

use agentrack_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Tunables of the hash-based location mechanism.
///
/// The two headline knobs are the paper's thresholds: an IAgent whose
/// observed message rate exceeds [`t_max`](LocationConfig::t_max) requests a
/// split, one whose rate falls below [`t_min`](LocationConfig::t_min)
/// requests a merge. The experiments use 50 and 5 messages per second
/// ("the `T_max` and `T_min` values were set at 50 and 5 messages per
/// second").
///
/// # Examples
///
/// ```
/// use agentrack_core::LocationConfig;
///
/// let config = LocationConfig::default().with_thresholds(100.0, 10.0);
/// assert_eq!(config.t_max, 100.0);
/// config.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocationConfig {
    /// Split threshold: requests/second above which an IAgent asks the
    /// HAgent to split its load.
    pub t_max: f64,
    /// Merge threshold: requests/second below which an IAgent asks the
    /// HAgent to merge it away.
    pub t_min: f64,
    /// Span of the sliding window over which request rates are estimated.
    pub rate_window: SimDuration,
    /// Minimum IAgent age before it may request a merge (a newborn IAgent
    /// has an empty rate window and would otherwise merge immediately).
    pub merge_warmup: SimDuration,
    /// Minimum spacing between rehash operations accepted by the HAgent.
    /// With concurrent rehash the cooldown is scoped per subtree region:
    /// it gates a new operation only against recent operations whose
    /// regions overlap it.
    pub rehash_cooldown: SimDuration,
    /// Maximum number of rehash operations (splits/merges) the HAgent
    /// allows in flight at once. Operations proceed in parallel only when
    /// their subtree regions are prefix-disjoint; overlapping requests are
    /// still serialised. `1` reproduces the paper's single-flight protocol
    /// (the ablation arm of E17).
    pub rehash_concurrency: usize,
    /// How long an IAgent buffers a query for an agent that hashes to it
    /// but whose record has not arrived yet (handoff in flight) before
    /// answering "not found".
    pub pending_timeout: SimDuration,
    /// Interval of the periodic self-check that lets an *idle* IAgent
    /// notice it has fallen below `t_min`.
    pub check_interval: SimDuration,
    /// Enables the paper's complex splits (promoting unused label bits);
    /// disabled only by the split-strategy ablation.
    pub complex_splits_enabled: bool,
    /// Ablation: ignore the load statistics and always split blindly on
    /// the first extra bit (`m = 1`), instead of the paper's
    /// statistics-driven search for an even split point.
    pub blind_splits: bool,
    /// Enables merging; disabled by experiments that only grow.
    pub merge_enabled: bool,
    /// When `true` the HAgent eagerly pushes every new hash-function
    /// version to all LHAgents, instead of the paper's lazy on-demand
    /// propagation (ablation E4).
    pub eager_propagation: bool,
    /// Client retry budget for a single locate operation.
    pub max_locate_attempts: u32,
    /// Client timeout before retrying a locate that got no answer.
    pub locate_retry_timeout: SimDuration,
    /// Locality extension (paper §7, "the IAgents could move closer to the
    /// majority of the agents that they serve"): when enabled, an IAgent
    /// migrates to the node that originates most of its traffic.
    pub locality_migration: bool,
    /// Fraction of recent requests a node must originate before the IAgent
    /// moves there.
    pub locality_threshold: f64,
    /// Minimum recent requests before a locality decision is made.
    pub locality_min_requests: u64,
    /// When set, hash-function copy holders (LHAgents, IAgents)
    /// periodically re-fetch from their source at this interval, so
    /// stale copies converge even without client traffic — and an
    /// unresponsive source is noticed (LHAgent failover) during idle
    /// periods. `None` (the default) keeps propagation purely lazy, as
    /// in the paper.
    pub version_audit: Option<SimDuration>,
    /// When set, each IAgent replicates its record set (and rate
    /// estimate) to its buddy replica — the sibling leaf under the hash
    /// tree, or the configured standby when the tree has one leaf — at
    /// most once per this interval, and a restarted IAgent recovers its
    /// records from that replica instead of starting empty. `None`
    /// disables replication: records are pure soft state, as in the
    /// paper.
    pub replication_interval: Option<SimDuration>,
    /// How long a recovering IAgent keeps soliciting re-registrations and
    /// answering from stale replica records before it declares recovery
    /// over (converged or not) and resumes normal answering.
    pub recovery_timeout: SimDuration,
}

impl Default for LocationConfig {
    fn default() -> Self {
        LocationConfig {
            t_max: 50.0,
            t_min: 5.0,
            rate_window: SimDuration::from_secs(1),
            merge_warmup: SimDuration::from_secs(3),
            rehash_cooldown: SimDuration::from_millis(100),
            rehash_concurrency: 4,
            pending_timeout: SimDuration::from_millis(500),
            check_interval: SimDuration::from_millis(500),
            complex_splits_enabled: true,
            blind_splits: false,
            merge_enabled: true,
            eager_propagation: false,
            max_locate_attempts: 8,
            locate_retry_timeout: SimDuration::from_millis(800),
            locality_migration: false,
            locality_threshold: 0.6,
            locality_min_requests: 50,
            version_audit: None,
            replication_interval: None,
            recovery_timeout: SimDuration::from_secs(3),
        }
    }
}

impl LocationConfig {
    /// Sets both thresholds.
    #[must_use]
    pub fn with_thresholds(mut self, t_max: f64, t_min: f64) -> Self {
        self.t_max = t_max;
        self.t_min = t_min;
        self
    }

    /// Disables complex splits (ablation E3).
    #[must_use]
    pub fn simple_splits_only(mut self) -> Self {
        self.complex_splits_enabled = false;
        self
    }

    /// Splits blindly on the first extra bit, ignoring load statistics
    /// (ablation E10).
    #[must_use]
    pub fn with_blind_splits(mut self) -> Self {
        self.blind_splits = true;
        self
    }

    /// Enables eager hash-function propagation (ablation E4).
    #[must_use]
    pub fn with_eager_propagation(mut self) -> Self {
        self.eager_propagation = true;
        self
    }

    /// Enables the locality extension: IAgents migrate toward their
    /// traffic (experiment E9).
    #[must_use]
    pub fn with_locality_migration(mut self) -> Self {
        self.locality_migration = true;
        self
    }

    /// Enables periodic hash-function version audits at the given
    /// interval (used by chaos runs so copies converge after faults).
    #[must_use]
    pub fn with_version_audit(mut self, interval: SimDuration) -> Self {
        self.version_audit = Some(interval);
        self
    }

    /// Enables record replication to buddy replicas at the given interval
    /// (and with it, epoch-fenced recovery after a soft-state-losing
    /// restart).
    #[must_use]
    pub fn with_replication(mut self, interval: SimDuration) -> Self {
        self.replication_interval = Some(interval);
        self
    }

    /// Sets the rehash pipeline width: how many prefix-disjoint
    /// splits/merges may be in flight at once. `1` is the paper's
    /// single-flight protocol (E17's ablation arm).
    #[must_use]
    pub fn with_rehash_concurrency(mut self, concurrency: usize) -> Self {
        self.rehash_concurrency = concurrency;
        self
    }

    /// How long the HAgent holds a split lease whose fresh IAgent never
    /// reported ready before abandoning it, and how long an IAgent waits
    /// for *any* answer to a rehash request before clearing its own
    /// pending flag. Derived (not a free knob) so the two sides of the
    /// protocol always agree on when an operation is dead.
    #[must_use]
    pub fn rehash_lease_timeout(&self) -> SimDuration {
        self.rate_window * 5
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_max.is_nan() || self.t_max <= 0.0 {
            return Err("t_max must be positive".into());
        }
        if self.t_min.is_nan() || self.t_min < 0.0 {
            return Err("t_min must be non-negative".into());
        }
        if self.t_min >= self.t_max {
            return Err(format!(
                "t_min ({}) must be below t_max ({}) or splits and merges oscillate",
                self.t_min, self.t_max
            ));
        }
        if self.rate_window.is_zero() {
            return Err("rate window must be non-empty".into());
        }
        if !(0.0..=1.0).contains(&self.locality_threshold) {
            return Err("locality_threshold must be in [0, 1]".into());
        }
        if self.rehash_concurrency == 0 {
            return Err("rehash_concurrency must be at least 1".into());
        }
        if self.max_locate_attempts == 0 {
            return Err("max_locate_attempts must be at least 1".into());
        }
        if self.replication_interval.is_some_and(|i| i.is_zero()) {
            return Err("replication_interval must be non-zero when set".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper() {
        let c = LocationConfig::default();
        assert_eq!(c.t_max, 50.0);
        assert_eq!(c.t_min, 5.0);
        // Records stay pure soft state by default, as in the paper;
        // replication is an opt-in extension.
        assert_eq!(c.replication_interval, None);
        c.validate().unwrap();
    }

    #[test]
    fn replication_builder_and_validation() {
        let c = LocationConfig::default().with_replication(SimDuration::from_millis(250));
        assert_eq!(c.replication_interval, Some(SimDuration::from_millis(250)));
        c.validate().unwrap();
        let bad = LocationConfig {
            replication_interval: Some(SimDuration::ZERO),
            ..LocationConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_rejects_inverted_thresholds() {
        let c = LocationConfig::default().with_thresholds(5.0, 50.0);
        assert!(c.validate().unwrap_err().contains("oscillate"));
    }

    #[test]
    fn ablation_builders() {
        let c = LocationConfig::default().simple_splits_only();
        assert!(!c.complex_splits_enabled);
        let c = LocationConfig::default().with_eager_propagation();
        assert!(c.eager_propagation);
        let c = LocationConfig::default().with_rehash_concurrency(1);
        assert_eq!(c.rehash_concurrency, 1);
        c.validate().unwrap();
    }

    #[test]
    fn rehash_concurrency_must_be_positive() {
        let c = LocationConfig::default().with_rehash_concurrency(0);
        assert!(c.validate().unwrap_err().contains("rehash_concurrency"));
        // The lease timeout is derived from the rate window so both sides
        // of the protocol agree on it.
        let c = LocationConfig::default();
        assert_eq!(c.rehash_lease_timeout(), c.rate_window * 5);
    }
}
