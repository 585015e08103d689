//! Platform cost-model configuration.

use agentrack_sim::{DurationDist, SimDuration};
use serde::{Deserialize, Serialize};

/// Cost model of the platform: how long things take on the virtual clock.
///
/// Defaults are calibrated to a 2003-era Java mobile-agent platform on a
/// LAN (the paper's Aglets 2.0 / Sun Blade setup): handling a message costs
/// a few hundred microseconds of server time, migrating an agent costs
/// milliseconds.
///
/// # Examples
///
/// ```
/// use agentrack_platform::PlatformConfig;
/// use agentrack_sim::{DurationDist, SimDuration};
///
/// let config = PlatformConfig::default()
///     .with_seed(42)
///     .with_handler_service_time(DurationDist::Constant(SimDuration::from_micros(300)));
/// assert_eq!(config.rng_seed, 42);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Seed for the platform's deterministic RNG.
    pub rng_seed: u64,
    /// Server time an agent spends handling one incoming message. This is
    /// the service time of the per-agent FIFO station — the knob that makes
    /// a tracker saturate under load.
    pub handler_service_time: DurationDist,
    /// Fixed overhead of instantiating an agent.
    pub creation_overhead: SimDuration,
    /// Fixed overhead of a migration (serialisation, class loading,
    /// re-activation), on top of the network transfer.
    pub migration_overhead: SimDuration,
    /// Bandwidth used to transfer serialised agent state during migration.
    pub bandwidth_bytes_per_sec: u64,
    /// Safety valve for `run_until_idle`: maximum number of events to
    /// process before declaring a runaway simulation.
    pub max_events: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            rng_seed: 0x5eed,
            handler_service_time: DurationDist::Constant(SimDuration::from_micros(400)),
            creation_overhead: SimDuration::from_millis(2),
            migration_overhead: SimDuration::from_millis(3),
            bandwidth_bytes_per_sec: 10_000_000, // ~100 Mbit/s LAN
            max_events: 200_000_000,
        }
    }
}

impl PlatformConfig {
    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Sets the per-message handler service time.
    #[must_use]
    pub fn with_handler_service_time(mut self, dist: DurationDist) -> Self {
        self.handler_service_time = dist;
        self
    }

    /// Sets the fixed migration overhead.
    #[must_use]
    pub fn with_migration_overhead(mut self, overhead: SimDuration) -> Self {
        self.migration_overhead = overhead;
        self
    }

    /// Duration of a state transfer of `bytes` at the configured bandwidth.
    #[must_use]
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        if self.bandwidth_bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec as f64)
    }
}

/// Tuning knobs of the live (threaded) runtime's hot paths.
///
/// `shards` and `batch_max` control throughput mechanics only —
/// *semantics* (delivery, bounce, migration, timers) are identical at
/// every setting. The rest switch telemetry on and tune it.
///
/// # Examples
///
/// ```
/// use agentrack_platform::LiveConfig;
///
/// // The pre-sharding, pre-batching runtime:
/// let flat = LiveConfig::default().with_shards(1).with_batch_max(1);
/// assert_eq!(flat.effective_shards(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveConfig {
    /// Number of registry shards; rounded up to a power of two. `0`
    /// means auto (currently 1024 — small enough that the generation
    /// array stays cache-resident, large enough that a migration
    /// invalidates ~0.1% of cached routes). `1` reproduces the old
    /// single-`RwLock` registry.
    pub shards: usize,
    /// Maximum `Deliver` messages coalesced into one `DeliverBatch`
    /// channel operation per destination node (default 64). `1` disables
    /// coalescing: every message is its own channel op, as before.
    /// Batches always flush when a sender goes idle, so a lone message
    /// never waits for the cap.
    pub batch_max: usize,
    /// Enables live telemetry (default off): latency histograms, queue
    /// depth and drain accounting, and the background snapshot
    /// aggregator. Off, every instrumented site
    /// costs one predictable branch. See `DESIGN.md` §16.
    pub telemetry: bool,
    /// Capacity K of the slow-op flight recorder (default 0 = off;
    /// requires `telemetry`). The K slowest deliver/move/timer ops are
    /// kept with enqueue/start/end phase timestamps.
    pub flight_recorder: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            shards: 0,
            batch_max: 64,
            telemetry: false,
            flight_recorder: 0,
        }
    }
}

impl LiveConfig {
    /// Sets the registry shard count (`0` = auto).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-destination coalescing cap (`1` disables batching).
    #[must_use]
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Enables or disables live telemetry.
    #[must_use]
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Sets the slow-op flight-recorder capacity (`0` disables it).
    #[must_use]
    pub fn with_flight_recorder(mut self, k: usize) -> Self {
        self.flight_recorder = k;
        self
    }

    /// The shard count actually used: `shards` rounded up to a power of
    /// two, with `0` resolved to the 1024-shard default.
    #[must_use]
    pub fn effective_shards(&self) -> usize {
        match self.shards {
            0 => 1024,
            n => n.next_power_of_two(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_config_defaults_and_rounding() {
        let c = LiveConfig::default();
        assert_eq!(c.effective_shards(), 1024);
        assert_eq!(c.batch_max, 64);
        assert_eq!(LiveConfig::default().with_shards(7).effective_shards(), 8);
        assert_eq!(LiveConfig::default().with_shards(1).effective_shards(), 1);
        assert_eq!(LiveConfig::default().with_batch_max(0).batch_max, 1);
        assert!(!c.telemetry, "telemetry is opt-in");
        assert_eq!(c.flight_recorder, 0);
        let t = LiveConfig::default()
            .with_telemetry(true)
            .with_flight_recorder(32);
        assert!(t.telemetry);
        assert_eq!(t.flight_recorder, 32);
    }

    #[test]
    fn builder_setters() {
        let c = PlatformConfig::default()
            .with_seed(9)
            .with_handler_service_time(DurationDist::Constant(SimDuration::from_micros(100)))
            .with_migration_overhead(SimDuration::from_millis(1));
        assert_eq!(c.rng_seed, 9);
        assert_eq!(
            c.handler_service_time,
            DurationDist::Constant(SimDuration::from_micros(100))
        );
        assert_eq!(c.migration_overhead, SimDuration::from_millis(1));
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let c = PlatformConfig::default();
        assert_eq!(
            c.transfer_time(c.bandwidth_bytes_per_sec as usize),
            SimDuration::from_secs(1)
        );
        assert_eq!(c.transfer_time(0), SimDuration::ZERO);
        let degenerate = PlatformConfig {
            bandwidth_bytes_per_sec: 0,
            ..PlatformConfig::default()
        };
        assert_eq!(degenerate.transfer_time(100), SimDuration::ZERO);
    }
}
