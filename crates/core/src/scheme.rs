//! The scheme abstraction: every location mechanism (the paper's hash-based
//! one and the baselines) plugs into experiments through these traits.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use agentrack_platform::{AgentCtx, AgentId, NodeId, Payload, Spawner, TimerId};

use crate::tracker_metrics::{TrackerMetrics, TrackerRows};

/// A thread-safe constructor of scheme clients, so workloads can create
/// clients for agents born *during* a run (population churn).
pub type ClientFactory = Arc<dyn Fn() -> Box<dyn DirectoryClient> + Send + Sync>;

/// What a [`DirectoryClient`] reports back to its owning agent after being
/// offered an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// The event was not protocol traffic; the owner should handle it.
    NotMine,
    /// Protocol traffic, consumed; nothing to report.
    Consumed,
    /// The owner's registration completed.
    Registered,
    /// A locate finished successfully.
    Located {
        /// Token passed to [`DirectoryClient::locate`].
        token: u64,
        /// The located agent.
        target: AgentId,
        /// Its reported node.
        node: NodeId,
        /// `true` when the answer came from a replica or
        /// recovery-restored record (degraded mode): treat `node` as a
        /// best-effort hint that may lag the target's true location.
        stale: bool,
        /// Age of the answering record in milliseconds (0 for an
        /// authoritative answer). Guaranteed to fit the freshness bound
        /// the locate declared.
        age_ms: u64,
    },
    /// A locate gave up (retry budget exhausted or target unknown).
    Failed {
        /// Token passed to [`DirectoryClient::locate`].
        token: u64,
        /// The agent that could not be located.
        target: AgentId,
    },
    /// Mail delivered through the mechanism ([`DirectoryClient::send_via`]
    /// on the sending side): the owner should treat `data` as an incoming
    /// application message from `from`.
    Mail {
        /// The original sender.
        from: AgentId,
        /// Application payload bytes.
        data: Vec<u8>,
    },
}

/// Client-side state machine of a location scheme, embedded in each mobile
/// agent's behaviour.
///
/// The owning behaviour forwards its lifecycle events here:
/// `on_create` → [`register`](DirectoryClient::register),
/// `on_arrival` → [`moved`](DirectoryClient::moved), incoming messages /
/// failures / timers → the corresponding `on_*` method, acting on anything
/// reported back as a [`ClientEvent`].
///
/// `Send` because clients travel inside agent behaviours, which migrate
/// between node threads on the live runtime.
pub trait DirectoryClient: Send {
    /// Registers the owning agent with the scheme. Call from `on_create`.
    fn register(&mut self, ctx: &mut AgentCtx<'_>);

    /// Reports that the owning agent moved. Call from `on_arrival`.
    fn moved(&mut self, ctx: &mut AgentCtx<'_>);

    /// Withdraws the owning agent from the directory. Call from
    /// `on_dispose` when the agent dies.
    fn deregister(&mut self, ctx: &mut AgentCtx<'_>);

    /// Starts locating `target` with no freshness requirement
    /// ([`crate::Freshness::Any`]); the outcome arrives later as
    /// [`ClientEvent::Located`] or [`ClientEvent::Failed`] carrying `token`.
    fn locate(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, token: u64) {
        self.locate_with(ctx, target, token, crate::Freshness::Any);
    }

    /// Like [`locate`](DirectoryClient::locate), but the query declares
    /// how fresh the answer must be. Every attempt carries the bound on
    /// the wire; schemes without replicated records satisfy any bound,
    /// because every answer of theirs is authoritative.
    fn locate_with(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        token: u64,
        freshness: crate::Freshness,
    );

    /// Offers an incoming message to the client.
    fn on_message(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        from: AgentId,
        payload: &Payload,
    ) -> ClientEvent;

    /// Offers a delivery failure (a tracker the client contacted moved or
    /// was merged away).
    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) -> ClientEvent;

    /// Offers a timer; the client owns timers it set itself.
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) -> ClientEvent;

    /// The owning agent's node restarted after a crash. The default
    /// re-announces the agent's current location (an upsert in every
    /// scheme), repairing tracker records that were wiped with the
    /// node's soft state. Call from `on_restart`.
    fn restarted(&mut self, ctx: &mut AgentCtx<'_>) {
        self.moved(ctx);
    }

    /// Sends `data` to `target` *through the mechanism* (guaranteed
    /// delivery: the responsible tracker forwards it, buffering across the
    /// target's migrations). Returns `false` if this scheme does not
    /// support mediated delivery. The recipient's owner sees
    /// [`ClientEvent::Mail`].
    fn send_via(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, data: Vec<u8>) -> bool {
        let _ = (ctx, target, data);
        false
    }
}

/// A location scheme: service-side bootstrap plus client construction.
pub trait LocationScheme {
    /// Human-readable scheme name for reports.
    fn name(&self) -> &'static str;

    /// Spawns the scheme's service agents (trackers, registries, hash
    /// agents) on a runtime — the deterministic simulator or the live
    /// threaded platform. Must be called once, before any client
    /// registers.
    fn bootstrap(&mut self, platform: &mut dyn Spawner);

    /// Returns a constructor for client state machines, usable while the
    /// run is in progress (newly born agents need clients too).
    fn client_factory(&self) -> ClientFactory;

    /// Creates the client state machine for one mobile agent.
    fn make_client(&self) -> Box<dyn DirectoryClient> {
        (self.client_factory())()
    }

    /// The shared statistics handle the scheme's behaviours and clients
    /// report into.
    fn shared(&self) -> &SharedSchemeStats;

    /// Scheme-level statistics accumulated so far.
    fn stats(&self) -> SchemeStats {
        self.shared().snapshot()
    }

    /// Hash-function version held by every copy holder, as
    /// `(agent raw id, role, version)` triples. Empty for schemes
    /// without replicated hash functions; the invariant checker uses it
    /// to assert post-fault convergence.
    fn hash_versions(&self) -> Vec<(u64, CopyRole, u64)> {
        self.shared().versions()
    }

    /// Administratively freezes (or thaws) directory adaptation: while
    /// frozen, the control plane denies every split/merge request with
    /// [`crate::DenyReason::ReadOnly`] and grants no new rehash leases,
    /// though leases already in flight still commit. The post-quiesce
    /// invariant audit uses this to drain adaptation before sampling
    /// hash-function versions — otherwise a cascade still adapting at the
    /// sampling instant looks like a convergence failure. Nothing reads
    /// the flag in schemes without an adaptive directory.
    fn set_adaptation_frozen(&self, frozen: bool) {
        self.shared().set_adaptation_frozen(frozen);
    }
}

/// Which replica of the hash function an agent holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyRole {
    /// The HAgent's primary copy: the serialization point for rehashes.
    Primary,
    /// The standby HAgent's read-only replica.
    Standby,
    /// An LHAgent's lazily refreshed secondary copy.
    Secondary,
    /// An IAgent's working copy, installed by the HAgent.
    Tracker,
}

/// Counters describing what a scheme did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Splits committed by the HAgent.
    pub splits: u64,
    /// Merges committed by the HAgent.
    pub merges: u64,
    /// Rehash requests denied (cooldown, in-progress, unbalanceable).
    pub rehash_denied: u64,
    /// Hash-function copies served to LHAgents.
    pub hf_fetches: u64,
    /// Records moved between trackers by handoffs.
    pub records_handed_off: u64,
    /// `NotResponsible` answers sent (stale-copy detections).
    pub stale_hits: u64,
    /// Locate answers served from a buffered (pending) state after a
    /// handoff arrived.
    pub pending_served: u64,
    /// Current number of active trackers (IAgents / registries).
    pub trackers: u64,
    /// Peak number of active trackers.
    pub peak_trackers: u64,
    /// Forwarding-pointer chain hops walked (forwarding baseline only).
    pub chain_hops: u64,
    /// Height of the hash tree after the latest rehash (hashed scheme).
    pub tree_height: u64,
    /// Sum of hyper-label bit lengths over current leaves (hashed scheme);
    /// divide by `trackers` for the mean consumed-prefix length.
    pub depth_bits_total: u64,
    /// IAgent locality migrations performed (extension E9).
    pub iagent_moves: u64,
    /// Record-replication batches sent to buddy replicas.
    pub record_syncs: u64,
    /// Recoveries entered by restarted trackers that lost soft state.
    pub recoveries_started: u64,
    /// Recoveries that ended (converged or timed out).
    pub recoveries_completed: u64,
    /// Locate answers served from recovered-but-unconfirmed records
    /// (tagged `stale: true`).
    pub stale_answers: u64,
    /// Locate answers served locally from a buddy's replica copy by a
    /// tracker that is *not* responsible for the target — the
    /// freshness-bounded partition-tolerant read path.
    pub replica_answers: u64,
    /// Locates a tracker declined to answer because every record it had
    /// (live, recovery, or replica) was older than the query's declared
    /// freshness bound.
    pub freshness_refusals: u64,
    /// Cross-region hedged locates launched by clients whose home
    /// region's tracker looked unreachable.
    pub hedged_locates: u64,
    /// Answers whose reported age exceeded the query's declared bound —
    /// a protocol violation; the invariant audit requires this to stay 0.
    pub bound_violations: u64,
}

/// Shared mutable scheme statistics: behaviours hold clones of this handle.
///
/// It holds the scheme-wide counters and, under a lock of their own, the
/// per-tracker rows ([`TrackerMetrics`]), so every behaviour reports both
/// through the one handle.
///
/// Thread-safe so behaviours can run on either runtime.
///
/// # Examples
///
/// ```
/// use agentrack_core::SharedSchemeStats;
///
/// let stats = SharedSchemeStats::new();
/// stats.update_tracker(7, |t| {
///     t.requests += 1;
///     t.observe_mailbox(3);
/// });
/// stats.update(|s| s.splits += 1);
/// let rows = stats.tracker_rows();
/// assert_eq!(rows.trackers[0].1.requests, 1);
/// assert_eq!(rows.trackers[0].1.mailbox_occupancy_peak, 3);
/// assert_eq!(stats.snapshot().splits, 1);
/// ```
#[derive(Clone, Default)]
pub struct SharedSchemeStats {
    stats: Arc<Mutex<SchemeStats>>,
    trackers: Arc<Mutex<BTreeMap<u64, TrackerMetrics>>>,
    versions: Arc<Mutex<Vec<(u64, CopyRole, u64)>>>,
    adaptation_frozen: Arc<AtomicBool>,
}

impl SharedSchemeStats {
    /// Creates zeroed shared statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current snapshot.
    #[must_use]
    pub fn snapshot(&self) -> SchemeStats {
        *self.stats.lock()
    }

    /// Applies a mutation to the counters.
    pub fn update(&self, f: impl FnOnce(&mut SchemeStats)) {
        f(&mut self.stats.lock());
    }

    /// Records a change in the number of trackers.
    pub fn set_trackers(&self, n: u64) {
        let mut s = self.stats.lock();
        s.trackers = n;
        s.peak_trackers = s.peak_trackers.max(n);
    }

    /// Updates (creating on first touch) the row of tracker `id`.
    pub fn update_tracker(&self, id: u64, f: impl FnOnce(&mut TrackerMetrics)) {
        f(self.trackers.lock().entry(id).or_default());
    }

    /// A copy of every tracker's row, ordered by tracker id.
    #[must_use]
    pub fn tracker_rows(&self) -> TrackerRows {
        let trackers = self.trackers.lock();
        TrackerRows {
            trackers: trackers.iter().map(|(&id, t)| (id, t.clone())).collect(),
        }
    }

    /// Records the hash-function version agent `id` currently holds
    /// (upserting its previous entry). Copy holders call this on every
    /// install, so [`SharedSchemeStats::versions`] always reflects the
    /// latest state.
    pub fn record_version(&self, id: u64, role: CopyRole, version: u64) {
        let mut versions = self.versions.lock();
        match versions.iter_mut().find(|(agent, _, _)| *agent == id) {
            Some(entry) => *entry = (id, role, version),
            None => versions.push((id, role, version)),
        }
    }

    /// The latest recorded hash-function version per copy holder.
    #[must_use]
    pub fn versions(&self) -> Vec<(u64, CopyRole, u64)> {
        self.versions.lock().clone()
    }

    /// Flips the administrative adaptation freeze; see
    /// [`LocationScheme::set_adaptation_frozen`].
    pub fn set_adaptation_frozen(&self, frozen: bool) {
        self.adaptation_frozen.store(frozen, Ordering::Relaxed);
    }

    /// Whether adaptation is administratively frozen.
    #[must_use]
    pub fn adaptation_frozen(&self) -> bool {
        self.adaptation_frozen.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for SharedSchemeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedSchemeStats({:?})", self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_stats_accumulate() {
        let s = SharedSchemeStats::new();
        s.update(|x| x.splits += 2);
        s.set_trackers(5);
        s.set_trackers(3);
        let snap = s.snapshot();
        assert_eq!(snap.splits, 2);
        assert_eq!(snap.trackers, 3);
        assert_eq!(snap.peak_trackers, 5);
        let clone = s.clone();
        clone.update(|x| x.merges += 1);
        assert_eq!(s.snapshot().merges, 1);
        clone.update_tracker(4, |t| t.requests += 7);
        let rows = s.tracker_rows();
        assert_eq!(rows.trackers.len(), 1);
        assert_eq!((rows.trackers[0].0, rows.trackers[0].1.requests), (4, 7));
    }
}
