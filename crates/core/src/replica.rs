//! Record durability: buddy replication and epoch-fenced recovery.
//!
//! The paper replicates only the hash *function* (HAgent standby, lazy
//! LHAgent copies); the location *records* are soft state, and a tracker
//! crash makes every settled agent it served unlocatable until the agent
//! happens to move again. [`Durability`] closes that gap for one IAgent,
//! driving three state machines:
//!
//! * [`Replicator`] — the outbound side: an IAgent batches its full record
//!   set into version-stamped `RecordSync` messages for its **buddy
//!   replica** (the sibling leaf under the hash tree, or the configured
//!   standby when the tree has one leaf), with ack/retry.
//! * [`ReplicaStore`] — the inbound side: the replica copies a tracker
//!   holds on behalf of others, stamped with the owner's `(epoch, seq)`.
//!   The standby HAgent's buddy duty uses it too.
//! * [`RecoveryState`] — the phase machine a restarted tracker runs after
//!   soft-state loss: get a fresh epoch from the HAgent (fencing out
//!   replicas written by incarnations whose ownership was since handed
//!   off), pull the buddy's replica, solicit re-registrations, and answer
//!   locates from stale records until the set converges.

use std::collections::{BTreeMap, HashMap};

use agentrack_platform::{AgentCtx, AgentId, NodeId};
use agentrack_sim::{SimDuration, SimTime, TraceEvent};

use crate::config::LocationConfig;
use crate::records::{Outcome, RecordStore, Source};
use crate::scheme::SharedSchemeStats;
use crate::view::TrackerView;
use crate::wire::Wire;

/// How long an unacknowledged `RecordSync` batch waits before it is
/// re-sent to the buddy, and a recovering tracker before it repeats an
/// unanswered epoch request or replica pull.
pub(crate) const REPLICATION_RETRY: SimDuration = SimDuration::from_millis(300);

/// Outbound replication state of one IAgent.
#[derive(Debug, Default)]
pub(crate) struct Replicator {
    /// Where this tracker's replica lives (sibling leaf, or standby).
    pub buddy: Option<(AgentId, NodeId)>,
    /// The tracker's current epoch, granted by the HAgent. Epoch 0 is the
    /// first incarnation; every soft-state-losing restart bumps it.
    pub epoch: u64,
    /// Monotonic batch number of the next `RecordSync` within the epoch.
    next_seq: u64,
    /// Records changed since the last batch was cut.
    dirty: bool,
    /// The unacknowledged batch in flight: `(seq, sent_at)`.
    in_flight: Option<(u64, SimTime)>,
    /// When the last batch was sent (rate-limits full-snapshot syncs).
    last_sync: SimTime,
}

impl Replicator {
    /// Marks the record set changed; the next sync window sends a batch.
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Points replication at a (possibly new) buddy. A buddy change marks
    /// the set dirty so the new buddy receives a full snapshot promptly —
    /// this is how splits and merges transfer replication duty.
    pub fn set_buddy(&mut self, buddy: Option<(AgentId, NodeId)>) {
        if self.buddy != buddy {
            self.buddy = buddy;
            self.in_flight = None;
            if buddy.is_some() {
                self.dirty = true;
            }
        }
    }

    /// Decides whether a batch should go out now: there is a buddy, and
    /// either dirty records have waited out the sync interval, or the
    /// in-flight batch has gone 300 ms (`REPLICATION_RETRY`) without an
    /// ack.
    #[must_use]
    pub fn due(&self, now: SimTime, interval: SimDuration) -> bool {
        if self.buddy.is_none() {
            return false;
        }
        match self.in_flight {
            Some((_, sent_at)) => now.saturating_since(sent_at) >= REPLICATION_RETRY,
            None => self.dirty && now.saturating_since(self.last_sync) >= interval,
        }
    }

    /// Cuts a batch: returns the seq to stamp it with and records it as
    /// in flight.
    pub fn cut_batch(&mut self, now: SimTime) -> u64 {
        // A retry re-sends under a fresh seq too, so a late ack of the
        // lost batch cannot be mistaken for the retry's.
        self.next_seq += 1;
        let seq = self.next_seq;
        self.in_flight = Some((seq, now));
        self.last_sync = now;
        self.dirty = false;
        seq
    }

    /// An ack arrived. Clears the in-flight slot when it matches.
    pub fn on_ack(&mut self, epoch: u64, seq: u64) {
        if epoch == self.epoch && self.in_flight.is_some_and(|(s, _)| s == seq) {
            self.in_flight = None;
        }
    }

    /// Starts a new epoch (after a restart): batch numbering restarts and
    /// any in-flight batch from the previous incarnation is forgotten.
    pub fn start_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.next_seq = 0;
        self.in_flight = None;
        self.dirty = true;
    }
}

/// One replica held on behalf of another tracker.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReplicaEntry {
    /// The owner's epoch the copy was written under.
    pub epoch: u64,
    /// The last applied batch number under that epoch.
    pub seq: u64,
    /// The replicated `(agent, last known node)` records.
    pub records: BTreeMap<AgentId, NodeId>,
    /// The owner's replicated rate estimate (messages/second).
    pub rate: f64,
    /// When the last batch was applied — the age stamp freshness-bounded
    /// reads check before answering from this copy.
    pub synced_at: SimTime,
}

impl ReplicaEntry {
    /// Age of this copy at `now`, in whole milliseconds (rounded up, so
    /// a bound is never undershot by sub-millisecond truncation).
    #[must_use]
    pub fn age_ms(&self, now: SimTime) -> u64 {
        let age = now.saturating_since(self.synced_at);
        age.as_millis_f64().ceil() as u64
    }
}

/// The replica copies a tracker holds for its buddies.
///
/// Deliberately *not* counted into the `records_held` gauge: replica
/// copies are not ownership, and the single-ownership invariant sums that
/// gauge across live trackers.
#[derive(Debug, Default)]
pub(crate) struct ReplicaStore {
    entries: HashMap<AgentId, ReplicaEntry>,
}

impl ReplicaStore {
    /// Applies a `RecordSync` batch from `owner`. Full-snapshot
    /// semantics: the copy is replaced when the batch's `(epoch, seq)` is
    /// not older than the stored stamp; stale batches are ignored. `now`
    /// stamps the copy's age for freshness-bounded reads.
    /// Returns `true` when the batch was applied.
    pub fn apply_sync(
        &mut self,
        owner: AgentId,
        epoch: u64,
        seq: u64,
        records: Vec<(AgentId, NodeId)>,
        rate: f64,
        now: SimTime,
    ) -> bool {
        if let Some(existing) = self.entries.get(&owner) {
            if (epoch, seq) < (existing.epoch, existing.seq) {
                return false;
            }
        }
        self.entries.insert(
            owner,
            ReplicaEntry {
                epoch,
                seq,
                records: records.into_iter().collect(),
                rate,
                synced_at: now,
            },
        );
        true
    }

    /// Buddy duty for a `RecordSync` or `ReplicaPull` from `owner`: the
    /// reply, and the node to send it to. A sync is applied (see
    /// [`Self::apply_sync`]) and acked, a stale one too, so the owner
    /// stops retrying it. A pull gets the `ReplicaSet` held for the owner,
    /// stamped as written (the puller fences against its fresh epoch), or
    /// an empty epoch-0 set.
    pub fn serve(&mut self, owner: AgentId, msg: Wire, now: SimTime) -> Option<(NodeId, Wire)> {
        match msg {
            Wire::RecordSync {
                epoch,
                seq,
                records,
                rate,
                reply_node,
            } => {
                self.apply_sync(owner, epoch, seq, records, rate, now);
                Some((reply_node, Wire::RecordSyncAck { epoch, seq }))
            }
            Wire::ReplicaPull { reply_node, .. } => {
                let held = self.get(owner);
                let set = Wire::ReplicaSet {
                    epoch: held.map_or(0, |e| e.epoch),
                    seq: held.map_or(0, |e| e.seq),
                    records: held.map_or_else(Vec::new, |e| {
                        e.records.iter().map(|(&a, &n)| (a, n)).collect()
                    }),
                    rate: held.map_or(0.0, |e| e.rate),
                    age_ms: held.map_or(0, |e| e.age_ms(now)),
                };
                Some((reply_node, set))
            }
            _ => None,
        }
    }

    /// The replica held for `owner`, if any.
    #[must_use]
    pub fn get(&self, owner: AgentId) -> Option<&ReplicaEntry> {
        self.entries.get(&owner)
    }

    /// Looks `target` up across every held replica, for freshness-bounded
    /// local reads: the last replicated node and the copy's age at `now`.
    /// Owners are scanned in raw-id order so concurrent copies (which
    /// cannot both own the key under single ownership) resolve
    /// deterministically.
    #[must_use]
    pub fn find(&self, target: AgentId, now: SimTime) -> Option<(NodeId, u64)> {
        let mut owners: Vec<&AgentId> = self.entries.keys().collect();
        owners.sort_unstable_by_key(|o| o.raw());
        for owner in owners {
            let entry = &self.entries[owner];
            if let Some(&node) = entry.records.get(&target) {
                return Some((node, entry.age_ms(now)));
            }
        }
        None
    }

    /// Forgets everything (the holder itself lost its soft state).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Where a recovering tracker is in its recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecoveryPhase {
    /// Waiting for the HAgent to grant a fresh epoch.
    AwaitEpoch,
    /// Epoch granted; waiting for the buddy's `ReplicaSet`.
    AwaitReplica,
    /// Replica installed (or none usable); soliciting re-registrations
    /// and answering from stale records until the set converges.
    Converging,
}

/// The recovery run of one restarted tracker.
#[derive(Debug)]
pub(crate) struct RecoveryState {
    /// Current phase.
    pub phase: RecoveryPhase,
    /// When recovery began (the restart).
    pub started: SimTime,
    /// Records recovered from the replica.
    pub recovered: usize,
    /// When the last epoch request / replica pull was sent, for retries.
    pub last_request: SimTime,
}

/// Decides whether a pulled replica may be used by a recovering tracker.
///
/// The fence: the replica must have been written by a **strictly older
/// epoch** of the same tracker. A replica stamped with the current (or a
/// later) epoch would mean another incarnation is concurrently alive —
/// its records must not be resurrected here. The per-record ownership
/// filter (does the agent still hash to this tracker?) is applied by the
/// caller against its current hash-function copy.
#[must_use]
pub(crate) fn replica_usable(replica_epoch: u64, my_epoch: u64) -> bool {
    replica_epoch < my_epoch
}

/// One IAgent's share of record durability, present only when
/// replication is on. The IAgent lends it the record book and an
/// ownership check, and learns when to flush its held locates and how
/// long a locate may be held.
#[derive(Debug)]
pub(crate) struct Durability {
    interval: SimDuration,
    recovery_timeout: SimDuration,
    hagent: (AgentId, NodeId),
    shared: SharedSchemeStats,
    /// Fallback buddy (the standby HAgent) when the tree has a single
    /// leaf, so no sibling-leaf buddy exists.
    pub(crate) standby: Option<(AgentId, NodeId)>,
    replicator: Replicator,
    /// Replicas held for buddy trackers. Never merged into the book or
    /// the `records_held` gauge: a replica is not ownership.
    store: ReplicaStore,
    recovery: Option<RecoveryState>,
}

impl Durability {
    /// `None` when `config` turns replication off.
    pub(crate) fn new(
        config: &LocationConfig,
        hagent: (AgentId, NodeId),
        shared: &SharedSchemeStats,
    ) -> Option<Self> {
        Some(Durability {
            interval: config.replication_interval?,
            recovery_timeout: config.recovery_timeout,
            hagent,
            shared: shared.clone(),
            standby: None,
            replicator: Replicator::default(),
            store: ReplicaStore::default(),
            recovery: None,
        })
    }

    /// The owner's record set changed.
    pub(crate) fn mark_dirty(&mut self) {
        self.replicator.mark_dirty();
    }

    /// The replica lives at the sibling leaf under `view`, else at the
    /// standby; a new buddy gets a prompt full snapshot.
    fn refresh_buddy(&mut self, view: &TrackerView) {
        self.replicator.set_buddy(view.buddy().or(self.standby));
    }

    /// A new view was installed: replication duty follows ownership.
    pub(crate) fn follow(&mut self, view: &TrackerView) {
        self.refresh_buddy(view);
        self.replicator.mark_dirty();
    }

    /// While recovering, a held locate waits until recovery ends: a late
    /// degraded answer beats a premature `NotFound`.
    pub(crate) fn locate_deadline(&self, normal: SimTime) -> SimTime {
        self.recovery.as_ref().map_or(normal, |rec| {
            normal.max(rec.started + self.recovery_timeout)
        })
    }

    /// `target`'s node and age in a replica held here.
    pub(crate) fn replica(&self, target: AgentId, now: SimTime) -> Option<(NodeId, u64)> {
        self.store.find(target, now)
    }

    /// The periodic timer: sends the book (and `rate`) to the buddy when
    /// a batch is due, then drives recovery. `view` is `None` before the
    /// owner's first install, with nothing to sync. `true`: recovery ended.
    pub(crate) fn on_timer(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        book: &mut RecordStore,
        view: Option<&TrackerView>,
        rate: f64,
    ) -> bool {
        // A recovering tracker must not sync under a not-yet-granted
        // epoch.
        let recovering = self.recovery.as_ref();
        let syncing = recovering.is_none_or(|r| r.phase == RecoveryPhase::Converging);
        let view = view.filter(|_| syncing);
        if let Some(view) = view {
            self.refresh_buddy(view);
        }
        if let Some((buddy, buddy_node)) = self
            .replicator
            .buddy
            .filter(|_| view.is_some() && self.replicator.due(ctx.now(), self.interval))
        {
            let epoch = self.replicator.epoch;
            let seq = self.replicator.cut_batch(ctx.now());
            let records = book.snapshot();
            let (me, count) = (ctx.self_id().raw(), records.len());
            self.shared.update(|s| s.record_syncs += 1);
            ctx.trace().emit(ctx.now(), || TraceEvent::RecordSync {
                tracker: me,
                buddy: buddy.raw(),
                records: count,
                epoch,
            });
            let reply_node = ctx.node();
            let sync = Wire::RecordSync {
                epoch,
                seq,
                records,
                rate,
                reply_node,
            };
            ctx.send(buddy, buddy_node, ctx.encode_owned(sync));
        }
        // Retry a lost epoch request or replica pull.
        if let Some(rec) = self.recovery.as_mut().filter(|rec| {
            rec.phase != RecoveryPhase::Converging
                && ctx.now().saturating_since(rec.last_request) >= REPLICATION_RETRY
        }) {
            rec.last_request = ctx.now();
            if rec.phase == RecoveryPhase::AwaitEpoch {
                ctx.send(
                    self.hagent.0,
                    self.hagent.1,
                    ctx.encode(&Wire::EpochRequest),
                );
            } else {
                self.pull_replica(ctx);
            }
        }
        self.finish_if_due(ctx, book)
    }

    /// Asks the buddy for its replica of this tracker's records.
    fn pull_replica(&self, ctx: &mut AgentCtx<'_>) {
        if let Some((buddy, buddy_node)) = self.replicator.buddy {
            let epoch = self.replicator.epoch;
            let reply_node = ctx.node();
            let pull = Wire::ReplicaPull { epoch, reply_node };
            ctx.send(buddy, buddy_node, ctx.encode(&pull));
        }
    }

    /// Ends recovery once converged (no stale tags left) or timed out.
    /// The owner calls it from every event that can clear the last stale
    /// tag, so recovery times are not quantised to the check tick.
    pub(crate) fn finish_if_due(&mut self, ctx: &mut AgentCtx<'_>, book: &mut RecordStore) -> bool {
        let Some(rec) = &self.recovery else {
            return false;
        };
        let stale_left = book.stale_count();
        let converged = rec.phase == RecoveryPhase::Converging && stale_left == 0;
        if !converged && ctx.now().saturating_since(rec.started) < self.recovery_timeout {
            return false;
        }
        let (me, recovered) = (ctx.self_id().raw(), rec.recovered);
        ctx.trace().emit(ctx.now(), || TraceEvent::RecoveryEnd {
            tracker: me,
            recovered,
            stale_left,
        });
        self.shared.update(|s| s.recoveries_completed += 1);
        // Unconfirmed records are no worse than any normal record, which
        // is also just the last reported node.
        book.confirm_all();
        self.recovery = None;
        true
    }

    /// The owner restarted: the set is re-synced. After a soft-state loss
    /// (the replicas held here are gone too) a `serving` owner recovers:
    /// a fresh epoch from the HAgent, then the buddy's replica.
    pub(crate) fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, lost: bool, serving: bool) {
        if lost {
            self.store.clear();
            self.recovery = serving.then(|| RecoveryState {
                phase: RecoveryPhase::AwaitEpoch,
                started: ctx.now(),
                recovered: 0,
                last_request: ctx.now(),
            });
            if serving {
                let me = ctx.self_id().raw();
                self.shared.update(|s| s.recoveries_started += 1);
                ctx.trace()
                    .emit(ctx.now(), || TraceEvent::RecoveryStart { tracker: me });
                ctx.send(
                    self.hagent.0,
                    self.hagent.1,
                    ctx.encode(&Wire::EpochRequest),
                );
            }
        }
        self.replicator.mark_dirty();
    }

    /// Handles `RecordSync`, `RecordSyncAck`, `ReplicaPull`, `EpochGrant`
    /// and `ReplicaSet`; `mine` tells which agents hash to the owner.
    /// `true`: records landed or recovery ended, so the owner serves its
    /// held locates and then ends recovery if that is due.
    pub(crate) fn on_message(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        from: AgentId,
        msg: Wire,
        book: &mut RecordStore,
        mine: impl Fn(AgentId) -> bool,
    ) -> bool {
        let now = ctx.now();
        let phase = self.recovery.as_ref().map(|rec| rec.phase);
        match msg {
            msg @ (Wire::RecordSync { .. } | Wire::ReplicaPull { .. }) => {
                if let Some((node, reply)) = self.store.serve(from, msg, now) {
                    ctx.send(from, node, ctx.encode_owned(reply));
                }
            }
            Wire::RecordSyncAck { epoch, seq } => self.replicator.on_ack(epoch, seq),
            // A late duplicate grant still sets the epoch future syncs
            // are stamped under; one mid-recovery is ignored.
            Wire::EpochGrant { epoch, .. } if phase.is_none() => {
                self.replicator.start_epoch(epoch);
            }
            Wire::EpochGrant { epoch, buddy } if phase == Some(RecoveryPhase::AwaitEpoch) => {
                self.replicator.start_epoch(epoch);
                let rec = self
                    .recovery
                    .as_mut()
                    .expect("a recovery phase implies a recovery");
                // With no buddy, nowhere a replica could live: converge
                // on re-registration traffic alone.
                rec.phase = match buddy {
                    Some(_) => RecoveryPhase::AwaitReplica,
                    None => RecoveryPhase::Converging,
                };
                rec.last_request = now;
                if buddy.is_none() {
                    return self.finish_if_due(ctx, book);
                }
                self.replicator.set_buddy(buddy);
                self.pull_replica(ctx);
            }
            Wire::ReplicaSet {
                epoch,
                records,
                age_ms,
                ..
            } if phase == Some(RecoveryPhase::AwaitReplica) => {
                let rec = self
                    .recovery
                    .as_mut()
                    .expect("a recovery phase implies a recovery");
                let source = Source::Replica { age_ms, at: now };
                // The epoch fence, then the ownership filter: only records
                // that still hash here may be resurrected, so a stale
                // replica cannot undo a handoff made after it was written.
                // Tombstones keep deregistered agents dead.
                let usable = replica_usable(epoch, self.replicator.epoch);
                for (agent, node) in records.into_iter().filter(|_| usable) {
                    if book.accept(agent, node, mine(agent), source) == Outcome::Stored {
                        rec.recovered += 1;
                        // Ask the agent to reconfirm from wherever it
                        // really is. Best effort: a bounce drops the
                        // resurrected record again.
                        ctx.send(agent, node, ctx.encode(&Wire::SolicitReregister));
                    }
                }
                rec.phase = RecoveryPhase::Converging;
                self.replicator.mark_dirty();
                return true;
            }
            _ => {}
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn replicator_batches_are_rate_limited_and_acked() {
        let mut r = Replicator::default();
        let interval = SimDuration::from_millis(100);
        assert!(!r.due(t(500), interval), "no buddy, nothing due");
        r.set_buddy(Some((AgentId::new(9), NodeId::new(1))));
        assert!(r.due(t(500), interval), "new buddy: full sync due");
        let seq = r.cut_batch(t(500));
        assert_eq!(seq, 1);
        assert!(!r.due(t(550), interval), "in flight, not yet overdue");
        assert!(r.due(t(800), interval), "unacked batch is retried");
        let seq2 = r.cut_batch(t(800));
        assert_eq!(seq2, 2, "retry gets a fresh seq");
        r.on_ack(0, 1);
        assert!(r.due(t(1200), interval), "stale ack does not clear");
        r.on_ack(0, 2);
        assert!(!r.due(t(1200), interval), "acked and clean");
        r.mark_dirty();
        assert!(!r.due(t(810), interval), "interval not yet elapsed");
        assert!(r.due(t(900), interval));
    }

    #[test]
    fn an_unacked_batch_is_retried_after_300_ms() {
        assert_eq!(REPLICATION_RETRY, SimDuration::from_millis(300));
        let mut r = Replicator::default();
        let interval = SimDuration::from_secs(5);
        r.set_buddy(Some((AgentId::new(9), NodeId::new(1))));
        let _ = r.cut_batch(t(1000));
        assert!(!r.due(t(1299), interval), "299 ms: still waiting");
        assert!(r.due(t(1300), interval), "300 ms: re-sent");
    }

    #[test]
    fn replicator_epoch_restart_resets_batches() {
        let mut r = Replicator::default();
        r.set_buddy(Some((AgentId::new(9), NodeId::new(1))));
        let _ = r.cut_batch(t(0));
        r.start_epoch(3);
        assert_eq!(r.epoch, 3);
        let seq = r.cut_batch(t(10));
        assert_eq!(seq, 1, "seq restarts with the epoch");
        r.on_ack(2, 1);
        assert!(
            r.due(t(1000), SimDuration::from_millis(1)),
            "ack from the old epoch is fenced out"
        );
    }

    #[test]
    fn replica_store_is_last_writer_wins_by_stamp() {
        let mut store = ReplicaStore::default();
        let owner = AgentId::new(4);
        let rec = |n: u64| vec![(AgentId::new(100), NodeId::new(n as u32))];
        assert!(store.apply_sync(owner, 1, 5, rec(1), 2.0, t(10)));
        assert!(
            !store.apply_sync(owner, 1, 4, rec(2), 2.0, t(20)),
            "older seq"
        );
        assert!(
            !store.apply_sync(owner, 0, 9, rec(3), 2.0, t(30)),
            "older epoch"
        );
        assert!(
            store.apply_sync(owner, 1, 5, rec(4), 2.0, t(40)),
            "same stamp re-applies"
        );
        assert!(
            store.apply_sync(owner, 2, 1, rec(5), 2.0, t(50)),
            "newer epoch wins"
        );
        assert_eq!(
            store.get(owner).unwrap().records[&AgentId::new(100)],
            NodeId::new(5)
        );
    }

    #[test]
    fn replica_age_tracks_the_last_applied_sync() {
        let mut store = ReplicaStore::default();
        let owner = AgentId::new(4);
        assert!(store.apply_sync(
            owner,
            1,
            1,
            vec![(AgentId::new(7), NodeId::new(2))],
            1.0,
            t(100)
        ));
        let entry = store.get(owner).unwrap();
        assert_eq!(entry.synced_at, t(100));
        assert_eq!(entry.age_ms(t(100)), 0);
        assert_eq!(entry.age_ms(t(350)), 250);
        // A rejected (stale) batch leaves the stamp untouched.
        let _ = store.apply_sync(owner, 0, 0, vec![], 1.0, t(400));
        assert_eq!(store.get(owner).unwrap().synced_at, t(100));
        // A newer batch refreshes it.
        assert!(store.apply_sync(owner, 1, 2, vec![], 1.0, t(500)));
        assert_eq!(store.get(owner).unwrap().age_ms(t(600)), 100);
    }

    #[test]
    fn buddy_duty_acks_every_sync_and_answers_pulls() {
        let mut store = ReplicaStore::default();
        let (owner, node) = (AgentId::new(4), NodeId::new(3));
        let rec = vec![(AgentId::new(7), NodeId::new(2))];
        let sync = |epoch, seq, records, rate| Wire::RecordSync {
            epoch,
            seq,
            records,
            rate,
            reply_node: node,
        };
        let pull = || Wire::ReplicaPull {
            epoch: 9,
            reply_node: node,
        };
        assert_eq!(
            store.serve(owner, sync(1, 2, rec.clone(), 3.0), t(100)),
            Some((node, Wire::RecordSyncAck { epoch: 1, seq: 2 }))
        );
        assert_eq!(
            store.serve(owner, sync(0, 9, Vec::new(), 1.0), t(200)),
            Some((node, Wire::RecordSyncAck { epoch: 0, seq: 9 })),
            "a stale batch is acked but not applied"
        );
        assert_eq!(
            store.serve(owner, pull(), t(350)),
            Some((
                node,
                Wire::ReplicaSet {
                    epoch: 1,
                    seq: 2,
                    records: rec,
                    rate: 3.0,
                    age_ms: 250,
                }
            ))
        );
        assert_eq!(
            store.serve(AgentId::new(5), pull(), t(350)),
            Some((
                node,
                Wire::ReplicaSet {
                    epoch: 0,
                    seq: 0,
                    records: Vec::new(),
                    rate: 0.0,
                    age_ms: 0,
                }
            )),
            "nothing held: an empty epoch-0 set"
        );
        assert_eq!(store.serve(owner, Wire::EpochRequest, t(400)), None);
    }

    #[test]
    fn epoch_fence_rejects_same_or_newer_epochs() {
        assert!(replica_usable(2, 3), "previous incarnation's replica");
        assert!(replica_usable(0, 3), "much older is still usable");
        assert!(!replica_usable(3, 3), "same epoch: concurrent incarnation");
        assert!(!replica_usable(4, 3), "future epoch: fenced");
    }
}
