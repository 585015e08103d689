//! Record durability: buddy replication state and epoch-fenced recovery.
//!
//! The paper replicates only the hash *function* (HAgent standby, lazy
//! LHAgent copies); the location *records* are soft state, and a tracker
//! crash makes every settled agent it served unlocatable until the agent
//! happens to move again. This module holds the state machines that close
//! that gap:
//!
//! * [`Replicator`] — the outbound side: an IAgent batches its full record
//!   set into version-stamped `RecordSync` messages for its **buddy
//!   replica** (the sibling leaf under the hash tree, or the configured
//!   standby when the tree has one leaf), with ack/retry.
//! * [`ReplicaStore`] — the inbound side: the replica copies a tracker
//!   holds on behalf of others, stamped with the owner's `(epoch, seq)`.
//! * [`RecoveryState`] — the phase machine a restarted tracker runs after
//!   soft-state loss: get a fresh epoch from the HAgent (fencing out
//!   replicas written by incarnations whose ownership was since handed
//!   off), pull the buddy's replica, solicit re-registrations, and answer
//!   locates from stale records until the set converges.

use std::collections::{BTreeMap, HashMap};

use agentrack_platform::{AgentId, NodeId};
use agentrack_sim::{SimDuration, SimTime};

use crate::wire::Wire;

/// How long an unacknowledged `RecordSync` batch waits before it is
/// re-sent to the buddy, and a recovering tracker before it repeats an
/// unanswered epoch request or replica pull.
pub(crate) const REPLICATION_RETRY: SimDuration = SimDuration::from_millis(300);

/// Outbound replication state of one IAgent.
#[derive(Debug, Default)]
pub struct Replicator {
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
pub struct ReplicaEntry {
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
pub struct ReplicaStore {
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

    /// Buddy duty for a `RecordSync` from `owner`: applies the batch (see
    /// [`Self::apply_sync`]) and returns the `RecordSyncAck` to send back.
    /// A stale batch is acked too, so the owner stops retrying it.
    pub fn store_sync(
        &mut self,
        owner: AgentId,
        epoch: u64,
        seq: u64,
        records: Vec<(AgentId, NodeId)>,
        rate: f64,
        now: SimTime,
    ) -> Wire {
        self.apply_sync(owner, epoch, seq, records, rate, now);
        Wire::RecordSyncAck { epoch, seq }
    }

    /// Buddy duty for a `ReplicaPull` from `owner`: the `ReplicaSet` of
    /// whatever is held for it, stamped as written (the puller fences
    /// against its fresh epoch), or an empty epoch-0 set.
    #[must_use]
    pub fn answer_pull(&self, owner: AgentId, now: SimTime) -> Wire {
        let held = self.get(owner);
        Wire::ReplicaSet {
            epoch: held.map_or(0, |e| e.epoch),
            seq: held.map_or(0, |e| e.seq),
            records: held.map_or_else(Vec::new, |e| {
                e.records.iter().map(|(&a, &n)| (a, n)).collect()
            }),
            rate: held.map_or(0.0, |e| e.rate),
            age_ms: held.map_or(0, |e| e.age_ms(now)),
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

    /// Drops the replica held for `owner` (it pulled its records back, or
    /// duty moved elsewhere).
    pub fn remove(&mut self, owner: AgentId) -> Option<ReplicaEntry> {
        self.entries.remove(&owner)
    }

    /// Number of owners with a stored replica.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no replicas are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets everything (the holder itself lost its soft state).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Where a recovering tracker is in its recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
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
pub struct RecoveryState {
    /// Current phase.
    pub phase: RecoveryPhase,
    /// When recovery began (the restart).
    pub started: SimTime,
    /// Records recovered from the replica.
    pub recovered: usize,
    /// When the last epoch request / replica pull was sent, for retries.
    pub last_request: SimTime,
}

impl RecoveryState {
    /// Starts a recovery at `now`, in the epoch-request phase.
    #[must_use]
    pub fn new(now: SimTime) -> Self {
        RecoveryState {
            phase: RecoveryPhase::AwaitEpoch,
            started: now,
            recovered: 0,
            last_request: now,
        }
    }
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
pub fn replica_usable(replica_epoch: u64, my_epoch: u64) -> bool {
    replica_epoch < my_epoch
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
        assert_eq!(store.len(), 1);
        store.remove(owner);
        assert!(store.is_empty());
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
        let owner = AgentId::new(4);
        let rec = vec![(AgentId::new(7), NodeId::new(2))];
        assert_eq!(
            store.store_sync(owner, 1, 2, rec.clone(), 3.0, t(100)),
            Wire::RecordSyncAck { epoch: 1, seq: 2 }
        );
        assert_eq!(
            store.store_sync(owner, 0, 9, Vec::new(), 1.0, t(200)),
            Wire::RecordSyncAck { epoch: 0, seq: 9 },
            "a stale batch is acked but not applied"
        );
        assert_eq!(
            store.answer_pull(owner, t(350)),
            Wire::ReplicaSet {
                epoch: 1,
                seq: 2,
                records: rec,
                rate: 3.0,
                age_ms: 250,
            }
        );
        assert_eq!(
            store.answer_pull(AgentId::new(5), t(350)),
            Wire::ReplicaSet {
                epoch: 0,
                seq: 0,
                records: Vec::new(),
                rate: 0.0,
                age_ms: 0,
            },
            "nothing held: an empty epoch-0 set"
        );
    }

    #[test]
    fn epoch_fence_rejects_same_or_newer_epochs() {
        assert!(replica_usable(2, 3), "previous incarnation's replica");
        assert!(replica_usable(0, 3), "much older is still usable");
        assert!(!replica_usable(3, 3), "same epoch: concurrent incarnation");
        assert!(!replica_usable(4, 3), "future epoch: fenced");
    }
}
