//! The record book of one IAgent: the last reported node of every agent
//! it is responsible for (paper §2.2). Every record enters through
//! [`RecordStore::accept`], which applies the admission rules in one
//! place, whatever the source:
//!
//! * a tombstoned key is never re-inserted — not by a straggling
//!   `Register`/`Update`, a `Handoff` batch or a recovery replica;
//! * a key the tracker is not responsible for is refused;
//! * a direct report overwrites and confirms; a handed-off or replicated
//!   record only fills a gap. A replicated record is stale until confirmed.
//!
//! Callers pass the clock and the ownership verdict, so the store never
//! sees the platform.

use std::collections::{BTreeMap, BTreeSet};

use agentrack_platform::{AgentId, NodeId};
use agentrack_sim::{SimDuration, SimTime};

/// How long a deregistered agent's tombstone shields its key: long enough
/// to outlive any in-flight message from the dead sender, short enough
/// that the map stays bounded under sustained churn.
pub(crate) const TOMBSTONE_TTL: SimDuration = SimDuration::from_secs(10);

/// Where a record offered to [`RecordStore::accept`] comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// The agent itself reported its node (`Register` / `Update`).
    Direct,
    /// The previous owner handed the record over after a rehash.
    Handoff,
    /// A recovering tracker's buddy replica, already `age_ms` old when
    /// applied `at`.
    Replica { age_ms: u64, at: SimTime },
}

/// What [`RecordStore::accept`] did with an offered record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Stored: a new record, or a direct report replacing the old one.
    Stored,
    /// A record was already present and beats the offered one.
    Kept,
    /// The key is tombstoned; the offer is dropped.
    Tombstoned,
    /// The tracker is not responsible for the key.
    NotMine,
}

/// A looked-up record: the node, whether it is an unconfirmed recovery
/// record, and its age in milliseconds (0 when confirmed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub node: NodeId,
    pub stale: bool,
    pub age_ms: u64,
}

/// The records one IAgent owns, with their staleness, tombstones and
/// handoffs awaiting a destination.
#[derive(Debug, Default)]
pub(crate) struct RecordStore {
    /// Agent → last reported node. Ordered: handoff batches and replica
    /// snapshots iterate it.
    records: BTreeMap<AgentId, NodeId>,
    /// Recovered-but-unconfirmed records, answered with `stale: true`
    /// until a direct report reconfirms them.
    stale: BTreeSet<AgentId>,
    /// When the stale records were resurrected, and how old their replica
    /// already was: together they age every stale answer.
    stale_recovered_at: SimTime,
    stale_base_age_ms: u64,
    /// Tombstones for deregistered agents, keyed by when the deregister
    /// arrived; expired after [`TOMBSTONE_TTL`].
    departed: BTreeMap<AgentId, SimTime>,
    /// Handed-off records whose destination bounced, waiting for a newer
    /// hash function to re-dispatch them.
    unplaced: Vec<(AgentId, NodeId)>,
}

impl RecordStore {
    /// Offers `agent`'s record at `node`; `mine` is whether this tracker
    /// is responsible for the key under its current view.
    pub fn accept(&mut self, agent: AgentId, node: NodeId, mine: bool, source: Source) -> Outcome {
        if self.departed.contains_key(&agent) {
            return Outcome::Tombstoned;
        }
        if !mine {
            return Outcome::NotMine;
        }
        if source == Source::Direct {
            self.records.insert(agent, node);
            self.stale.remove(&agent);
            return Outcome::Stored;
        }
        if self.records.contains_key(&agent) {
            return Outcome::Kept;
        }
        self.records.insert(agent, node);
        if let Source::Replica { age_ms, at } = source {
            self.stale.insert(agent);
            self.stale_recovered_at = at;
            self.stale_base_age_ms = age_ms;
        }
        Outcome::Stored
    }

    /// The record for `agent`, aged at `now`.
    pub fn lookup(&self, agent: AgentId, now: SimTime) -> Option<Record> {
        let &node = self.records.get(&agent)?;
        let stale = self.stale.contains(&agent);
        let age_ms = if stale {
            let since = now.saturating_since(self.stale_recovered_at);
            self.stale_base_age_ms + since.as_millis_f64().ceil() as u64
        } else {
            0
        };
        Some(Record {
            node,
            stale,
            age_ms,
        })
    }

    /// The last reported node of `agent`, stale or not.
    pub fn node_of(&self, agent: AgentId) -> Option<NodeId> {
        self.records.get(&agent).copied()
    }

    /// `agent` deregistered at `now`: drops its record and tombstones the
    /// key. Returns whether a record was held.
    pub fn deregister(&mut self, agent: AgentId, now: SimTime) -> bool {
        self.stale.remove(&agent);
        self.departed.insert(agent, now);
        self.records.remove(&agent).is_some()
    }

    /// Drops `agent`'s record if it is still an unconfirmed recovery
    /// record (its owner turned out to be gone). Returns whether it was.
    pub fn drop_stale(&mut self, agent: AgentId) -> bool {
        // Every stale key has a record, so both removals succeed together.
        self.stale.remove(&agent) && self.records.remove(&agent).is_some()
    }

    /// Removes and returns, in key order, every record `mine` rejects (a
    /// new hash function moved its key elsewhere).
    pub fn take_foreign(&mut self, mine: impl Fn(AgentId) -> bool) -> Vec<(AgentId, NodeId)> {
        let mut moved = Vec::new();
        let stale = &mut self.stale;
        self.records.retain(|&agent, &mut node| {
            let keep = mine(agent);
            if !keep {
                moved.push((agent, node));
                stale.remove(&agent);
            }
            keep
        });
        moved
    }

    /// Forgets tombstones older than [`TOMBSTONE_TTL`]: any straggler from
    /// the dead sender has long since drained, and the key may be reused.
    pub fn expire_tombstones(&mut self, now: SimTime) {
        self.departed
            .retain(|_, &mut at| now.saturating_since(at) < TOMBSTONE_TTL);
    }

    /// Recovery ended: whatever is still unconfirmed stays as a
    /// best-effort record but loses its stale tag.
    pub fn confirm_all(&mut self) {
        self.stale.clear();
    }

    /// Number of unconfirmed recovery records.
    pub fn stale_count(&self) -> usize {
        self.stale.len()
    }

    /// Every record, in key order (a replica snapshot).
    pub fn snapshot(&self) -> Vec<(AgentId, NodeId)> {
        self.records.iter().map(|(&a, &n)| (a, n)).collect()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Parks handed-off records whose destination bounced.
    pub fn park_unplaced(&mut self, records: Vec<(AgentId, NodeId)>) {
        self.unplaced.extend(records);
    }

    /// Takes every parked record, for re-dispatch under a newer view.
    pub fn take_unplaced(&mut self) -> Vec<(AgentId, NodeId)> {
        std::mem::take(&mut self.unplaced)
    }

    /// `true` while bounced handoff records wait for a destination.
    pub fn has_unplaced(&self) -> bool {
        !self.unplaced.is_empty()
    }

    /// The tracker lost its soft state: records, stale tags and parked
    /// handoffs are gone. Tombstones survive, so a recovery replica
    /// written before a deregister cannot resurrect the agent.
    pub fn wipe(&mut self) {
        self.records.clear();
        self.stale.clear();
        self.unplaced.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn a(raw: u64) -> AgentId {
        AgentId::new(raw)
    }

    fn n(raw: u32) -> NodeId {
        NodeId::new(raw)
    }

    const REPLICA: Source = Source::Replica {
        age_ms: 40,
        at: SimTime::ZERO,
    };

    #[test]
    fn direct_reports_overwrite_and_gap_fillers_do_not() {
        let mut book = RecordStore::default();
        assert_eq!(
            book.accept(a(1), n(1), true, Source::Handoff),
            Outcome::Stored
        );
        assert_eq!(
            book.accept(a(1), n(2), true, Source::Direct),
            Outcome::Stored
        );
        assert_eq!(
            book.accept(a(1), n(3), true, Source::Handoff),
            Outcome::Kept,
            "a direct report beats a handed-off record"
        );
        assert_eq!(book.accept(a(1), n(4), true, REPLICA), Outcome::Kept);
        assert_eq!(book.node_of(a(1)), Some(n(2)));
        assert_eq!(
            book.accept(a(2), n(1), false, Source::Direct),
            Outcome::NotMine
        );
        assert_eq!(book.node_of(a(2)), None);
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn tombstones_refuse_every_source_until_they_expire() {
        let mut book = RecordStore::default();
        book.accept(a(1), n(1), true, Source::Direct);
        assert!(book.deregister(a(1), t(100)));
        assert!(!book.deregister(a(2), t(100)), "nothing held for a(2)");
        for source in [Source::Direct, Source::Handoff, REPLICA] {
            assert_eq!(
                book.accept(a(1), n(2), true, source),
                Outcome::Tombstoned,
                "{source:?}"
            );
        }
        assert_eq!(book.lookup(a(1), t(200)), None);
        book.expire_tombstones(t(100) + (TOMBSTONE_TTL - SimDuration::from_millis(1)));
        assert_eq!(
            book.accept(a(1), n(2), true, Source::Direct),
            Outcome::Tombstoned,
            "not yet expired"
        );
        book.expire_tombstones(t(100) + TOMBSTONE_TTL);
        assert_eq!(
            book.accept(a(1), n(2), true, Source::Direct),
            Outcome::Stored
        );
    }

    #[test]
    fn replica_records_are_stale_and_age_from_the_replica() {
        let mut book = RecordStore::default();
        book.accept(a(1), n(1), true, Source::Direct);
        let replica = Source::Replica {
            age_ms: 40,
            at: t(1000),
        };
        book.accept(a(2), n(2), true, replica);
        assert_eq!(
            book.lookup(a(1), t(1500)),
            Some(Record {
                node: n(1),
                stale: false,
                age_ms: 0
            })
        );
        assert_eq!(
            book.lookup(a(2), t(1500)),
            Some(Record {
                node: n(2),
                stale: true,
                age_ms: 40 + 500
            }),
            "replica age plus time since resurrection"
        );
        assert_eq!(book.stale_count(), 1);
        // A direct report reconfirms.
        book.accept(a(2), n(3), true, Source::Direct);
        assert_eq!(book.lookup(a(2), t(1700)).map(|r| r.age_ms), Some(0));
        assert_eq!(book.stale_count(), 0);
    }

    #[test]
    fn confirm_all_keeps_records_but_clears_stale_tags() {
        let mut book = RecordStore::default();
        book.accept(a(1), n(1), true, REPLICA);
        book.accept(a(2), n(2), true, REPLICA);
        assert_eq!(book.stale_count(), 2);
        book.confirm_all();
        assert_eq!(book.stale_count(), 0);
        assert_eq!(book.len(), 2);
        assert!(!book.lookup(a(1), t(10)).unwrap().stale);
    }

    #[test]
    fn drop_stale_removes_only_unconfirmed_records() {
        let mut book = RecordStore::default();
        book.accept(a(1), n(1), true, Source::Direct);
        book.accept(a(2), n(2), true, REPLICA);
        assert!(!book.drop_stale(a(1)));
        assert!(book.drop_stale(a(2)));
        assert_eq!(book.node_of(a(1)), Some(n(1)));
        assert_eq!(book.node_of(a(2)), None);
    }

    #[test]
    fn take_foreign_moves_rejected_keys_in_order() {
        let mut book = RecordStore::default();
        for raw in [5, 1, 4, 2, 3] {
            book.accept(a(raw), n(raw as u32), true, REPLICA);
        }
        let moved = book.take_foreign(|agent| agent.raw() % 2 == 0);
        assert_eq!(moved, vec![(a(1), n(1)), (a(3), n(3)), (a(5), n(5))]);
        assert_eq!(book.snapshot(), vec![(a(2), n(2)), (a(4), n(4))]);
        assert_eq!(book.stale_count(), 2, "moved keys take their tags along");
        assert_eq!(book.take_foreign(|_| false).len(), 2);
        assert_eq!(book.len(), 0);
    }

    #[test]
    fn wipe_forgets_soft_state_but_keeps_tombstones() {
        let mut book = RecordStore::default();
        book.accept(a(1), n(1), true, Source::Direct);
        book.accept(a(2), n(2), true, REPLICA);
        book.deregister(a(3), t(0));
        book.park_unplaced(vec![(a(4), n(4))]);
        assert!(book.has_unplaced());
        book.wipe();
        assert_eq!(book.len(), 0);
        assert_eq!(book.stale_count(), 0);
        assert!(!book.has_unplaced());
        assert_eq!(
            book.accept(a(3), n(3), true, REPLICA),
            Outcome::Tombstoned,
            "a replica written before the deregister stays dead"
        );
    }

    #[test]
    fn unplaced_records_are_parked_and_taken_once() {
        let mut book = RecordStore::default();
        book.park_unplaced(vec![(a(1), n(1))]);
        book.park_unplaced(vec![(a(2), n(2))]);
        assert_eq!(book.take_unplaced(), vec![(a(1), n(1)), (a(2), n(2))]);
        assert!(book.take_unplaced().is_empty());
    }
}
