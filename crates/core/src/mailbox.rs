//! Tracker-side mail buffering, for guaranteed delivery to fast movers.
//!
//! The paper closes its related work with the open problem of "guaranteed
//! agent discovery; that is, ensuring that the location of an agent is
//! found even if an agent moves faster than the requests for its location"
//! (§6, citing Moreau and Murphy–Picco). The locate-then-send pattern
//! loses that race: by the time the answer arrives, the agent has moved.
//!
//! This module implements the tracker-mediated alternative: a sender hands
//! the message to the location mechanism (`DeliverVia`), which routes it
//! to the responsible tracker; the tracker forwards it to the agent's
//! recorded node, and — the guarantee — if the agent is mid-flight, the
//! message waits in the tracker's [`Mailbox`] and rides out on the
//! agent's very next location update. The agent's updates are the one
//! signal that always outruns the agent.
//!
//! The [`Mailbox`] is also the tracker's mail desk: `buffer`, `flush_for`,
//! `expire_lost` and `wipe` do the buffering together with its books —
//! the `mail_buffered` / `mail_flushed` / `mail_lost` counters of the
//! tracker's metrics row and the `MailBuffered` / `MailFlushed` /
//! `MailExpired` trace events — so every tracker that holds mail (IAgent,
//! central tracker, home registry) accounts for it identically. A tracker
//! still decides *when*: which requests reveal a location, whether a
//! bounce drops the record, where mail for a key that hashed away goes.

use agentrack_platform::{AgentCtx, AgentId, NodeId};
use agentrack_sim::{SimDuration, SimTime, TraceEvent};

use crate::scheme::SharedSchemeStats;
use crate::wire::Wire;

/// One buffered message awaiting its recipient's next location update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MailItem {
    /// The recipient.
    pub target: AgentId,
    /// The original sender (restored as the `from` of the final delivery).
    pub from: AgentId,
    /// The application payload bytes.
    pub data: Vec<u8>,
    /// When the item expires undelivered.
    pub deadline: SimTime,
}

/// A tracker's buffer of undeliverable-right-now messages.
///
/// # Examples
///
/// ```
/// use agentrack_core::Mailbox;
/// use agentrack_platform::AgentId;
/// use agentrack_sim::{SimDuration, SimTime};
///
/// let mut mailbox = Mailbox::new(SimDuration::from_secs(10));
/// mailbox.push(SimTime::ZERO, AgentId::new(7), AgentId::new(1), vec![1, 2]);
/// let out = mailbox.take_for(AgentId::new(7));
/// assert_eq!(out.len(), 1);
/// assert!(mailbox.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mailbox {
    items: Vec<MailItem>,
    ttl: SimDuration,
}

impl Mailbox {
    /// Creates an empty mailbox whose items expire after `ttl`.
    #[must_use]
    pub fn new(ttl: SimDuration) -> Self {
        Mailbox {
            items: Vec::new(),
            ttl,
        }
    }

    /// Buffers a message for `target`.
    pub fn push(&mut self, now: SimTime, target: AgentId, from: AgentId, data: Vec<u8>) {
        self.items.push(MailItem {
            target,
            from,
            data,
            deadline: now + self.ttl,
        });
    }

    /// Removes and returns every buffered message for `target` (its
    /// location just became known).
    #[must_use]
    pub fn take_for(&mut self, target: AgentId) -> Vec<MailItem> {
        let (out, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.items)
            .into_iter()
            .partition(|m| m.target == target);
        self.items = keep;
        out
    }

    /// Re-routes every buffered item through `route`: items whose target no
    /// longer belongs to this tracker are drained and handed to the
    /// closure (used after a rehash installs a new hash-function version).
    pub fn drain_if(&mut self, mut gone: impl FnMut(&MailItem) -> bool) -> Vec<MailItem> {
        let (out, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.items)
            .into_iter()
            .partition(|m| gone(m));
        self.items = keep;
        out
    }

    /// Drops expired items, returning how many were lost.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.items.len();
        self.items.retain(|m| m.deadline > now);
        before - self.items.len()
    }

    /// Buffers mail for `target` on behalf of the tracker `ctx` runs,
    /// counting it (and the resulting occupancy) in the tracker's metrics
    /// row and the event trace.
    pub(crate) fn buffer(
        &mut self,
        ctx: &AgentCtx<'_>,
        stats: &SharedSchemeStats,
        target: AgentId,
        from: AgentId,
        data: Vec<u8>,
    ) {
        self.push(ctx.now(), target, from, data);
        let occupancy = self.len();
        let me = ctx.self_id().raw();
        stats.update_tracker(me, |t| {
            t.mail_buffered += 1;
            t.observe_mailbox(occupancy);
        });
        ctx.trace().emit(ctx.now(), || TraceEvent::MailBuffered {
            tracker: me,
            target: target.raw(),
            occupancy,
        });
    }

    /// `agent` just turned up at `node`: sends it everything buffered for
    /// it as `MailDrop`s, counted as flushed.
    pub(crate) fn flush_for(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        stats: &SharedSchemeStats,
        agent: AgentId,
        node: NodeId,
    ) {
        if self.is_empty() {
            return;
        }
        let items = self.take_for(agent);
        if items.is_empty() {
            return;
        }
        let count = items.len();
        let me = ctx.self_id().raw();
        stats.update_tracker(me, |t| t.mail_flushed += count as u64);
        ctx.trace().emit(ctx.now(), || TraceEvent::MailFlushed {
            tracker: me,
            target: agent.raw(),
            count,
        });
        for item in items {
            let drop = Wire::MailDrop {
                from: item.from,
                data: item.data,
            };
            ctx.send(agent, node, ctx.encode_owned(drop));
        }
    }

    /// Drops expired items. Guaranteed delivery just failed silently for
    /// each of them, so the loss is made visible in the tracker's metrics
    /// row and the event trace.
    pub(crate) fn expire_lost(&mut self, ctx: &AgentCtx<'_>, stats: &SharedSchemeStats) {
        let lost = self.expire(ctx.now());
        Self::account_lost(ctx, stats, lost);
    }

    /// The tracker lost its soft state: everything buffered is gone for
    /// good, and counted as lost.
    pub(crate) fn wipe(&mut self, ctx: &AgentCtx<'_>, stats: &SharedSchemeStats) {
        let lost = std::mem::take(&mut self.items).len();
        Self::account_lost(ctx, stats, lost);
    }

    fn account_lost(ctx: &AgentCtx<'_>, stats: &SharedSchemeStats, lost: usize) {
        if lost == 0 {
            return;
        }
        let me = ctx.self_id().raw();
        stats.update_tracker(me, |t| t.mail_lost += lost as u64);
        ctx.trace()
            .emit(ctx.now(), || TraceEvent::MailExpired { tracker: me, lost });
    }

    /// Number of buffered items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Hop budget for tracker-to-tracker mail routing: chases across stale
/// copies converge within a few rehash generations; past this many hops
/// something is wrong and the mail is dropped rather than looped.
pub const MAIL_MAX_HOPS: u32 = 8;

/// How long a tracker buffers mediated mail (`DeliverVia`) for an agent
/// whose location is momentarily unknown before dropping it.
pub(crate) const MAIL_TTL: SimDuration = SimDuration::from_secs(10);

#[cfg(test)]
mod tests {
    use super::*;

    fn item_data(items: &[MailItem]) -> Vec<&[u8]> {
        items.iter().map(|m| m.data.as_slice()).collect()
    }

    #[test]
    fn push_take_roundtrip() {
        let mut mb = Mailbox::new(SimDuration::from_secs(1));
        mb.push(SimTime::ZERO, AgentId::new(1), AgentId::new(9), vec![1]);
        mb.push(SimTime::ZERO, AgentId::new(2), AgentId::new(9), vec![2]);
        mb.push(SimTime::ZERO, AgentId::new(1), AgentId::new(8), vec![3]);
        assert_eq!(mb.len(), 3);
        let for_one = mb.take_for(AgentId::new(1));
        assert_eq!(item_data(&for_one), [&[1u8][..], &[3u8][..]]);
        assert_eq!(mb.len(), 1);
        assert!(mb.take_for(AgentId::new(3)).is_empty());
    }

    #[test]
    fn expiry_drops_old_items() {
        let mut mb = Mailbox::new(SimDuration::from_secs(1));
        mb.push(SimTime::ZERO, AgentId::new(1), AgentId::new(9), vec![1]);
        let later = SimTime::ZERO + SimDuration::from_millis(500);
        mb.push(later, AgentId::new(2), AgentId::new(9), vec![2]);
        assert_eq!(mb.expire(SimTime::ZERO + SimDuration::from_millis(1100)), 1);
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.expire(SimTime::ZERO + SimDuration::from_secs(2)), 1);
        assert!(mb.is_empty());
    }

    #[test]
    fn trackers_keep_mail_for_ten_seconds() {
        assert_eq!(MAIL_TTL, SimDuration::from_secs(10));
        let mut mb = Mailbox::new(MAIL_TTL);
        let at = SimTime::ZERO + SimDuration::from_millis(250);
        mb.push(at, AgentId::new(1), AgentId::new(9), vec![1]);
        let kept = at + SimDuration::from_millis(9_999);
        assert_eq!(mb.expire(kept), 0);
        assert_eq!(
            mb.expire(at + SimDuration::from_secs(10)),
            1,
            "lost at the TTL"
        );
    }

    #[test]
    fn drain_if_partitions() {
        let mut mb = Mailbox::new(SimDuration::from_secs(1));
        for i in 0..6u64 {
            mb.push(
                SimTime::ZERO,
                AgentId::new(i),
                AgentId::new(9),
                vec![i as u8],
            );
        }
        let drained = mb.drain_if(|m| m.target.raw() % 2 == 0);
        assert_eq!(drained.len(), 3);
        assert_eq!(mb.len(), 3);
    }
}
