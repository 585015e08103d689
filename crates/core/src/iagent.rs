//! The Information Agent (IAgent): tracks the precise current location of
//! the mobile agents assigned to it by the hash function.
//!
//! Responsibilities (paper §2.2–§4):
//!
//! * answer `Register` / `Update` / `Locate` requests for agents whose key
//!   hashes to its leaf, and answer `NotResponsible` for agents that do not
//!   (the stale-copy detection that drives update propagation);
//! * maintain the request-rate statistics and ask the HAgent to **split**
//!   when the rate exceeds `T_max` or to **merge** it away when the rate
//!   falls below `T_min`;
//! * on receiving a new hash-function version, **hand off** records that no
//!   longer hash to it — or everything, plus dispose itself, if its leaf
//!   was merged away;
//! * buffer locate queries for agents that hash to it but whose records are
//!   still in flight (handoff races), answering when the handoff lands or
//!   the pending timeout expires.

use std::collections::{BTreeMap, HashMap};

use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, TimerId};
use agentrack_sim::{CorrId, SimTime, TraceEvent};

use crate::config::LocationConfig;
use crate::hashed::BOUNCE_RETRY_DELAY;
use crate::hashfn::HashFunction;
use crate::mailbox::{Mailbox, MAIL_MAX_HOPS, MAIL_TTL};
use crate::records::{Outcome, Record, RecordStore, Source};
use crate::replica::{
    replica_usable, RecoveryPhase, RecoveryState, ReplicaStore, Replicator, REPLICATION_RETRY,
};
use crate::scheme::{CopyRole, SharedSchemeStats};
use crate::stats::LoadStats;
use crate::view::TrackerView;
use crate::wire::{send_traced, DenyReason, Freshness, Wire};

/// A locate being served: answered at once, or buffered until its record
/// arrives or its deadline passes.
#[derive(Debug, Clone)]
struct PendingLocate {
    target: AgentId,
    requester: AgentId,
    reply_node: NodeId,
    token: u64,
    freshness: Freshness,
    corr: Option<CorrId>,
    deadline: SimTime,
}

impl PendingLocate {
    fn reply(&self, ctx: &mut AgentCtx<'_>, msg: &Wire) {
        send_traced(ctx, self.requester, self.reply_node, msg);
    }

    fn located(&self, record: Record) -> Wire {
        Wire::Located {
            target: self.target,
            node: record.node,
            stale: record.stale,
            age_ms: record.age_ms,
            token: self.token,
            corr: self.corr,
        }
    }

    fn not_responsible(&self) -> Wire {
        Wire::NotResponsible {
            about: self.target,
            token: Some(self.token),
            corr: self.corr,
        }
    }
}

/// Behaviour of an IAgent.
#[derive(Debug)]
pub struct IAgentBehavior {
    config: LocationConfig,
    hagent: AgentId,
    hagent_node: NodeId,
    /// The installed hash-function version, as this tracker needs it.
    view: TrackerView,
    /// The bootstrap IAgent's copy, kept only until `on_create` learns
    /// this tracker's id and binds the view's own-leaf facts to it.
    boot: Option<Box<HashFunction>>,
    /// The records this tracker owns, with their staleness, tombstones
    /// and bounced handoffs.
    book: RecordStore,
    stats: LoadStats,
    shared: SharedSchemeStats,
    /// Fresh IAgents (created mid-split) must report ready and wait for
    /// their first install.
    fresh: bool,
    /// The rehash lease this fresh IAgent was created under; echoed in
    /// `IAgentReady` so the HAgent commits the right lease (and ignores
    /// orphans of aborted ones).
    lease: u64,
    installed: bool,
    created_at: SimTime,
    /// When this tracker's own outstanding split/merge request was sent,
    /// if one is in flight. Cleared by the answer (an install that changes
    /// this tracker's partition, or a denial) or by the lease-timeout
    /// give-up in `on_timer`.
    rehash_request: Option<SimTime>,
    /// This tracker must not re-ask for a rehash before this instant. Set
    /// per cause: after its partition changed, or per [`DenyReason`] on a
    /// denial — *not* by installs of versions that left its partition
    /// alone (those used to silence an overdue split here).
    rehash_backoff_until: SimTime,
    pending: Vec<PendingLocate>,
    /// Client requests that arrived before the first install; replayed once
    /// the hash function lands (a fresh IAgent receives traffic the moment
    /// the HAgent commits the split, possibly before its install message).
    preinstall: Vec<(AgentId, Wire)>,
    refetch_in_flight: bool,
    /// When the refetch was sent; a reply overdue (lost, or bounced off
    /// this IAgent's old node after a locality migration) re-arms it.
    refetch_sent_at: SimTime,
    /// Mediated mail awaiting its recipient's next location update
    /// (guaranteed-delivery extension).
    mailbox: Mailbox,
    /// Recent request origins, for the locality extension: which node the
    /// served agents (and queriers) talk from.
    origin_counts: HashMap<NodeId, u64>,
    /// Set while a locality migration is in flight.
    relocating: bool,
    /// Protocol messages handled since birth; copied into the metrics
    /// registry on the periodic timer (so the hot path takes no lock).
    requests_seen: u64,
    /// When the last periodic version audit ran (chaos runs only; see
    /// [`LocationConfig::version_audit`]).
    last_audit: SimTime,
    /// Fallback buddy (the standby HAgent) when the tree has a single
    /// leaf, so no sibling-leaf buddy exists.
    standby: Option<(AgentId, NodeId)>,
    /// Outbound replication of this tracker's records to its buddy.
    replicator: Replicator,
    /// Replica copies held on behalf of buddy trackers. Never merged into
    /// `book` or the `records_held` gauge: a replica is not ownership.
    replica_store: ReplicaStore,
    /// The recovery run after a soft-state-losing restart, if any.
    recovery: Option<RecoveryState>,
}

impl IAgentBehavior {
    /// The bootstrap IAgent: owns the whole key space from the start.
    #[must_use]
    pub fn initial(
        config: LocationConfig,
        hagent: AgentId,
        hagent_node: NodeId,
        hf: HashFunction,
        shared: SharedSchemeStats,
    ) -> Self {
        let view = TrackerView::new(&hf, None);
        let mut iagent = Self::build(config, hagent, hagent_node, view, shared, false);
        iagent.boot = Some(Box::new(hf));
        iagent
    }

    /// An IAgent created by the HAgent during a split; reports ready and
    /// waits for its install. Until then it routes what reaches it (early
    /// handoffs, mail) under `view`, the HAgent's copy at creation.
    #[must_use]
    pub fn fresh(
        config: LocationConfig,
        hagent: AgentId,
        hagent_node: NodeId,
        view: TrackerView,
        shared: SharedSchemeStats,
    ) -> Self {
        Self::build(config, hagent, hagent_node, view, shared, true)
    }

    fn build(
        config: LocationConfig,
        hagent: AgentId,
        hagent_node: NodeId,
        view: TrackerView,
        shared: SharedSchemeStats,
        fresh: bool,
    ) -> Self {
        let stats = LoadStats::new(config.rate_window);
        let mailbox = Mailbox::new(MAIL_TTL);
        IAgentBehavior {
            config,
            hagent,
            hagent_node,
            view,
            boot: None,
            book: RecordStore::default(),
            stats,
            shared,
            fresh,
            lease: 0,
            installed: !fresh,
            created_at: SimTime::ZERO,
            rehash_request: None,
            rehash_backoff_until: SimTime::ZERO,
            pending: Vec::new(),
            preinstall: Vec::new(),
            refetch_in_flight: false,
            refetch_sent_at: SimTime::ZERO,
            mailbox,
            origin_counts: HashMap::new(),
            relocating: false,
            requests_seen: 0,
            last_audit: SimTime::ZERO,
            standby: None,
            replicator: Replicator::default(),
            replica_store: ReplicaStore::default(),
            recovery: None,
        }
    }

    /// Sets the standby fallback buddy: where this tracker replicates when
    /// the tree has a single leaf (no sibling) and during recovery when the
    /// HAgent knows no better.
    #[must_use]
    pub fn with_standby(mut self, standby: Option<(AgentId, NodeId)>) -> Self {
        self.standby = standby;
        self
    }

    /// Stamps a fresh IAgent with the rehash lease it was created under.
    #[must_use]
    pub fn with_lease(mut self, lease: u64) -> Self {
        self.lease = lease;
        self
    }

    /// Whether `agent` hashes here. Never before the first install: a
    /// fresh IAgent's bootstrap view predates its own leaf.
    fn is_mine(&self, ctx: &AgentCtx<'_>, agent: AgentId) -> bool {
        self.installed && self.view.is_responsible(ctx.self_id(), agent)
    }

    fn send_hagent(&self, ctx: &mut AgentCtx<'_>, msg: &Wire) {
        ctx.send(self.hagent, self.hagent_node, msg.payload());
    }

    /// Asks the HAgent for its primary copy of the hash function. A view
    /// cannot apply rehash ops, so the fetch claims no whole copy
    /// (`have_version: 0`) and is answered with one.
    fn fetch_hash_fn(&self, ctx: &mut AgentCtx<'_>) {
        let fetch = Wire::FetchHashFn {
            have_version: 0,
            reply_node: ctx.node(),
        };
        self.send_hagent(ctx, &fetch);
    }

    /// Fetches a newer view to re-dispatch bounced handoff records under;
    /// `HashFnCopy` answers it.
    fn refetch(&mut self, ctx: &mut AgentCtx<'_>) {
        self.refetch_in_flight = true;
        self.refetch_sent_at = ctx.now();
        self.fetch_hash_fn(ctx);
    }

    /// Records where a request came from, for locality decisions.
    fn note_origin(&mut self, node: NodeId) {
        if self.config.locality_migration {
            *self.origin_counts.entry(node).or_insert(0) += 1;
        }
    }

    /// Locality check (paper §7 extension): move to the node originating
    /// the majority of recent traffic.
    fn maybe_relocate(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.config.locality_migration
            || self.relocating
            || !self.installed
            || self.rehash_request.is_some()
            // Migrating now would bounce the pending hash-function reply at
            // the old node and strand the unplaced records.
            || self.refetch_in_flight
            || self.book.has_unplaced()
        {
            return;
        }
        let total: u64 = self.origin_counts.values().sum();
        if total < self.config.locality_min_requests {
            return;
        }
        let (&top, &count) = self
            .origin_counts
            .iter()
            .max_by_key(|&(node, count)| (*count, std::cmp::Reverse(node.raw())))
            .expect("total > 0 implies an entry");
        self.origin_counts.clear();
        if top != ctx.node() && count as f64 / total as f64 >= self.config.locality_threshold {
            self.relocating = true;
            ctx.dispatch(top);
        }
    }

    /// Split check, run after every recorded request.
    fn maybe_request_split(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.rehash_request.is_some() || ctx.now() < self.rehash_backoff_until || !self.installed
        {
            return;
        }
        let rate = self.stats.rate_per_sec(ctx.now());
        if rate > self.config.t_max {
            let loads = self.stats.loads();
            self.rehash_request = Some(ctx.now());
            self.send_hagent(ctx, &Wire::SplitRequest { rate, loads });
        }
    }

    /// Merge check, run from the periodic timer so idle IAgents notice.
    fn maybe_request_merge(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.config.merge_enabled
            || self.rehash_request.is_some()
            || ctx.now() < self.rehash_backoff_until
            || !self.installed
            || ctx.now().saturating_since(self.created_at) < self.config.merge_warmup
            || self.view.leaf_count() <= 1
        {
            return;
        }
        let rate = self.stats.rate_per_sec(ctx.now());
        if rate < self.config.t_min {
            self.rehash_request = Some(ctx.now());
            self.send_hagent(ctx, &Wire::MergeRequest { rate });
        }
    }

    /// Installs a new hash-function version, built from a whole copy or
    /// from an install image: hand off records that no longer hash here;
    /// dispose if this leaf was merged away.
    fn install(&mut self, ctx: &mut AgentCtx<'_>, view: TrackerView) {
        if view.version() <= self.view.version() && self.installed {
            return; // stale or duplicate install
        }
        let first_install = !self.installed;
        let label_before = self.view.own_label().cloned().filter(|_| !first_install);
        self.view = view;
        self.installed = true;
        self.shared
            .record_version(ctx.self_id().raw(), CopyRole::Tracker, self.view.version());
        // The post-install cooldown is scoped to versions that changed
        // *this tracker's* partition (its hyper-label moved, it was merged
        // away, or this is its first view). A rehash in a distant subtree
        // changes nothing here: the observed rate still describes the
        // current partition, and an overdue split request must not be
        // silenced by it.
        if first_install || self.view.own_label() != label_before.as_ref() {
            self.rehash_request = None;
            self.rehash_backoff_until = ctx.now() + self.config.rehash_cooldown;
            // Fresh epoch: rate observed against the old partition must
            // not trigger another rehash of the new one.
            self.stats.reset(ctx.now());
        }
        if first_install {
            let buffered = std::mem::take(&mut self.preinstall);
            for (from, msg) in buffered {
                self.handle_wire(ctx, from, msg);
            }
        }

        // Evict what now hashes elsewhere — everything if this leaf was
        // merged away: records are handed off, buffered mail chases its
        // key's new tracker, and pending queries bounce back.
        let self_id = ctx.self_id();
        let view = &self.view;
        let mine = |agent| view.is_responsible(self_id, agent);
        let moved = self.book.take_foreign(mine);
        let moved_mail = self.mailbox.drain_if(|item| !mine(item.target));
        let (stay, bounce): (Vec<_>, Vec<_>) = self.pending.drain(..).partition(|p| mine(p.target));
        self.pending = stay;
        for (agent, _) in &moved {
            self.stats.forget(*agent);
        }
        self.dispatch_handoffs(ctx, moved);
        for item in moved_mail {
            self.forward_mail(ctx, item.target, item.from, item.data, MAIL_MAX_HOPS);
        }
        for p in bounce {
            p.reply(ctx, &p.not_responsible());
        }

        if self.view.own_label().is_none() {
            ctx.dispose(); // merged away: everything is handed off
            return;
        }
        // Replication duty follows ownership: the sibling leaf may have
        // changed, and the (possibly shrunk or grown) record set should
        // reach the buddy under the new partition promptly.
        self.refresh_buddy();
        self.replicator.mark_dirty();
    }

    /// Groups records by their new owner and sends handoffs.
    fn dispatch_handoffs(&mut self, ctx: &mut AgentCtx<'_>, records: Vec<(AgentId, NodeId)>) {
        if records.is_empty() {
            return;
        }
        let mut by_owner: BTreeMap<AgentId, (NodeId, Vec<(AgentId, NodeId)>)> = BTreeMap::new();
        for (agent, node) in records {
            let (owner, owner_node) = self.view.resolve(agent);
            by_owner
                .entry(owner)
                .or_insert_with(|| (owner_node, Vec::new()))
                .1
                .push((agent, node));
        }
        let mut total = 0u64;
        for (owner, (owner_node, recs)) in by_owner {
            total += recs.len() as u64;
            ctx.send(owner, owner_node, Wire::Handoff { records: recs }.payload());
        }
        self.shared.update(|s| s.records_handed_off += total);
    }

    /// Routes mail toward `target`'s tracker under this view.
    fn forward_mail(
        &self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        from: AgentId,
        data: Vec<u8>,
        ttl: u32,
    ) {
        let (owner, node) = self.view.resolve(target);
        let mail = Wire::DeliverVia {
            target,
            from,
            data,
            ttl,
        };
        ctx.send(owner, node, mail.payload());
    }

    /// Mail can flow the moment a record (re)appears for `agent`.
    fn flush_mail_for(&mut self, ctx: &mut AgentCtx<'_>, agent: AgentId) {
        if let Some(node) = self.book.node_of(agent) {
            self.mailbox
                .flush_for(ctx, self.shared.registry(), agent, node);
        }
    }

    /// Serves buffered locates whose records arrived. A pending locate
    /// whose freshness bound the record still fails (a `Fresh` read
    /// against a yet-unconfirmed recovery record, say) keeps waiting for
    /// reconfirmation until its deadline.
    fn flush_pending(&mut self, ctx: &mut AgentCtx<'_>) {
        let mut still = Vec::new();
        for p in std::mem::take(&mut self.pending) {
            let admitted = self
                .book
                .lookup(p.target, ctx.now())
                .filter(|record| p.freshness.admits(record.age_ms));
            if let Some(record) = admitted {
                self.shared.update(|s| s.pending_served += 1);
                self.answer_located(ctx, &p, record);
            } else if ctx.now() >= p.deadline {
                let not_found = Wire::NotFound {
                    target: p.target,
                    token: p.token,
                    corr: p.corr,
                };
                p.reply(ctx, &not_found);
            } else {
                still.push(p);
            }
        }
        self.pending = still;
    }

    /// Answers a locate positively, `stale` for a recovered-but-unconfirmed
    /// record (degraded mode). Callers check the freshness bound first.
    fn answer_located(&mut self, ctx: &mut AgentCtx<'_>, p: &PendingLocate, record: Record) {
        if record.stale {
            let me = ctx.self_id().raw();
            self.shared.update(|s| s.stale_answers += 1);
            ctx.trace().emit(ctx.now(), || TraceEvent::StaleAnswer {
                tracker: me,
                target: p.target.raw(),
            });
        }
        p.reply(ctx, &p.located(record));
    }

    /// Recomputes where this tracker's replica should live: the sibling
    /// leaf under the current tree, falling back to the standby. A buddy
    /// change marks the set dirty, so splits and merges transfer
    /// replication duty with a prompt full snapshot.
    fn refresh_buddy(&mut self) {
        if self.config.replication_interval.is_none() {
            return;
        }
        let buddy = self.view.buddy().or(self.standby);
        self.replicator.set_buddy(buddy);
    }

    /// Periodic replication driver: cuts and sends a full-snapshot batch
    /// to the buddy when one is due (dirty + interval elapsed, or an
    /// unacked batch overdue for retry).
    fn maybe_replicate(&mut self, ctx: &mut AgentCtx<'_>) {
        let Some(interval) = self.config.replication_interval else {
            return;
        };
        // Nothing authoritative to sync before the first install, and a
        // recovering tracker must not sync under a not-yet-granted epoch.
        if !self.installed
            || matches!(
                self.recovery.as_ref().map(|r| r.phase),
                Some(RecoveryPhase::AwaitEpoch | RecoveryPhase::AwaitReplica)
            )
        {
            return;
        }
        self.refresh_buddy();
        if !self.replicator.due(ctx.now(), interval) {
            return;
        }
        let Some((buddy, buddy_node)) = self.replicator.buddy else {
            return;
        };
        let epoch = self.replicator.epoch;
        let seq = self.replicator.cut_batch(ctx.now());
        let records = self.book.snapshot();
        let rate = self.stats.rate_per_sec(ctx.now());
        let me = ctx.self_id().raw();
        let count = records.len();
        self.shared.update(|s| s.record_syncs += 1);
        ctx.trace().emit(ctx.now(), || TraceEvent::RecordSync {
            tracker: me,
            buddy: buddy.raw(),
            records: count,
            epoch,
        });
        let sync = Wire::RecordSync {
            epoch,
            seq,
            records,
            rate,
            reply_node: ctx.node(),
        };
        ctx.send(buddy, buddy_node, sync.payload());
    }

    /// Drives the recovery phase machine from the periodic timer: retries
    /// lost epoch requests / replica pulls, and ends recovery on
    /// convergence (no stale records left) or timeout.
    fn drive_recovery(&mut self, ctx: &mut AgentCtx<'_>) {
        let Some(rec) = &mut self.recovery else {
            return;
        };
        let phase = rec.phase;
        let now = ctx.now();
        if phase != RecoveryPhase::Converging
            && now.saturating_since(rec.last_request) >= REPLICATION_RETRY
        {
            rec.last_request = now;
            if phase == RecoveryPhase::AwaitEpoch {
                self.send_hagent(ctx, &Wire::EpochRequest);
            } else {
                self.pull_replica(ctx);
            }
        }
        self.finish_recovery_if_due(ctx);
    }

    /// Asks the buddy for its replica of this tracker's records.
    fn pull_replica(&self, ctx: &mut AgentCtx<'_>) {
        if let Some((buddy, buddy_node)) = self.replicator.buddy {
            let pull = Wire::ReplicaPull {
                epoch: self.replicator.epoch,
                reply_node: ctx.node(),
            };
            ctx.send(buddy, buddy_node, pull.payload());
        }
    }

    /// Ends recovery the moment it is due: the record set converged (the
    /// phase reached `Converging` and no stale tags remain) or the
    /// recovery timeout expired. Called from the periodic timer and
    /// eagerly from every event that can clear the last stale tag, so
    /// measured recovery times reflect actual convergence rather than the
    /// check-tick quantum.
    fn finish_recovery_if_due(&mut self, ctx: &mut AgentCtx<'_>) {
        let Some(rec) = &self.recovery else {
            return;
        };
        let now = ctx.now();
        let stale_left = self.book.stale_count();
        let converged = rec.phase == RecoveryPhase::Converging && stale_left == 0;
        let timed_out = now.saturating_since(rec.started) >= self.config.recovery_timeout;
        if converged || timed_out {
            let recovered = rec.recovered;
            let me = ctx.self_id().raw();
            ctx.trace().emit(now, || TraceEvent::RecoveryEnd {
                tracker: me,
                recovered,
                stale_left,
            });
            self.shared.update(|s| s.recoveries_completed += 1);
            // Unconfirmed records are no worse than any normal record,
            // which is also just the last reported node.
            self.book.confirm_all();
            self.recovery = None;
            self.flush_pending(ctx);
        }
    }
}

impl Agent for IAgentBehavior {
    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        // Locality migration landed: tell the HAgent so the directory (and
        // through it, every refreshed copy) knows the new node.
        self.relocating = false;
        let here = ctx.node();
        self.shared.update(|s| s.iagent_moves += 1);
        self.send_hagent(ctx, &Wire::IAgentMoved { node: here });
    }

    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.created_at = ctx.now();
        self.last_audit = ctx.now();
        if let Some(hf) = self.boot.take() {
            self.view = TrackerView::new(&hf, Some(ctx.self_id()));
        }
        if self.installed {
            self.shared
                .record_version(ctx.self_id().raw(), CopyRole::Tracker, self.view.version());
        }
        if self.fresh {
            let lease = self.lease;
            self.send_hagent(ctx, &Wire::IAgentReady { lease });
        }
        ctx.set_timer(self.config.check_interval);
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        if lost_soft_state {
            // Soft state is gone: every record, buffered locate and
            // buffered mail this tracker held. The records repair
            // themselves as agents keep sending movement updates; the
            // mail is lost for good, which must show in the metrics.
            self.mailbox.wipe(ctx, self.shared.registry());
            self.book.wipe();
            self.pending.clear();
            self.preinstall.clear();
            self.origin_counts.clear();
            self.stats.reset(ctx.now());
            // Replica copies held for buddies died with the soft state
            // too; their owners keep syncing and will repopulate them.
            self.replica_store.clear();
            self.recovery = None;
            if self.config.replication_interval.is_some() && self.installed {
                // Enter recovery: fence with a fresh epoch from the
                // HAgent, pull the buddy's replica, and answer locates in
                // degraded mode until the record set converges.
                self.recovery = Some(RecoveryState::new(ctx.now()));
                let me = ctx.self_id().raw();
                self.shared.update(|s| s.recoveries_started += 1);
                ctx.trace()
                    .emit(ctx.now(), || TraceEvent::RecoveryStart { tracker: me });
                self.send_hagent(ctx, &Wire::EpochRequest);
            }
        }
        // Any replication batch in flight died with the node; mark dirty so
        // the surviving (or recovered) record set is re-synced.
        self.replicator.mark_dirty();
        // The hash-function copy is treated as recoverable (re-read from
        // stable store on boot); whatever it missed while down, lazy
        // refresh or the version audit repairs. In-flight control state
        // died with the node either way.
        self.refetch_in_flight = false;
        self.rehash_request = None;
        self.last_audit = ctx.now();
        ctx.set_timer(self.config.check_interval);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        self.mailbox.expire_lost(ctx, self.shared.registry());
        self.book.expire_tombstones(ctx.now());
        // Batched gauge refresh: per-message paths touch no lock.
        let rate = self.stats.rate_per_sec(ctx.now());
        self.shared
            .registry()
            .update_tracker(ctx.self_id().raw(), |t| {
                t.requests = self.requests_seen;
                t.rate_per_sec = rate;
                t.observe_queue_depth(self.pending.len());
                t.observe_mailbox(self.mailbox.len());
                t.records_held = self.book.len();
            });
        self.flush_pending(ctx);
        self.maybe_replicate(ctx);
        self.drive_recovery(ctx);
        // Unplaced handoff records must not wait forever: if the refetch
        // reply was lost (or bounced off our old node after a locality
        // migration), ask again.
        if self.book.has_unplaced()
            && (!self.refetch_in_flight
                || ctx.now().saturating_since(self.refetch_sent_at)
                    > self.config.locate_retry_timeout)
        {
            self.refetch(ctx);
        }
        // Periodic version audit (chaos runs): re-fetch the primary copy
        // so a view that went stale while this node (or the wire to the
        // HAgent) was faulted converges without waiting for client
        // traffic to trip a NotResponsible.
        if let Some(interval) = self.config.version_audit {
            if self.installed
                && !self.refetch_in_flight
                && !self.book.has_unplaced()
                && ctx.now().saturating_since(self.last_audit) >= interval
            {
                self.last_audit = ctx.now();
                self.fetch_hash_fn(ctx);
            }
        }
        self.maybe_request_merge(ctx);
        self.maybe_relocate(ctx);
        // A rehash request whose answer was lost must not wedge this IAgent
        // forever. Give up only after the HAgent's own lease timeout (plus
        // its commit cooldown) has certainly passed: re-asking earlier
        // would race a lease that is still live on the HAgent and get a
        // pointless Busy denial for this tracker's own region.
        if let Some(at) = self.rehash_request {
            if ctx.now().saturating_since(at)
                > self.config.rehash_lease_timeout() + self.config.rehash_cooldown
            {
                self.rehash_request = None;
            }
        }
        // A fresh IAgent that never got installed was orphaned by a failed
        // split; retire it.
        if self.fresh
            && !self.installed
            && ctx.now().saturating_since(self.created_at) > self.config.rate_window * 10
        {
            ctx.dispose();
            return;
        }
        ctx.set_timer(self.config.check_interval);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let Some(msg) = Wire::recv_traced(ctx, payload) else {
            return;
        };
        // Client traffic that beats the first install is buffered, not
        // bounced: answering NotResponsible here would send freshly-resolved
        // clients into a refresh loop against the already-committed tree.
        if !self.installed
            && matches!(
                msg,
                Wire::Register { .. } | Wire::Update { .. } | Wire::Locate { .. }
            )
        {
            self.preinstall.push((from, msg));
            return;
        }
        self.handle_wire(ctx, from, msg);
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        _to: AgentId,
        _node: NodeId,
        payload: &Payload,
    ) {
        // A MailDrop bounced: the recipient left its recorded node before
        // the mail landed. Re-buffer it; the next update releases it (this
        // retry loop is the delivery guarantee). The record is left alone:
        // an Update may have refreshed it while the mail was in flight,
        // and a stale record corrects itself on the next update anyway.
        if let Some(Wire::MailDrop { from, data }) = Wire::from_payload(payload) {
            self.mailbox
                .buffer(ctx, self.shared.registry(), _to, from, data);
            return;
        }
        // A re-registration solicit bounced: the resurrected record points
        // at a node its agent has left (or the agent is gone for good).
        // Drop it rather than keep serving a known-bad location.
        if let Some(Wire::SolicitReregister) = Wire::from_payload(payload) {
            if self.book.drop_stale(_to) {
                self.stats.forget(_to);
                self.replicator.mark_dirty();
                self.finish_recovery_if_due(ctx);
            }
            return;
        }
        // Only bounced handoffs need recovery (the destination IAgent was
        // merged away mid-flight): refetch the hash function and
        // re-dispatch. Replies to clients that moved or died are dropped —
        // the client retries on its own timeout.
        if let Some(Wire::Handoff { records }) = Wire::from_payload(payload) {
            self.book.park_unplaced(records);
            if !self.refetch_in_flight {
                self.refetch(ctx);
            }
        }
    }
}

impl IAgentBehavior {
    /// `Register` / `Update`: the agent reports its node. Only a
    /// registration is acknowledged.
    fn on_report(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        from: AgentId,
        agent: AgentId,
        node: NodeId,
        register: bool,
    ) {
        self.requests_seen += 1;
        self.stats.record(ctx.now(), agent);
        self.note_origin(node);
        let mine = self.is_mine(ctx, agent);
        match self.book.accept(agent, node, mine, Source::Direct) {
            Outcome::Stored | Outcome::Kept => {
                self.replicator.mark_dirty();
                if register {
                    ctx.send(from, node, Wire::RegisterAck { agent }.payload());
                }
                self.flush_pending(ctx);
                self.flush_mail_for(ctx, agent);
                self.finish_recovery_if_due(ctx);
            }
            // A straggler that raced its sender's deregister: the agent is
            // dead, and re-inserting would leak its record.
            Outcome::Tombstoned => {}
            Outcome::NotMine => {
                self.shared.update(|s| s.stale_hits += 1);
                let bounce = Wire::NotResponsible {
                    about: agent,
                    token: None,
                    corr: None,
                };
                ctx.send(from, node, bounce.payload());
            }
        }
        self.maybe_request_split(ctx);
    }

    fn handle_wire(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, msg: Wire) {
        match msg {
            Wire::Register { agent, node } => self.on_report(ctx, from, agent, node, true),
            Wire::Update { agent, node } => self.on_report(ctx, from, agent, node, false),
            Wire::Locate {
                target,
                token,
                reply_node,
                freshness,
                corr,
            } => {
                self.requests_seen += 1;
                self.stats.record(ctx.now(), target);
                self.note_origin(reply_node);
                // While recovering, a buffered locate is held until
                // recovery ends: a late degraded answer beats a premature
                // NotFound.
                let normal = ctx.now() + self.config.pending_timeout;
                let deadline = match &self.recovery {
                    Some(rec) => normal.max(rec.started + self.config.recovery_timeout),
                    None => normal,
                };
                let p = PendingLocate {
                    target,
                    requester: from,
                    reply_node,
                    token,
                    freshness,
                    corr,
                    deadline,
                };
                if self.is_mine(ctx, target) {
                    match self.book.lookup(target, ctx.now()) {
                        Some(record) if freshness.admits(record.age_ms) => {
                            self.answer_located(ctx, &p, record);
                        }
                        too_old_or_missing => {
                            // Missing: possibly a handoff in flight —
                            // buffer briefly. Too old for the declared
                            // bound: wait for a reconfirming update
                            // instead of breaking the bound.
                            if too_old_or_missing.is_some() {
                                self.shared.update(|s| s.freshness_refusals += 1);
                            }
                            self.pending.push(p);
                        }
                    }
                } else {
                    // Freshness-bounded reads may be served from a buddy
                    // replica held here: under a severed inter-region
                    // link this is what keeps bounded locates local.
                    // Plain (`Any`) locates keep the seed behaviour — a
                    // NotResponsible bounce drives the querier's
                    // hash-function refresh — and `Fresh` means
                    // authoritative only, so neither consults replicas.
                    let replica = match freshness {
                        Freshness::BoundedMs(_) => self.replica_store.find(target, ctx.now()),
                        _ => None,
                    };
                    match replica {
                        Some((node, age_ms)) if freshness.admits(age_ms) => {
                            let me = ctx.self_id().raw();
                            self.shared.update(|s| s.replica_answers += 1);
                            ctx.trace().emit(ctx.now(), || TraceEvent::StaleAnswer {
                                tracker: me,
                                target: target.raw(),
                            });
                            let record = Record {
                                node,
                                stale: true,
                                age_ms,
                            };
                            p.reply(ctx, &p.located(record));
                        }
                        refused => {
                            if refused.is_some() {
                                self.shared.update(|s| s.freshness_refusals += 1);
                            }
                            self.shared.update(|s| s.stale_hits += 1);
                            p.reply(ctx, &p.not_responsible());
                        }
                    }
                }
                self.maybe_request_split(ctx);
            }
            Wire::DeliverVia {
                target,
                from: origin,
                data,
                ttl,
            } => {
                self.requests_seen += 1;
                self.stats.record(ctx.now(), target);
                if self.is_mine(ctx, target) {
                    match self.book.node_of(target) {
                        Some(node) => ctx.send(
                            target,
                            node,
                            Wire::MailDrop { from: origin, data }.payload(),
                        ),
                        // Unknown right now (mid-handoff or mid-flight):
                        // hold it; the next update releases it.
                        None => {
                            self.mailbox
                                .buffer(ctx, self.shared.registry(), target, origin, data);
                        }
                    }
                } else if ttl > 0 {
                    // Stale sender copy: chase toward the responsible
                    // tracker under our (fresher) view.
                    self.forward_mail(ctx, target, origin, data, ttl - 1);
                }
                self.maybe_request_split(ctx);
            }
            Wire::Deregister { agent, ttl } => {
                self.requests_seen += 1;
                self.stats.record(ctx.now(), agent);
                let removed = self.book.deregister(agent, ctx.now());
                self.replicator.mark_dirty();
                self.stats.forget(agent);
                if !removed && self.installed && !self.is_mine(ctx, agent) && ttl > 0 {
                    // The dying agent's stale hash copy aimed this at the
                    // pre-split owner. The sender is already gone, so
                    // there is nobody to bounce NotResponsible to — chase
                    // toward the responsible tracker ourselves, or its
                    // record leaks forever.
                    let (owner, node) = self.view.resolve(agent);
                    if owner != ctx.self_id() {
                        let chase = Wire::Deregister {
                            agent,
                            ttl: ttl - 1,
                        };
                        ctx.send(owner, node, chase.payload());
                    }
                }
                self.finish_recovery_if_due(ctx);
                self.maybe_request_split(ctx);
            }
            Wire::InstallHashFn { hf } => {
                let view = TrackerView::new(&hf, Some(ctx.self_id()));
                self.install(ctx, view);
            }
            Wire::InstallView { image } => self.install(ctx, TrackerView::from_image(image)),
            Wire::Handoff { records } => {
                // A handoff computed under an older version may include
                // keys that have since moved on; forward those instead of
                // parking them on a non-responsible tracker. Tombstoned
                // keys are dropped: the agent deregistered while its
                // record was in transit.
                let mut landed = Vec::new();
                let mut foreign = Vec::new();
                for (agent, node) in records {
                    let mine = self.is_mine(ctx, agent);
                    match self.book.accept(agent, node, mine, Source::Handoff) {
                        Outcome::Stored | Outcome::Kept => landed.push(agent),
                        Outcome::NotMine => foreign.push((agent, node)),
                        Outcome::Tombstoned => {}
                    }
                }
                if !landed.is_empty() {
                    self.replicator.mark_dirty();
                }
                self.dispatch_handoffs(ctx, foreign);
                self.flush_pending(ctx);
                for agent in landed {
                    self.flush_mail_for(ctx, agent);
                }
            }
            Wire::RehashDenied { reason } => {
                self.rehash_request = None;
                let backoff = match reason {
                    // The pipeline (or this subtree's lease) is busy: the
                    // conflicting rehash commits shortly, so retry fast —
                    // the rate that justified this request is still there.
                    DenyReason::Busy => BOUNCE_RETRY_DELAY,
                    DenyReason::Cooldown | DenyReason::NoPlan => self.config.rehash_cooldown,
                    // Read-only standby: the tree is frozen until the
                    // primary returns; hammering the standby is futile.
                    DenyReason::ReadOnly => self.config.rehash_lease_timeout(),
                };
                self.rehash_backoff_until = ctx.now() + backoff;
            }
            Wire::HashFnCopy { hf } => {
                // Answer to a refetch after a bounced handoff. Re-dispatch
                // only under a *newer* view — the same version would resend
                // to the destination that just bounced (hot loop); the
                // periodic check refetches until the view advances.
                self.refetch_in_flight = false;
                if hf.version > self.view.version() {
                    let view = TrackerView::new(&hf, Some(ctx.self_id()));
                    self.install(ctx, view);
                    let unplaced = self.book.take_unplaced();
                    self.dispatch_handoffs(ctx, unplaced);
                }
            }
            Wire::RecordSync {
                epoch,
                seq,
                records,
                rate,
                reply_node,
            } => {
                // Buddy duty. The replica stays in its own store: it is
                // not ownership and must not leak into `book` or the
                // records_held gauge.
                let ack = self
                    .replica_store
                    .store_sync(from, epoch, seq, records, rate, ctx.now());
                ctx.send(from, reply_node, ack.payload());
            }
            Wire::RecordSyncAck { epoch, seq } => {
                self.replicator.on_ack(epoch, seq);
            }
            Wire::ReplicaPull { reply_node, .. } => {
                let set = self.replica_store.answer_pull(from, ctx.now());
                ctx.send(from, reply_node, set.payload());
            }
            Wire::EpochGrant { epoch, buddy } => {
                let now = ctx.now();
                let Some(rec) = &mut self.recovery else {
                    // Late duplicate grant: adopt the epoch anyway so
                    // future syncs are stamped under the latest one.
                    self.replicator.start_epoch(epoch);
                    return;
                };
                if rec.phase != RecoveryPhase::AwaitEpoch {
                    return; // duplicate grant mid-recovery
                }
                self.replicator.start_epoch(epoch);
                match buddy {
                    Some(buddy) => {
                        rec.phase = RecoveryPhase::AwaitReplica;
                        rec.last_request = now;
                        self.replicator.set_buddy(Some(buddy));
                        self.pull_replica(ctx);
                    }
                    None => {
                        // Nowhere a replica could live: converge on
                        // re-registration traffic alone.
                        rec.phase = RecoveryPhase::Converging;
                        self.finish_recovery_if_due(ctx);
                    }
                }
            }
            Wire::ReplicaSet {
                epoch,
                records,
                age_ms,
                ..
            } => {
                if !matches!(
                    self.recovery.as_ref().map(|r| r.phase),
                    Some(RecoveryPhase::AwaitReplica)
                ) {
                    return; // unsolicited or duplicate
                }
                let mut recovered = 0usize;
                if replica_usable(epoch, self.replicator.epoch) {
                    let source = Source::Replica {
                        age_ms,
                        at: ctx.now(),
                    };
                    for (agent, node) in records {
                        // Ownership filter: only records that still hash
                        // here under the current view may be resurrected —
                        // this is what stops a stale replica from undoing
                        // a handoff that happened after it was written.
                        // Tombstones keep deregistered agents dead.
                        let mine = self.is_mine(ctx, agent);
                        if self.book.accept(agent, node, mine, source) == Outcome::Stored {
                            recovered += 1;
                            // Ask the agent to reconfirm from wherever it
                            // really is. Best effort: a bounce drops the
                            // resurrected record again (see
                            // on_delivery_failed).
                            ctx.send(agent, node, Wire::SolicitReregister.payload());
                        }
                    }
                }
                if let Some(rec) = &mut self.recovery {
                    rec.phase = RecoveryPhase::Converging;
                    rec.recovered += recovered;
                }
                self.replicator.mark_dirty();
                self.flush_pending(ctx);
                self.finish_recovery_if_due(ctx);
            }
            _ => {}
        }
    }
}
