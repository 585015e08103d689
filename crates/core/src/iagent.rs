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
//!
//! This module routes each message to the part that owns its decision:
//! the record book (`records`), the held locates (`pending`), the
//! split/merge requests (`rehash`), buddy replication and recovery
//! (`durability`, present only when replication is on), the locality
//! extension (`locality`, likewise) and mediated mail (`mailbox`).

use std::collections::BTreeMap;

use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, TimerId};
use agentrack_sim::SimTime;

use crate::config::LocationConfig;
use crate::hashfn::HashFunction;
use crate::locality::Locality;
use crate::mailbox::{Mailbox, MAIL_MAX_HOPS, MAIL_TTL};
use crate::pending::{PendingLocate, PendingLocates};
use crate::records::{Outcome, RecordStore, Source};
use crate::rehash::RehashAsk;
use crate::replica::Durability;
use crate::scheme::{CopyRole, SharedSchemeStats};
use crate::stats::LoadStats;
use crate::view::TrackerView;
use crate::wire::{Freshness, Wire};

/// Where a tracker is in its life.
#[derive(Debug)]
enum Lifecycle {
    /// The bootstrap IAgent before `on_create`: its copy is kept until the
    /// tracker learns its own id and binds the view's own-leaf facts to it.
    Booting(Box<HashFunction>),
    /// Created mid-split: reports ready under the rehash `lease` it was
    /// created under (the HAgent commits that lease, and ignores orphans
    /// of aborted ones) and waits for its first install, holding the
    /// client requests that beat it (the HAgent commits the split, so
    /// clients may resolve here before the install lands).
    AwaitingInstall {
        lease: u64,
        early: Vec<(AgentId, Wire)>,
    },
    /// Installed: owns the keys its view gives it.
    Serving,
}

/// Behaviour of an IAgent.
#[derive(Debug)]
pub struct IAgentBehavior {
    config: LocationConfig,
    hagent: (AgentId, NodeId),
    /// The installed hash-function version, as this tracker needs it.
    view: TrackerView,
    life: Lifecycle,
    /// The records this tracker owns, with their staleness, tombstones
    /// and bounced handoffs.
    book: RecordStore,
    stats: LoadStats,
    shared: SharedSchemeStats,
    created_at: SimTime,
    /// The split or merge this tracker is asking for.
    rehash: RehashAsk,
    pending: PendingLocates,
    /// When the refetch for bounced handoff records was sent, while its
    /// reply is outstanding; a reply overdue (lost, or bounced off this
    /// IAgent's old node after a locality migration) re-arms it.
    refetch: Option<SimTime>,
    /// Mediated mail awaiting its recipient's next location update
    /// (guaranteed-delivery extension).
    mailbox: Mailbox,
    /// When the last periodic version audit ran (chaos runs only; see
    /// [`LocationConfig::version_audit`]).
    last_audit: SimTime,
    /// Buddy replication and recovery; `None` when replication is off.
    durability: Option<Durability>,
    /// The locality extension; `None` when it is off.
    locality: Option<Locality>,
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
        IAgentBehavior {
            life: Lifecycle::Booting(Box::new(hf)),
            ..Self::fresh(config, hagent, hagent_node, view, shared)
        }
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
        let hagent = (hagent, hagent_node);
        IAgentBehavior {
            stats: LoadStats::new(config.rate_window),
            durability: Durability::new(&config, hagent, &shared),
            locality: config.locality_migration.then(Locality::default),
            config,
            hagent,
            view,
            life: Lifecycle::AwaitingInstall {
                lease: 0,
                early: Vec::new(),
            },
            book: RecordStore::default(),
            shared,
            created_at: SimTime::ZERO,
            rehash: RehashAsk::Quiet {
                until: SimTime::ZERO,
            },
            pending: PendingLocates::default(),
            refetch: None,
            mailbox: Mailbox::new(MAIL_TTL),
            last_audit: SimTime::ZERO,
        }
    }

    /// Sets the standby fallback buddy: where this tracker replicates when
    /// the tree has a single leaf (no sibling) and during recovery when the
    /// HAgent knows no better.
    #[must_use]
    pub fn with_standby(mut self, standby: Option<(AgentId, NodeId)>) -> Self {
        if let Some(durability) = &mut self.durability {
            durability.standby = standby;
        }
        self
    }

    /// Stamps a fresh IAgent with the rehash lease it was created under.
    #[must_use]
    pub fn with_lease(mut self, lease: u64) -> Self {
        if let Lifecycle::AwaitingInstall { lease: l, .. } = &mut self.life {
            *l = lease;
        }
        self
    }

    /// Whether this tracker has its own view (any but a fresh IAgent
    /// before its first install).
    fn serving(&self) -> bool {
        matches!(self.life, Lifecycle::Serving)
    }

    /// Whether `agent` hashes here. Never before the first install: a
    /// fresh IAgent's bootstrap view predates its own leaf.
    fn is_mine(&self, ctx: &AgentCtx<'_>, agent: AgentId) -> bool {
        self.serving() && self.view.is_responsible(ctx.self_id(), agent)
    }

    fn send_hagent(&self, ctx: &mut AgentCtx<'_>, msg: &Wire) {
        ctx.send(self.hagent.0, self.hagent.1, ctx.encode(msg));
    }

    /// The record set changed: the buddy's replica is behind.
    fn records_changed(&mut self) {
        if let Some(durability) = &mut self.durability {
            durability.mark_dirty();
        }
    }

    /// Ends a recovery that is due to end, and serves the locates it held.
    fn finish_recovery_if_due(&mut self, ctx: &mut AgentCtx<'_>) {
        if let Some(durability) = &mut self.durability {
            if durability.finish_if_due(ctx, &mut self.book) {
                self.flush_pending(ctx);
            }
        }
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
        self.refetch = Some(ctx.now());
        self.fetch_hash_fn(ctx);
    }

    /// Records where a request came from, for locality decisions.
    fn note_origin(&mut self, node: NodeId) {
        if let Some(locality) = &mut self.locality {
            *locality.origin_counts.entry(node).or_insert(0) += 1;
        }
    }

    /// Locality check (paper §7 extension): move to the node originating
    /// the majority of recent traffic.
    fn maybe_relocate(&mut self, ctx: &mut AgentCtx<'_>) {
        let settled = self.serving()
            && !self.rehash.in_flight()
            // Migrating now would bounce the pending hash-function reply at
            // the old node and strand the unplaced records.
            && self.refetch.is_none()
            && !self.book.has_unplaced();
        let here = ctx.node();
        if let Some(to) = self
            .locality
            .as_mut()
            .filter(|_| settled)
            .and_then(|l| l.destination(&self.config, here))
        {
            ctx.dispatch(to);
        }
    }

    /// Split check, run after every recorded request; with `merge`, the
    /// merge check the periodic timer runs so idle IAgents notice.
    fn maybe_request_rehash(&mut self, ctx: &mut AgentCtx<'_>, merge: bool) {
        let merge = merge.then(|| {
            let age = ctx.now().saturating_since(self.created_at);
            (age, self.view.leaf_count())
        });
        if self.serving() {
            let asked = self
                .rehash
                .ask(&self.config, ctx.now(), &mut self.stats, merge);
            if let Some(request) = asked {
                self.send_hagent(ctx, &request);
            }
        }
    }

    /// Installs a new hash-function version, built from a whole copy or
    /// from an install image: hand off records that no longer hash here;
    /// dispose if this leaf was merged away.
    fn install(&mut self, ctx: &mut AgentCtx<'_>, view: TrackerView) {
        let first_install = matches!(self.life, Lifecycle::AwaitingInstall { .. });
        if view.version() <= self.view.version() && !first_install {
            return; // stale or duplicate install
        }
        let label_before = self.view.own_label().cloned().filter(|_| !first_install);
        self.view = view;
        let early = match std::mem::replace(&mut self.life, Lifecycle::Serving) {
            Lifecycle::AwaitingInstall { early, .. } => early,
            _ => Vec::new(),
        };
        self.shared
            .record_version(ctx.self_id().raw(), CopyRole::Tracker, self.view.version());
        // The post-install cooldown is scoped to versions that changed
        // *this tracker's* partition (its hyper-label moved, it was merged
        // away, or this is its first view). A rehash in a distant subtree
        // changes nothing here: the observed rate still describes the
        // current partition, and an overdue split request must not be
        // silenced by it.
        if first_install || self.view.own_label() != label_before.as_ref() {
            self.rehash.partition_changed(&self.config, ctx.now());
            // Fresh epoch: rate observed against the old partition must
            // not trigger another rehash of the new one.
            self.stats.reset(ctx.now());
        }
        for (from, msg) in early {
            self.handle_wire(ctx, from, msg);
        }

        // Evict what now hashes elsewhere — everything if this leaf was
        // merged away: records are handed off, buffered mail chases its
        // key's new tracker, and pending queries bounce back.
        let self_id = ctx.self_id();
        let view = &self.view;
        let mine = |agent| view.is_responsible(self_id, agent);
        let moved = self.book.take_foreign(mine);
        let moved_mail = self.mailbox.drain_if(|item| !mine(item.target));
        let bounce = self.pending.take_foreign(mine);
        for (agent, _) in &moved {
            self.stats.forget(*agent);
        }
        self.dispatch_handoffs(ctx, moved);
        for item in moved_mail {
            self.forward_mail(ctx, item.target, item.from, item.data, MAIL_MAX_HOPS);
        }
        for p in bounce {
            p.bounce(ctx);
        }

        if self.view.own_label().is_none() {
            ctx.dispose(); // merged away: everything is handed off
            return;
        }
        if let Some(durability) = &mut self.durability {
            durability.follow(&self.view);
        }
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
            ctx.send(
                owner,
                owner_node,
                ctx.encode_owned(Wire::Handoff { records: recs }),
            );
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
        ctx.send(owner, node, ctx.encode_owned(mail));
    }

    /// Mail can flow the moment a record (re)appears for `agent`.
    fn flush_mail_for(&mut self, ctx: &mut AgentCtx<'_>, agent: AgentId) {
        if let Some(node) = self.book.node_of(agent) {
            self.mailbox.flush_for(ctx, &self.shared, agent, node);
        }
    }

    /// Serves the held locates whose records arrived.
    fn flush_pending(&mut self, ctx: &mut AgentCtx<'_>) {
        self.pending.flush(ctx, &self.book, &self.shared);
    }
}

impl Agent for IAgentBehavior {
    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        // Locality migration landed: tell the HAgent so the directory (and
        // through it, every refreshed copy) knows the new node.
        if let Some(locality) = &mut self.locality {
            locality.relocating = false;
        }
        let here = ctx.node();
        self.shared.update(|s| s.iagent_moves += 1);
        self.send_hagent(ctx, &Wire::IAgentMoved { node: here });
    }

    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.created_at = ctx.now();
        self.last_audit = ctx.now();
        if let Lifecycle::Booting(hf) = &self.life {
            self.view = TrackerView::new(hf, Some(ctx.self_id()));
            self.life = Lifecycle::Serving;
        }
        match self.life {
            Lifecycle::AwaitingInstall { lease, .. } => {
                self.send_hagent(ctx, &Wire::IAgentReady { lease });
            }
            _ => self.shared.record_version(
                ctx.self_id().raw(),
                CopyRole::Tracker,
                self.view.version(),
            ),
        }
        ctx.set_timer(self.config.check_interval);
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        if lost_soft_state {
            // Soft state is gone: every record, buffered locate and
            // buffered mail this tracker held. The records repair
            // themselves as agents keep sending movement updates; the
            // mail is lost for good, which must show in the metrics.
            self.mailbox.wipe(ctx, &self.shared);
            self.book.wipe();
            self.pending.0.clear();
            if let Lifecycle::AwaitingInstall { early, .. } = &mut self.life {
                early.clear();
            }
            if let Some(locality) = &mut self.locality {
                locality.origin_counts.clear();
            }
            self.stats.reset(ctx.now());
        }
        let serving = self.serving();
        if let Some(durability) = &mut self.durability {
            durability.on_restart(ctx, lost_soft_state, serving);
        }
        // The hash-function copy is treated as recoverable (re-read from
        // stable store on boot); whatever it missed while down, lazy
        // refresh or the version audit repairs. In-flight control state
        // died with the node either way.
        self.refetch = None;
        self.rehash.give_up(&self.config, None);
        self.last_audit = ctx.now();
        ctx.set_timer(self.config.check_interval);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        self.mailbox.expire_lost(ctx, &self.shared);
        self.book.expire_tombstones(ctx.now());
        // Batched gauge refresh: per-message paths touch no lock.
        let rate = self.stats.rate_per_sec(ctx.now());
        self.shared.update_tracker(ctx.self_id().raw(), |t| {
            t.requests = self.stats.total();
            t.rate_per_sec = rate;
            t.observe_queue_depth(self.pending.0.len());
            t.observe_mailbox(self.mailbox.len());
            t.records_held = self.book.len();
        });
        self.flush_pending(ctx);
        let view = self.serving().then_some(&self.view);
        if let Some(durability) = &mut self.durability {
            if durability.on_timer(ctx, &mut self.book, view, rate) {
                self.flush_pending(ctx);
            }
        }
        // Unplaced handoff records must not wait forever: if the refetch
        // reply was lost (or bounced off our old node after a locality
        // migration), ask again.
        if self.book.has_unplaced()
            && self.refetch.is_none_or(|sent_at| {
                ctx.now().saturating_since(sent_at) > self.config.locate_retry_timeout
            })
        {
            self.refetch(ctx);
        }
        // Periodic version audit (chaos runs): re-fetch the primary copy
        // so a view that went stale while this node (or the wire to the
        // HAgent) was faulted converges without waiting for client
        // traffic to trip a NotResponsible.
        if let Some(interval) = self.config.version_audit {
            if self.serving()
                && self.refetch.is_none()
                && !self.book.has_unplaced()
                && ctx.now().saturating_since(self.last_audit) >= interval
            {
                self.last_audit = ctx.now();
                self.fetch_hash_fn(ctx);
            }
        }
        self.maybe_request_rehash(ctx, true);
        self.maybe_relocate(ctx);
        self.rehash.give_up(&self.config, Some(ctx.now()));
        // A fresh IAgent that never got installed was orphaned by a failed
        // split; retire it.
        if matches!(self.life, Lifecycle::AwaitingInstall { .. })
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
        if let Lifecycle::AwaitingInstall { early, .. } = &mut self.life {
            if matches!(
                msg,
                Wire::Register { .. } | Wire::Update { .. } | Wire::Locate { .. }
            ) {
                early.push((from, msg));
                return;
            }
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
            self.mailbox.buffer(ctx, &self.shared, _to, from, data);
            return;
        }
        // A re-registration solicit bounced: the resurrected record points
        // at a node its agent has left (or the agent is gone for good).
        // Drop it rather than keep serving a known-bad location.
        if let Some(Wire::SolicitReregister) = Wire::from_payload(payload) {
            if self.book.drop_stale(_to) {
                self.stats.forget(_to);
                self.records_changed();
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
            if self.refetch.is_none() {
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
        self.stats.record(ctx.now(), agent);
        self.note_origin(node);
        let mine = self.is_mine(ctx, agent);
        match self.book.accept(agent, node, mine, Source::Direct) {
            Outcome::Stored | Outcome::Kept => {
                self.records_changed();
                if register {
                    ctx.send(from, node, ctx.encode(&Wire::RegisterAck { agent }));
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
                ctx.send(from, node, ctx.encode(&bounce));
            }
        }
        self.maybe_request_rehash(ctx, false);
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
                self.stats.record(ctx.now(), target);
                self.note_origin(reply_node);
                let normal = ctx.now() + self.config.pending_timeout;
                let deadline = self
                    .durability
                    .as_ref()
                    .map_or(normal, |d| d.locate_deadline(normal));
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
                    let record = self.book.lookup(target, ctx.now());
                    self.pending.serve(ctx, &self.shared, p, record);
                } else {
                    // Plain (`Any`) locates keep the seed behaviour, and
                    // `Fresh` means authoritative only, so neither
                    // consults the replicas held here.
                    let replica = match (freshness, &self.durability) {
                        (Freshness::BoundedMs(_), Some(d)) => d.replica(target, ctx.now()),
                        _ => None,
                    };
                    p.answer_elsewhere(ctx, &self.shared, replica);
                }
                self.maybe_request_rehash(ctx, false);
            }
            Wire::DeliverVia {
                target,
                from: origin,
                data,
                ttl,
            } => {
                self.stats.record(ctx.now(), target);
                if self.is_mine(ctx, target) {
                    match self.book.node_of(target) {
                        Some(node) => ctx.send(
                            target,
                            node,
                            ctx.encode_owned(Wire::MailDrop { from: origin, data }),
                        ),
                        // Unknown right now (mid-handoff or mid-flight):
                        // hold it; the next update releases it.
                        None => {
                            self.mailbox.buffer(ctx, &self.shared, target, origin, data);
                        }
                    }
                } else if ttl > 0 {
                    // Stale sender copy: chase toward the responsible
                    // tracker under our (fresher) view.
                    self.forward_mail(ctx, target, origin, data, ttl - 1);
                }
                self.maybe_request_rehash(ctx, false);
            }
            Wire::Deregister { agent, ttl } => {
                self.stats.record(ctx.now(), agent);
                let removed = self.book.deregister(agent, ctx.now());
                self.records_changed();
                self.stats.forget(agent);
                if !removed && self.serving() && !self.is_mine(ctx, agent) && ttl > 0 {
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
                        ctx.send(owner, node, ctx.encode(&chase));
                    }
                }
                self.finish_recovery_if_due(ctx);
                self.maybe_request_rehash(ctx, false);
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
                    self.records_changed();
                }
                self.dispatch_handoffs(ctx, foreign);
                self.flush_pending(ctx);
                for agent in landed {
                    self.flush_mail_for(ctx, agent);
                }
            }
            Wire::RehashDenied { reason } => self.rehash.denied(&self.config, ctx.now(), reason),
            Wire::HashFnCopy { hf } => {
                // Answer to a refetch after a bounced handoff. Re-dispatch
                // only under a *newer* view — the same version would resend
                // to the destination that just bounced (hot loop); the
                // periodic check refetches until the view advances.
                self.refetch = None;
                if hf.version > self.view.version() {
                    let view = TrackerView::new(&hf, Some(ctx.self_id()));
                    self.install(ctx, view);
                    let unplaced = self.book.take_unplaced();
                    self.dispatch_handoffs(ctx, unplaced);
                }
            }
            // Replication and recovery traffic; anything else is ignored.
            msg => {
                let (me, serving) = (ctx.self_id(), self.serving());
                let Some(durability) = &mut self.durability else {
                    return;
                };
                let view = &self.view;
                let mine = |agent| serving && view.is_responsible(me, agent);
                if durability.on_message(ctx, from, msg, &mut self.book, mine) {
                    self.flush_pending(ctx);
                    self.finish_recovery_if_due(ctx);
                }
            }
        }
    }
}
