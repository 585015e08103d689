//! The Hash Agent (HAgent): owner of the hash function's primary copy and
//! coordinator of rehashing.
//!
//! "There is a central static agent (HAgent) that keeps the current hash
//! function. Every time the hash function changes, the copy of the HAgent
//! is immediately updated (primary copy)." The paper's HAgent also
//! "ensures that only one such [split or merge] process is in progress at
//! each time" (paper §2.1, §4) — here that single-flight discipline is
//! generalised to a **lease table**: each rehash holds a lease on the
//! [`PrefixRegion`] of the subtree it rewrites, any set of prefix-disjoint
//! rehashes may be in flight at once (up to
//! [`LocationConfig::rehash_concurrency`]), and only overlapping requests
//! are serialised. `rehash_concurrency: 1` reproduces the paper's protocol
//! exactly and is kept as the ablation arm of experiment E17.
//!
//! A split runs as a small two-phase protocol:
//!
//! 1. An overloaded IAgent sends `SplitRequest` with its per-agent load
//!    statistics. The HAgent plans the split point (complex candidates
//!    first, then simple `m = 1, 2, …`; see [`crate::plan`]), checks the
//!    affected region against the lease table and the per-region cooldown
//!    list, grants a lease, creates the new IAgent on a round-robin-chosen
//!    node, and waits.
//! 2. The new IAgent reports `IAgentReady { lease }`; the HAgent re-derives
//!    the planned candidate against the current tree generation (disjoint
//!    commits in the meantime bump it), applies the split to the primary
//!    tree, bumps the version, and installs the new version on every
//!    *involved* IAgent, which triggers their record handoffs.
//!
//! Denials carry a structured [`DenyReason`] so requesters can back off
//! proportionally (short for a busy pipeline, long for a read-only
//! standby; see `IAgentBehavior`).
//!
//! Merges commit immediately (no second phase) but take the same region
//! gate: the merged leaf's *parent* region must not overlap any lease or
//! cooling region, because a merge rewrites the sibling subtree's labels.
//!
//! Every commit — split, merge, or an IAgent's move — is one [`RehashOp`]
//! applied to the primary copy and kept in a bounded [`RehashLog`]. A
//! fetch from a copy the log still covers is answered with the ops it
//! lacks ([`Wire::HashFnDelta`]); anything older gets the whole copy.
//!
//! An install sends each involved IAgent its run view of the new version
//! ([`Wire::InstallView`]) while the primary copy's compiled directory
//! holds runs, and the whole copy ([`Wire::InstallHashFn`]) once the tree
//! passes [`MAX_RUNS_PER_LEAF`] runs a leaf: one bound decides both.
//!
//! [`MAX_RUNS_PER_LEAF`]: agentrack_hashtree::MAX_RUNS_PER_LEAF

use agentrack_hashtree::{IAgentId, PrefixRegion, Side, TreeError};
use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, TimerId};
use agentrack_sim::{SimTime, TraceEvent};

use std::collections::HashMap;

use crate::config::LocationConfig;
use crate::hashfn::{HashFunction, RehashLog, RehashOp};
use crate::iagent::IAgentBehavior;
use crate::plan::plan_split;
use crate::replica::ReplicaStore;
use crate::scheme::{CopyRole, SharedSchemeStats};
use crate::view::TrackerView;
use crate::wire::{DenyReason, Wire};

/// What the HAgent sends of one version, each built at most once however
/// many recipients it has: the view every [`Wire::InstallView`] image is
/// cut from, and the whole-copy payloads. Keyed by the version alone:
/// every change to a copy bumps it.
#[derive(Debug, Default)]
struct CopyPayloads {
    version: u64,
    /// The view install images are cut from: built at the version's first
    /// install, unless the whole copy is the smaller install.
    view: Option<TrackerView>,
    /// The whole-copy install, for a version sent without images.
    install: Option<Payload>,
    copy: Option<Payload>,
}

impl CopyPayloads {
    /// Forgets what was built for an older version.
    fn sync(&mut self, hf: &HashFunction) {
        if self.version != hf.version {
            *self = CopyPayloads {
                version: hf.version,
                ..CopyPayloads::default()
            };
        }
    }

    /// `hf` installed on `to`: its image of the version's view, or the
    /// whole copy where that is smaller — where the copy's directory has
    /// no runs, past [`MAX_RUNS_PER_LEAF`].
    ///
    /// [`MAX_RUNS_PER_LEAF`]: agentrack_hashtree::MAX_RUNS_PER_LEAF
    fn install(&mut self, ctx: &AgentCtx<'_>, hf: &HashFunction, to: AgentId) -> Payload {
        self.sync(hf);
        // The version's first install picks its form; a view is built only
        // for images, since a tree without runs has nothing to cut.
        if self.view.is_none() && self.install.is_none() && hf.compiled().runs().is_some() {
            self.view = Some(TrackerView::new(hf, None));
        }
        match self.view.as_ref().and_then(|view| view.image_for(hf, to)) {
            Some(image) => ctx.encode_owned(Wire::InstallView { image }),
            None => self
                .install
                .get_or_insert_with(|| ctx.encode_owned(Wire::InstallHashFn { hf: hf.clone() }))
                .clone(),
        }
    }

    /// `hf` as a [`Wire::HashFnCopy`] payload.
    fn copy(&mut self, ctx: &AgentCtx<'_>, hf: &HashFunction) -> Payload {
        self.sync(hf);
        self.copy
            .get_or_insert_with(|| ctx.encode_owned(Wire::HashFnCopy { hf: hf.clone() }))
            .clone()
    }
}

/// A granted, in-flight split: the HAgent holds the affected subtree's
/// region until the new IAgent reports ready (commit) or the lease times
/// out (abort). Requests whose region overlaps a held lease are denied
/// `Busy`.
#[derive(Debug)]
struct RehashLease {
    /// Monotonic lease id; carried by the fresh IAgent's
    /// [`Wire::IAgentReady`] so a ready report from an orphan of an
    /// aborted lease cannot commit a newer one.
    id: u64,
    requester: AgentId,
    new_agent: AgentId,
    new_node: NodeId,
    /// The planned partition bit. The full candidate is *re-derived* from
    /// this at commit time (`HashTree::refreshed_candidate`): disjoint
    /// commits bump the tree generation, which would make the stored
    /// candidate stale, but they cannot touch this lease's subtree — so
    /// the bit still identifies the same split.
    key_bit: usize,
    new_side: Side,
    region: PrefixRegion,
    started_at: SimTime,
}

/// Behaviour of a standby HAgent: a hot replica of the hash function's
/// primary copy (the paper's §7 fault-tolerance direction — "making the
/// HAgent that keeps this copy a vulnerability point").
///
/// The primary pushes every new version here. The standby serves
/// [`Wire::FetchHashFn`] so secondary copies keep refreshing if the
/// primary crashes, but it is *read-only*: rehash requests are denied, so
/// the tree freezes (yet keeps answering) until the primary returns.
#[derive(Debug)]
pub struct StandbyHAgentBehavior {
    hf: HashFunction,
    /// `hf` encoded for fetches.
    payloads: CopyPayloads,
    shared: SharedSchemeStats,
    /// Replica copies held as the fallback buddy: when the tree has a
    /// single leaf there is no sibling IAgent, so the lone tracker
    /// replicates its records here.
    replica_store: ReplicaStore,
}

impl StandbyHAgentBehavior {
    /// Creates a standby seeded with the bootstrap hash function.
    #[must_use]
    pub fn new(hf: HashFunction, shared: SharedSchemeStats) -> Self {
        StandbyHAgentBehavior {
            hf,
            payloads: CopyPayloads::default(),
            shared,
            replica_store: ReplicaStore::default(),
        }
    }
}

impl Agent for StandbyHAgentBehavior {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.shared
            .record_version(ctx.self_id().raw(), CopyRole::Standby, self.hf.version);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let Some(msg) = Wire::from_payload(payload) else {
            return;
        };
        match msg {
            Wire::HashFnCopy { hf } if hf.version > self.hf.version => {
                self.hf = hf;
                self.shared
                    .record_version(ctx.self_id().raw(), CopyRole::Standby, self.hf.version);
            }
            Wire::FetchHashFn { reply_node, .. } => {
                self.shared.update(|s| s.hf_fetches += 1);
                ctx.send(from, reply_node, self.payloads.copy(ctx, &self.hf));
            }
            Wire::SplitRequest { .. } | Wire::MergeRequest { .. } => {
                // Read-only replica: rehashing waits for the primary. The
                // `ReadOnly` reason tells the requester to back off long —
                // retrying before the primary returns is futile.
                self.shared.update(|s| s.rehash_denied += 1);
                if let Some(node) = self.hf.locations.get(&IAgentId::new(from.raw())).copied() {
                    ctx.send(
                        from,
                        node,
                        ctx.encode(&Wire::RehashDenied {
                            reason: DenyReason::ReadOnly,
                        }),
                    );
                }
            }
            // Fallback buddy duty (single-leaf tree): hold the copy.
            msg @ (Wire::RecordSync { .. } | Wire::ReplicaPull { .. }) => {
                if let Some((node, reply)) = self.replica_store.serve(from, msg, ctx.now()) {
                    ctx.send(from, node, ctx.encode(&reply));
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, _ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        if lost_soft_state {
            // Replica copies are soft state; owners keep syncing and
            // repopulate them.
            self.replica_store.clear();
        }
    }
}

/// Behaviour of the HAgent.
#[derive(Debug)]
pub struct HAgentBehavior {
    config: LocationConfig,
    hf: HashFunction,
    /// The primary copy's view and encodings, for installs, pushes and
    /// fetches.
    payloads: CopyPayloads,
    /// The ops behind the primary copy's most recent versions, for
    /// answering fetches with deltas.
    log: RehashLog,
    /// LHAgent directory, for eager propagation: `(agent, node)` pairs.
    lhagents: Vec<(AgentId, NodeId)>,
    shared: SharedSchemeStats,
    /// In-flight split leases; at most `config.rehash_concurrency`, all
    /// pairwise prefix-disjoint.
    leases: Vec<RehashLease>,
    next_lease: u64,
    /// Regions of recently committed rehashes still cooling down:
    /// `(region, until)`. In the single-flight ablation
    /// (`rehash_concurrency: 1`) the whole key space is recorded instead,
    /// reproducing the paper's global cooldown.
    recent: Vec<(PrefixRegion, SimTime)>,
    next_node: u32,
    node_count: u32,
    standby: Option<(AgentId, NodeId)>,
    /// Installs that bounced (receiver mid-migration); re-sent with the
    /// current version on the next periodic tick.
    reinstall: Vec<AgentId>,
    /// Per-IAgent epoch counters (keyed by raw agent id), bumped on every
    /// `EpochRequest`. Soft state: if it is lost with a crash, a
    /// re-granted low epoch makes [`crate::replica::replica_usable`]
    /// reject the replica — recovery degrades to re-registration only, it
    /// never resurrects records under a wrong fence.
    epochs: HashMap<u64, u64>,
}

impl HAgentBehavior {
    /// Creates the HAgent owning the initial hash function.
    #[must_use]
    pub fn new(
        config: LocationConfig,
        hf: HashFunction,
        lhagents: Vec<(AgentId, NodeId)>,
        node_count: u32,
        shared: SharedSchemeStats,
    ) -> Self {
        shared.set_trackers(hf.tree.iagent_count() as u64);
        HAgentBehavior {
            config,
            log: RehashLog::new(hf.version),
            hf,
            payloads: CopyPayloads::default(),
            lhagents,
            shared,
            leases: Vec::new(),
            next_lease: 0,
            recent: Vec::new(),
            next_node: 0,
            node_count,
            standby: None,
            reinstall: Vec::new(),
            epochs: HashMap::new(),
        }
    }

    /// Registers a hot-standby replica; every committed version is pushed
    /// to it.
    #[must_use]
    pub fn with_standby(mut self, standby: AgentId, node: NodeId) -> Self {
        self.standby = Some((standby, node));
        self
    }

    fn deny(&self, ctx: &mut AgentCtx<'_>, to: AgentId, reason: DenyReason) {
        self.shared.update(|s| s.rehash_denied += 1);
        if let Some(node) = self.node_of_iagent(to) {
            ctx.send(to, node, ctx.encode(&Wire::RehashDenied { reason }));
        }
    }

    /// The region a committed rehash cools down: its own subtree at
    /// `rehash_concurrency > 1`, the whole key space in the single-flight
    /// ablation (the paper's global cooldown).
    fn cooldown_region(&self, region: PrefixRegion) -> PrefixRegion {
        if self.config.rehash_concurrency == 1 {
            PrefixRegion::EVERYTHING
        } else {
            region
        }
    }

    /// Checks a rehash region against the lease table and the cooling
    /// regions; `None` means the region is clear to proceed.
    fn blocked(&self, now: SimTime, region: PrefixRegion) -> Option<DenyReason> {
        if self.leases.iter().any(|l| l.region.overlaps(&region)) {
            return Some(DenyReason::Busy);
        }
        if self
            .recent
            .iter()
            .any(|&(r, until)| now < until && r.overlaps(&region))
        {
            return Some(DenyReason::Cooldown);
        }
        None
    }

    fn node_of_iagent(&self, iagent: AgentId) -> Option<NodeId> {
        self.hf.locations.get(&IAgentId::new(iagent.raw())).copied()
    }

    /// Publishes the tree's height and total consumed-prefix bits, for the
    /// split-strategy ablation.
    fn record_tree_shape(&self) {
        let height = self.hf.tree.height() as u64;
        let depth_bits: u64 = self
            .hf
            .tree
            .iagents()
            .map(|ia| self.hf.tree.consumed_bits(ia).unwrap_or(0) as u64)
            .sum();
        self.shared.update(|s| {
            s.tree_height = height;
            s.depth_bits_total = depth_bits;
        });
    }

    /// Applies `op` to the primary copy and logs it, bounded by the tree's
    /// IAgent count; returns the IAgents whose leaves changed.
    fn commit(&mut self, op: RehashOp) -> Result<Vec<IAgentId>, TreeError> {
        let involved = self.hf.apply(&op)?;
        self.log.push(op, self.hf.tree.iagent_count());
        Ok(involved)
    }

    fn pick_node(&mut self) -> NodeId {
        let node = NodeId::new(self.next_node % self.node_count);
        self.next_node += 1;
        node
    }

    /// Installs the (just bumped) primary copy on the involved IAgents and,
    /// when eager propagation is on, pushes it to every LHAgent.
    fn distribute(&mut self, ctx: &mut AgentCtx<'_>, involved: &[IAgentId]) {
        self.shared
            .record_version(ctx.self_id().raw(), CopyRole::Primary, self.hf.version);
        for &ia in involved {
            let agent = AgentId::new(ia.raw());
            // The node comes from the directory, except for an IAgent that
            // was merged away (no directory entry any more) — the merge
            // handler passes its node explicitly instead.
            if let Some(node) = self.node_of_iagent(agent) {
                ctx.send(agent, node, self.payloads.install(ctx, &self.hf, agent));
            }
        }
        if self.config.eager_propagation {
            for &(lh, node) in &self.lhagents {
                ctx.send(lh, node, self.payloads.copy(ctx, &self.hf));
            }
        }
        if let Some((standby, node)) = self.standby {
            ctx.send(standby, node, self.payloads.copy(ctx, &self.hf));
        }
    }

    /// Answers a request while the control plane is administratively
    /// frozen (an operator drain, e.g. the post-quiesce audit). Not
    /// counted as `rehash_denied`: that counter measures protocol denial
    /// traffic (busy/cooldown contention), not a closed admission gate.
    fn deny_frozen(&self, ctx: &mut AgentCtx<'_>, to: AgentId) {
        if let Some(node) = self.node_of_iagent(to) {
            ctx.send(
                to,
                node,
                ctx.encode(&Wire::RehashDenied {
                    reason: DenyReason::ReadOnly,
                }),
            );
        }
    }

    fn handle_split_request(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        from: AgentId,
        loads: Vec<(AgentId, u64)>,
    ) {
        if self.shared.adaptation_frozen() {
            self.deny_frozen(ctx, from);
            return;
        }
        if self.leases.len() >= self.config.rehash_concurrency {
            self.deny(ctx, from, DenyReason::Busy);
            return;
        }
        let requester = IAgentId::new(from.raw());
        let plan = match plan_split(&self.hf.tree, requester, &loads, &self.config) {
            Ok(plan) => plan,
            Err(_) => {
                self.deny(ctx, from, DenyReason::NoPlan);
                return;
            }
        };
        let region = match self.hf.tree.split_region(&plan.candidate) {
            Ok(region) => region,
            Err(_) => {
                self.deny(ctx, from, DenyReason::NoPlan);
                return;
            }
        };
        if let Some(reason) = self.blocked(ctx.now(), region) {
            self.deny(ctx, from, reason);
            return;
        }
        let id = self.next_lease;
        self.next_lease += 1;
        let new_node = self.pick_node();
        let new_agent = ctx.create_agent(
            Box::new(
                IAgentBehavior::fresh(
                    self.config.clone(),
                    ctx.self_id(),
                    ctx.node(),
                    TrackerView::new(&self.hf, None),
                    self.shared.clone(),
                )
                .with_standby(self.standby)
                .with_lease(id),
            ),
            new_node,
        );
        self.leases.push(RehashLease {
            id,
            requester: from,
            new_agent,
            new_node,
            key_bit: plan.candidate.key_bit,
            new_side: plan.new_side,
            region,
            started_at: ctx.now(),
        });
    }

    fn handle_ready(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, lease_id: u64) {
        let Some(pos) = self
            .leases
            .iter()
            .position(|l| l.id == lease_id && l.new_agent == from)
        else {
            return; // an orphaned IAgent from an aborted/abandoned lease
        };
        let lease = self.leases.remove(pos);
        // The op names the split by its partition bit, which `apply`
        // re-derives against the current generation: commits in disjoint
        // regions bumped it since the grant, but the lease kept this
        // subtree untouched, so the bit still pins the same split (see
        // `HashTree::refreshed_candidate`).
        let op = RehashOp::Split {
            requester: IAgentId::new(lease.requester.raw()),
            key_bit: lease.key_bit,
            new_iagent: IAgentId::new(lease.new_agent.raw()),
            side: lease.new_side,
            node: lease.new_node,
        };
        let Ok(involved) = self.commit(op) else {
            // Unreachable while region fencing holds (the requester's
            // subtree cannot change under a held lease), but stay safe.
            self.deny(ctx, lease.requester, DenyReason::NoPlan);
            return;
        };
        self.shared.update(|s| s.splits += 1);
        let version = self.hf.version;
        let from_tracker = lease.requester.raw();
        let to_tracker = lease.new_agent.raw();
        ctx.trace().emit(ctx.now(), || TraceEvent::RehashSplit {
            version,
            from_tracker,
            to_tracker,
        });
        self.shared.set_trackers(self.hf.tree.iagent_count() as u64);
        self.record_tree_shape();
        self.distribute(ctx, &involved);
        self.recent.push((
            self.cooldown_region(lease.region),
            ctx.now() + self.config.rehash_cooldown,
        ));
    }

    fn handle_merge_request(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId) {
        if self.shared.adaptation_frozen() {
            self.deny_frozen(ctx, from);
            return;
        }
        let merged = IAgentId::new(from.raw());
        if !self.config.merge_enabled
            || self.hf.tree.iagent_count() <= 1
            || !self.hf.tree.contains(merged)
        {
            self.deny(ctx, from, DenyReason::NoPlan);
            return;
        }
        if self.leases.len() >= self.config.rehash_concurrency {
            self.deny(ctx, from, DenyReason::Busy);
            return;
        }
        // A merge rewrites the sibling subtree's labels, so it is gated on
        // the *parent's* region — this is what serialises it against any
        // in-flight split under the same parent.
        let region = match self.hf.tree.merge_region(merged) {
            Ok(region) => region,
            Err(_) => {
                self.deny(ctx, from, DenyReason::NoPlan);
                return;
            }
        };
        if let Some(reason) = self.blocked(ctx.now(), region) {
            self.deny(ctx, from, reason);
            return;
        }
        let merged_node = self.node_of_iagent(from);
        let Ok(absorbers) = self.commit(RehashOp::Merge { iagent: merged }) else {
            self.deny(ctx, from, DenyReason::NoPlan);
            return;
        };
        self.shared.update(|s| s.merges += 1);
        let version = self.hf.version;
        let from_tracker = from.raw();
        let into_tracker = absorbers.first().map_or(0, |ia| ia.raw());
        ctx.trace().emit(ctx.now(), || TraceEvent::RehashMerge {
            version,
            from_tracker,
            into_tracker,
        });
        self.shared.set_trackers(self.hf.tree.iagent_count() as u64);
        self.record_tree_shape();

        // Install on the absorbers (via the directory) and on the merged
        // IAgent (whose directory entry is gone — use its last node).
        self.distribute(ctx, &absorbers);
        if let Some(node) = merged_node {
            ctx.send(from, node, self.payloads.install(ctx, &self.hf, from));
        }
        self.recent.push((
            self.cooldown_region(region),
            ctx.now() + self.config.rehash_cooldown,
        ));
    }
}

impl Agent for HAgentBehavior {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.shared
            .record_version(ctx.self_id().raw(), CopyRole::Primary, self.hf.version);
        ctx.set_timer(self.config.check_interval);
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        // The primary copy survives a crash (the paper treats it as
        // recoverable state — the standby covers the downtime), but every
        // lease that was mid-flight is abandoned (the orphan IAgents retire
        // themselves) and the periodic tick must be re-armed.
        let abandoned = std::mem::take(&mut self.leases).len() as u64;
        if abandoned > 0 {
            self.shared.update(|s| s.rehash_denied += abandoned);
        }
        self.reinstall.clear();
        if lost_soft_state {
            // Epoch counters are soft; losing them only makes recoveries
            // reject their replicas (see the field's fence note).
            self.epochs.clear();
        }
        ctx.set_timer(self.config.check_interval);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        // Re-send installs that bounced (receiver was mid-migration): a
        // tracker must not keep serving under a superseded hash function.
        let retry = std::mem::take(&mut self.reinstall);
        for agent in retry {
            // The directory has the receiver's current node — unless the
            // receiver was merged away, in which case it got what it needed
            // from the bounce-triggering version and retired already (its
            // own install-or-timeout handles it).
            if let Some(node) = self.node_of_iagent(agent) {
                ctx.send(agent, node, self.payloads.install(ctx, &self.hf, agent));
            }
        }
        // Abort leases whose new IAgent never reported (lost message /
        // injected failure): the orphans retire themselves, the requesters'
        // pending flags time out on their own (against the same
        // `rehash_lease_timeout`, so a requester never re-asks while its
        // lease is still live here).
        let now = ctx.now();
        let timeout = self.config.rehash_lease_timeout();
        let before = self.leases.len();
        self.leases
            .retain(|lease| now.saturating_since(lease.started_at) <= timeout);
        let aborted = (before - self.leases.len()) as u64;
        if aborted > 0 {
            self.shared.update(|s| s.rehash_denied += aborted);
        }
        // Expired cooldowns can go; `blocked` also checks `until`, this
        // just keeps the list from growing.
        self.recent.retain(|&(_, until)| now < until);
        ctx.set_timer(self.config.check_interval);
    }

    fn on_delivery_failed(
        &mut self,
        _ctx: &mut AgentCtx<'_>,
        to: AgentId,
        _node: NodeId,
        payload: &Payload,
    ) {
        // A lost install leaves a tracker serving under a stale view; queue
        // a retry (the periodic tick re-sends to the directory's current
        // node, which the move that caused the bounce will have updated).
        if matches!(
            Wire::from_payload(payload),
            Some(Wire::InstallHashFn { .. } | Wire::InstallView { .. })
        ) && !self.reinstall.contains(&to)
        {
            self.reinstall.push(to);
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let Some(msg) = Wire::from_payload(payload) else {
            return;
        };
        match msg {
            Wire::SplitRequest { loads, .. } => self.handle_split_request(ctx, from, loads),
            Wire::IAgentReady { lease } => self.handle_ready(ctx, from, lease),
            Wire::MergeRequest { .. } => self.handle_merge_request(ctx, from),
            Wire::IAgentMoved { node } => {
                let iagent = IAgentId::new(from.raw());
                // Refused for an IAgent the directory does not hold.
                if self.commit(RehashOp::Moved { iagent, node }).is_ok() {
                    // Empty involved set: nothing to install, but eager
                    // copies and the standby must still learn the version.
                    self.distribute(ctx, &[]);
                }
            }
            Wire::FetchHashFn {
                have_version,
                reply_node,
            } => {
                self.shared.update(|s| s.hf_fetches += 1);
                let reply = match self.log.since(have_version) {
                    Some(delta) => ctx.encode_owned(delta),
                    None => self.payloads.copy(ctx, &self.hf),
                };
                ctx.send(from, reply_node, reply);
            }
            Wire::EpochRequest => {
                // A restarted tracker wants a fresh epoch before it may
                // use replicated records. Every request bumps — a retry
                // after a lost grant just fences one epoch further.
                let e = self.epochs.entry(from.raw()).or_insert(0);
                *e += 1;
                let epoch = *e;
                let buddy = self.hf.buddy_of(from).or(self.standby);
                if let Some(node) = self.node_of_iagent(from) {
                    ctx.send(from, node, ctx.encode(&Wire::EpochGrant { epoch, buddy }));
                }
            }
            _ => {}
        }
    }
}
