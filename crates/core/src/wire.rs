//! The wire protocol of the location schemes, and the hash-function
//! artifact the HAgent distributes.
//!
//! All schemes (hashed, centralized, home-registry, forwarding) share one
//! message enum so behaviours can cheaply test "is this one of mine" by
//! attempting to decode a [`Wire`] value.

use std::collections::HashMap;

use agentrack_hashtree::{AgentKey, CompiledDirectory, HashTree, IAgentId};
use agentrack_platform::{AgentCtx, AgentId, NodeId, Payload};
use agentrack_sim::{CorrId, TraceEvent};
use serde::{Deserialize, Serialize};

/// Derives the hash key of a platform agent id.
///
/// The platform assigns agent ids sequentially; the location mechanism
/// requires keys whose prefix bits are uniform, so ids are passed through a
/// full-avalanche mixer. This is the system-wide hash function's first
/// stage (its second stage is the hash tree's prefix matching).
#[must_use]
pub fn key_of(agent: AgentId) -> AgentKey {
    AgentKey::from_sequential(agent.raw())
}

/// The complete hash-function artifact: what the HAgent owns (primary
/// copy) and LHAgents cache (secondary copies). IAgents receive it too,
/// but keep only a [`TrackerView`](crate::TrackerView) of it.
///
/// Besides the tree this carries the IAgent *directory* — the current node
/// of every IAgent — because resolving an agent must yield both "which
/// IAgent" and "where is it" (paper: the LHAgent returns "the id and the
/// current location of A's IAgent").
///
/// Every copy also carries a [`CompiledDirectory`]: the tree flattened
/// into a `2^d` table so the hot [`resolve`](Self::resolve) path is one
/// array index instead of a per-bit tree walk. The table is derived data —
/// it is rebuilt on deserialisation rather than sent over the wire, it is
/// excluded from equality, and it is generation-stamped so a direct
/// mutation of [`tree`](Self::tree) can never produce a wrong answer:
/// resolves fall back to the tree walk until [`recompile`](Self::recompile)
/// (full) or [`refresh_compiled`](Self::refresh_compiled) (incremental,
/// used by the HAgent after each rehash) brings the table current.
#[derive(Debug, Clone)]
pub struct HashFunction {
    /// Version counter, bumped by every rehash; lets copies recognise
    /// staleness.
    pub version: u64,
    /// The extendible hash tree.
    pub tree: HashTree,
    /// Where each IAgent lives. Keys are the tree's leaf owners.
    pub locations: HashMap<IAgentId, NodeId>,
    /// O(1) dispatch table compiled from `tree`; lazily kept current.
    compiled: CompiledDirectory,
}

impl HashFunction {
    /// Builds version 1 of the hash function: one IAgent serving the whole
    /// key space.
    #[must_use]
    pub fn initial(iagent: AgentId, node: NodeId) -> Self {
        let ia = IAgentId::new(iagent.raw());
        let mut locations = HashMap::new();
        locations.insert(ia, node);
        let tree = HashTree::new(ia);
        let compiled = CompiledDirectory::build(&tree);
        HashFunction {
            version: 1,
            tree,
            locations,
            compiled,
        }
    }

    /// The tree lookup, through the compiled directory when it is current
    /// (the common case — the HAgent refreshes it on every rehash, and
    /// deserialised copies arrive freshly compiled).
    #[inline]
    fn lookup(&self, key: AgentKey) -> IAgentId {
        if self.compiled.is_current(&self.tree) {
            if let Some(ia) = self.compiled.lookup(key) {
                return ia;
            }
        }
        self.tree.lookup(key)
    }

    /// Resolves an agent id to its responsible IAgent and that IAgent's
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if the tree and directory are out of sync — an invariant the
    /// HAgent maintains.
    #[must_use]
    pub fn resolve(&self, target: AgentId) -> (AgentId, NodeId) {
        let ia = self.lookup(key_of(target));
        let node = *self
            .locations
            .get(&ia)
            .expect("hash tree leaf without a directory entry");
        (AgentId::new(ia.raw()), node)
    }

    /// `true` if `iagent` is responsible for `target` under this version.
    #[must_use]
    pub fn is_responsible(&self, iagent: AgentId, target: AgentId) -> bool {
        self.lookup(key_of(target)) == IAgentId::new(iagent.raw())
    }

    /// The compiled dispatch table (possibly stale; check
    /// [`CompiledDirectory::is_current`]).
    #[must_use]
    pub fn compiled(&self) -> &CompiledDirectory {
        &self.compiled
    }

    /// Rebuilds the compiled directory from scratch. Call after mutating
    /// [`tree`](Self::tree) directly; until then resolves take the (safe,
    /// slower) tree walk.
    pub fn recompile(&mut self) {
        self.compiled = CompiledDirectory::build(&self.tree);
    }

    /// Incrementally refreshes the compiled directory after one split or
    /// merge: only the regions of `involved` leaves are rewritten
    /// ([`SplitApplied::affected`] plus the new IAgent, or
    /// [`MergeApplied::absorbers`]).
    ///
    /// [`SplitApplied::affected`]: agentrack_hashtree::SplitApplied::affected
    /// [`MergeApplied::absorbers`]: agentrack_hashtree::MergeApplied::absorbers
    pub fn refresh_compiled(&mut self, involved: &[IAgentId]) {
        self.compiled.refresh(&self.tree, involved);
    }

    /// The buddy replica of an IAgent: the leaf serving the key region
    /// adjacent to the IAgent's own — reached by flipping the last valid
    /// bit of its hyper-label. Returns `None` when the tree has a single
    /// leaf (no sibling exists; callers fall back to the configured
    /// standby) or when `iagent` is not a current leaf.
    #[must_use]
    pub fn buddy_of(&self, iagent: AgentId) -> Option<(AgentId, NodeId)> {
        let ia = IAgentId::new(iagent.raw());
        if self.tree.iagent_count() <= 1 || !self.tree.contains(ia) {
            return None;
        }
        let hl = self.tree.hyper_label(ia).ok()?;
        let positions = hl.valid_bit_positions();
        let labels = hl.labels();
        let mut raw = 0u64;
        for (i, (pos, label)) in positions.iter().zip(labels).enumerate() {
            let bit = if i == labels.len() - 1 {
                !label.valid_bit()
            } else {
                label.valid_bit()
            };
            if bit {
                raw |= 1u64 << (63 - pos);
            }
        }
        let sibling = self.tree.lookup(AgentKey::new(raw));
        if sibling == ia {
            return None;
        }
        let node = *self.locations.get(&sibling)?;
        Some((AgentId::new(sibling.raw()), node))
    }

    /// Consistency check: every leaf has a directory entry and vice versa,
    /// and a current compiled directory agrees with the tree slot by slot.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        self.tree.validate()?;
        for ia in self.tree.iagents() {
            if !self.locations.contains_key(&ia) {
                return Err(format!("{ia} has no directory entry"));
            }
        }
        if self.locations.len() != self.tree.iagent_count() {
            return Err(format!(
                "directory has {} entries for {} leaves",
                self.locations.len(),
                self.tree.iagent_count()
            ));
        }
        if self.compiled.is_current(&self.tree) {
            self.compiled.verify(&self.tree)?;
        }
        Ok(())
    }
}

/// The compiled directory is derived data: two hash functions are equal
/// when their versions, trees and directories agree, regardless of whether
/// either side's table is current.
impl PartialEq for HashFunction {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.tree == other.tree
            && self.locations == other.locations
    }
}

/// Wire format identical to the former derived one (`version`, `tree`,
/// `locations`); the compiled table stays local.
impl Serialize for HashFunction {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            (String::from("version"), Serialize::serialize(&self.version)),
            (String::from("tree"), Serialize::serialize(&self.tree)),
            (
                String::from("locations"),
                Serialize::serialize(&self.locations),
            ),
        ])
    }
}

/// Deserialised copies arrive with a freshly compiled table: this is what
/// gives LHAgent secondary copies and client-held copies their
/// per-generation compiled cache without any extra protocol.
impl Deserialize for HashFunction {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| -> Result<&serde::Value, serde::Error> {
            value
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("HashFunction: missing {name}")))
        };
        let version = Deserialize::deserialize(field("version")?)?;
        let tree: HashTree = Deserialize::deserialize(field("tree")?)?;
        let locations = Deserialize::deserialize(field("locations")?)?;
        let compiled = CompiledDirectory::build(&tree);
        Ok(HashFunction {
            version,
            tree,
            locations,
            compiled,
        })
    }
}

/// Why the HAgent (or a standby) declined a rehash request. The reason
/// drives the requester's retry backoff: a busy pipeline clears in one
/// lease round-trip, a cooldown or planning failure needs the load picture
/// to change, and a read-only standby stays read-only until the primary
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DenyReason {
    /// The rehash pipeline is full, or an in-flight lease's region
    /// overlaps the requested one. Clears quickly: retry after a short
    /// backoff.
    Busy,
    /// A recently committed rehash's region overlaps the requested one
    /// and its cooldown has not elapsed.
    Cooldown,
    /// The receiver is a read-only standby: the primary HAgent is down
    /// and the tree is frozen until it returns. Retry after a long
    /// backoff.
    ReadOnly,
    /// No acceptable plan: nothing to split on (or the merge is
    /// impossible). Retrying before the load picture changes is futile.
    NoPlan,
}

/// How fresh a locate answer must be — the per-query read mode of the
/// geo-distributed extension.
///
/// A locate declares the staleness it tolerates; trackers answer from a
/// record only when the record's age fits. The responsible IAgent's live
/// record is authoritative (age 0) and satisfies every mode; recovery
/// records and buddy-replica copies carry an age stamp and satisfy only
/// the modes that admit it. This promotes PR 5's recovery-only
/// `Located{stale}` into a first-class read mode: under a severed
/// inter-region link a [`Freshness::BoundedMs`] locate can be answered
/// locally from a replica within its bound, while a [`Freshness::Fresh`]
/// locate must wait for the authoritative region.
///
/// # Examples
///
/// ```
/// use agentrack_core::Freshness;
///
/// assert!(Freshness::Fresh.admits(0));
/// assert!(!Freshness::Fresh.admits(1));
/// assert!(Freshness::BoundedMs(500).admits(500));
/// assert!(!Freshness::BoundedMs(500).admits(501));
/// assert!(Freshness::Any.admits(u64::MAX));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Freshness {
    /// Only an authoritative answer qualifies: the responsible tracker's
    /// live record. Replica and recovery copies never satisfy it.
    Fresh,
    /// Any record at most this many milliseconds old qualifies —
    /// including a buddy replica's copy when the owner is unreachable.
    BoundedMs(u64),
    /// Anything, however old: the pre-geo behaviour (recovering trackers
    /// answer from unreconfirmed replica records of unbounded age).
    Any,
}

impl Freshness {
    /// `true` when a record `age_ms` milliseconds old satisfies this
    /// requirement. Monotone in the bound: an age admitted under
    /// `BoundedMs(a)` is admitted under every `BoundedMs(b)` with
    /// `b >= a`, and under `Any`.
    #[must_use]
    pub fn admits(&self, age_ms: u64) -> bool {
        match self {
            Freshness::Fresh => age_ms == 0,
            Freshness::BoundedMs(bound) => age_ms <= *bound,
            Freshness::Any => true,
        }
    }

    /// The mode's bound in milliseconds: 0 for `Fresh`, `None` for `Any`.
    #[must_use]
    pub fn bound_ms(&self) -> Option<u64> {
        match self {
            Freshness::Fresh => Some(0),
            Freshness::BoundedMs(bound) => Some(*bound),
            Freshness::Any => None,
        }
    }
}

impl Default for Freshness {
    /// `Any`: the paper's single-LAN behaviour, where staleness is only
    /// the transient kind LHAgents repair lazily.
    fn default() -> Self {
        Freshness::Any
    }
}

/// Every message any location scheme sends.
///
/// `token` fields correlate asynchronous replies with the requests that
/// caused them. `corr` fields carry the end-to-end [`CorrId`] of the
/// operation a message belongs to: every hop of one locate — resolve,
/// locate, chase, answer — carries the same id, so the full multi-hop
/// path can be reconstructed from a trace ring-buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Wire {
    // ---- client ↔ LHAgent (hashed scheme, phase 1) ----
    /// Resolve `target` to its IAgent using the local copy of the hash
    /// function.
    Resolve {
        /// Agent being resolved.
        target: AgentId,
        /// Correlation token, echoed in [`Wire::Resolved`].
        token: Option<u64>,
        /// End-to-end id of the operation this resolve serves.
        corr: Option<CorrId>,
    },
    /// Like [`Wire::Resolve`], but the caller has evidence the local copy
    /// is stale: fetch the primary copy from the HAgent first.
    ResolveFresh {
        /// Agent being resolved.
        target: AgentId,
        /// Correlation token.
        token: Option<u64>,
        /// End-to-end id of the operation this resolve serves.
        corr: Option<CorrId>,
    },
    /// Answer to a resolve: the responsible IAgent and its node.
    Resolved {
        /// The agent that was resolved.
        target: AgentId,
        /// Responsible IAgent (as a platform agent id).
        iagent: AgentId,
        /// Node that IAgent lives on.
        node: NodeId,
        /// The responsible IAgent's buddy replica (sibling leaf or
        /// standby), when one exists under this copy of the tree. Clients
        /// hedge freshness-bounded locates to it when the responsible
        /// tracker's region looks unreachable.
        buddy: Option<(AgentId, NodeId)>,
        /// Hash-function version this answer came from.
        version: u64,
        /// Correlation token.
        token: Option<u64>,
        /// End-to-end id, echoed from the resolve.
        corr: Option<CorrId>,
    },

    // ---- client ↔ IAgent (phase 2) / central agent / registries ----
    /// First registration of an agent with its tracker.
    Register {
        /// The agent registering.
        agent: AgentId,
        /// Where it currently is.
        node: NodeId,
    },
    /// Registration acknowledged.
    RegisterAck {
        /// The registered agent.
        agent: AgentId,
    },
    /// Location update after a move.
    Update {
        /// The agent that moved.
        agent: AgentId,
        /// Its new node.
        node: NodeId,
    },
    /// The agent is terminating: drop its record ("existing agents die").
    ///
    /// Unlike an [`Wire::Update`], this cannot be repaired through the
    /// sender — the agent dies right after sending, so a
    /// `NotResponsible` bounce would land on nobody. A tracker that is
    /// not responsible chases the deregister toward the owner under its
    /// own (fresher) hash function instead, `ttl`-bounded against
    /// version-skew ping-pong.
    Deregister {
        /// The agent going away.
        agent: AgentId,
        /// Remaining tracker hops before the chase is abandoned.
        ttl: u32,
    },
    /// Query for an agent's current location.
    Locate {
        /// The agent being located.
        target: AgentId,
        /// Correlation token, echoed in the answer.
        token: u64,
        /// Node the querier wants the answer sent to.
        reply_node: NodeId,
        /// How fresh the answer must be; trackers refuse to answer from
        /// records older than the declared bound.
        freshness: Freshness,
        /// End-to-end id of this locate.
        corr: Option<CorrId>,
    },
    /// Successful locate answer.
    Located {
        /// The located agent.
        target: AgentId,
        /// Its (last reported) node.
        node: NodeId,
        /// `true` when the answer comes from a replica or recovery copy
        /// that has not been reconfirmed: the node is the agent's last
        /// replicated location and may be outdated. Clients treat it
        /// like a forwarding hint rather than ground truth.
        stale: bool,
        /// Age of the answering record in milliseconds: 0 for an
        /// authoritative answer, time since the last replica sync for a
        /// replica/recovery answer. Never exceeds the locate's declared
        /// freshness bound.
        age_ms: u64,
        /// Correlation token.
        token: u64,
        /// End-to-end id, echoed from the locate.
        corr: Option<CorrId>,
    },
    /// The tracker has no record of the target.
    NotFound {
        /// The agent that could not be located.
        target: AgentId,
        /// Correlation token.
        token: u64,
        /// End-to-end id, echoed from the locate.
        corr: Option<CorrId>,
    },
    /// The receiving IAgent is no longer responsible for this agent: the
    /// sender's hash-function copy is stale (paper §2.3). Triggers the
    /// update-propagation procedure.
    NotResponsible {
        /// The agent the request concerned.
        about: AgentId,
        /// The locate token, when the request was a locate.
        token: Option<u64>,
        /// End-to-end id, echoed from the stale request.
        corr: Option<CorrId>,
    },

    // ---- IAgent ↔ HAgent (rehashing, §4) ----
    /// "My rate exceeded `T_max`": ask the HAgent to split. Carries the
    /// requester's per-agent load statistics for even-split planning.
    SplitRequest {
        /// Observed request rate (messages/second).
        rate: f64,
        /// Accumulated per-agent request counts.
        loads: Vec<(AgentId, u64)>,
    },
    /// "My rate fell below `T_min`": ask the HAgent to merge me away.
    MergeRequest {
        /// Observed request rate (messages/second).
        rate: f64,
    },
    /// The HAgent declined, and why — the reason picks the requester's
    /// retry backoff.
    RehashDenied {
        /// What blocked the request.
        reason: DenyReason,
    },
    /// A freshly created IAgent reporting for duty, carrying the id of the
    /// split lease it was created under so the HAgent can commit the right
    /// in-flight operation (several may be pending concurrently).
    IAgentReady {
        /// The lease this IAgent was created to serve.
        lease: u64,
    },
    /// An IAgent migrated (locality extension): the HAgent must update the
    /// directory and bump the version so resolves learn the new node.
    IAgentMoved {
        /// The IAgent's new node.
        node: NodeId,
    },
    /// The HAgent installs a new hash-function version on an IAgent.
    /// Receivers hand off records that no longer hash to them; an IAgent
    /// whose leaf is gone hands off everything and disposes itself.
    InstallHashFn {
        /// The new primary copy.
        hf: HashFunction,
    },
    /// Records migrating from one IAgent to another after a rehash.
    Handoff {
        /// `(agent, last known node)` records.
        records: Vec<(AgentId, NodeId)>,
    },

    // ---- record durability (replication + epoch-fenced recovery) ----
    /// A restarted IAgent asks the HAgent for a fresh epoch before it may
    /// pull replicated records: the bump fences out any replica written by
    /// an earlier incarnation whose ownership has since been handed off.
    EpochRequest,
    /// The HAgent's answer: the requester's new epoch and its current
    /// buddy replica (`None` when the tree has one leaf and no standby is
    /// configured).
    EpochGrant {
        /// The freshly bumped epoch of the requesting IAgent.
        epoch: u64,
        /// Where the requester's replica lives, if anywhere.
        buddy: Option<(AgentId, NodeId)>,
    },
    /// Batched replication of an IAgent's record set (and rate estimate)
    /// to its buddy replica. Full-snapshot semantics: the buddy replaces
    /// its copy when `(epoch, seq)` is not older than what it holds.
    RecordSync {
        /// The sender's current epoch.
        epoch: u64,
        /// Monotonic batch number within the epoch.
        seq: u64,
        /// `(agent, last known node)` records, the full current set.
        records: Vec<(AgentId, NodeId)>,
        /// The sender's observed request rate (messages/second).
        rate: f64,
        /// Where the ack should be sent (the sender's node).
        reply_node: NodeId,
    },
    /// The buddy acknowledges a [`Wire::RecordSync`] batch.
    RecordSyncAck {
        /// Echoed epoch.
        epoch: u64,
        /// Echoed batch number.
        seq: u64,
    },
    /// A recovering IAgent pulls the replica of its own records from its
    /// buddy. `epoch` is the puller's freshly granted epoch; the buddy
    /// answers with whatever it holds and its stamp.
    ReplicaPull {
        /// The puller's new epoch (diagnostics; fencing happens at the
        /// puller, which knows both stamps).
        epoch: u64,
        /// Where the [`Wire::ReplicaSet`] answer should be sent.
        reply_node: NodeId,
    },
    /// The buddy's answer to a [`Wire::ReplicaPull`]: the stored replica
    /// with the epoch/seq stamp it was written under. Empty when the buddy
    /// holds nothing for the puller.
    ReplicaSet {
        /// Epoch the replica was written under by the previous incarnation.
        epoch: u64,
        /// Last acknowledged batch number under that epoch.
        seq: u64,
        /// The replicated `(agent, last known node)` records.
        records: Vec<(AgentId, NodeId)>,
        /// The replicated rate estimate (messages/second).
        rate: f64,
        /// Age of the replica at serve time (milliseconds since the last
        /// sync landed at the buddy). Recovered records inherit this as
        /// their staleness base, so freshness-bounded answers account for
        /// the whole authoritative-to-replica gap.
        age_ms: u64,
    },
    /// A recovering IAgent asks an agent (at its last replicated node) to
    /// re-register, reconfirming a possibly-stale recovered record.
    SolicitReregister,

    // ---- LHAgent ↔ HAgent (copy maintenance, §4.3) ----
    /// A secondary-copy holder pulls the primary copy.
    FetchHashFn {
        /// Version the requester already has (for diagnostics).
        have_version: u64,
        /// Node the requester wants the copy sent to.
        reply_node: NodeId,
    },
    /// The primary copy, in response to a fetch or an eager push.
    HashFnCopy {
        /// The primary copy.
        hf: HashFunction,
    },

    // ---- guaranteed delivery (§6 future work: tracker-mediated mail) ----
    /// Deliver `data` to `target` through the location mechanism: routed
    /// tracker-to-tracker toward the responsible IAgent, which forwards it
    /// to the agent's node or buffers it until the agent's next update.
    DeliverVia {
        /// The recipient agent.
        target: AgentId,
        /// The original sender, restored on final delivery.
        from: AgentId,
        /// Application payload bytes.
        data: Vec<u8>,
        /// Remaining tracker hops before the mail is dropped (loop guard).
        ttl: u32,
    },
    /// Final leg of a [`Wire::DeliverVia`]: handed to the recipient's
    /// client, which surfaces the inner payload to the owning agent.
    MailDrop {
        /// The original sender.
        from: AgentId,
        /// Application payload bytes.
        data: Vec<u8>,
    },

    // ---- forwarding-pointers (Voyager-like) baseline ----
    // (The home-registry baseline reuses Register/Update/Locate, sent to
    // the target's home registry instead of an IAgent.)
    /// Follow the pointer chain one hop: "where did `target` go?".
    ChainLocate {
        /// The agent being located.
        target: AgentId,
        /// Correlation token.
        token: u64,
        /// Querier to answer when the chain ends.
        reply_to: AgentId,
        /// Querier's node.
        reply_node: NodeId,
        /// Hops walked so far (loop guard).
        hops: u32,
        /// End-to-end id of this locate.
        corr: Option<CorrId>,
    },
    /// Deposit a forwarding pointer at the node an agent is leaving.
    LeavePointer {
        /// The agent that left.
        agent: AgentId,
        /// Where it went.
        to: NodeId,
    },
}

impl Wire {
    /// Encodes the message as a platform payload.
    #[must_use]
    pub fn payload(&self) -> Payload {
        Payload::encode(self)
    }

    /// Attempts to decode a payload as a protocol message.
    #[must_use]
    pub fn from_payload(payload: &Payload) -> Option<Wire> {
        payload.decode().ok()
    }

    /// Decodes a payload as a protocol message and records its handling
    /// as a `MessageRecv` trace event (kind, correlation id, receiver,
    /// queueing delay). With [`send_traced`] this is the crate's one
    /// emission point for message events: span reconstruction pairs the
    /// two by kind and correlation id.
    pub(crate) fn recv_traced(ctx: &AgentCtx<'_>, payload: &Payload) -> Option<Wire> {
        let msg = Wire::from_payload(payload)?;
        msg.trace_recv(ctx);
        Some(msg)
    }

    /// The tracing half of [`Wire::recv_traced`], for a receiver that
    /// traces only some of the kinds it decodes.
    pub(crate) fn trace_recv(&self, ctx: &AgentCtx<'_>) {
        let me = ctx.self_id().raw();
        let here = ctx.node();
        let queued = ctx.queued();
        ctx.trace().emit(ctx.now(), || TraceEvent::MessageRecv {
            kind: self.kind(),
            corr: self.corr(),
            by: me,
            node: here,
            queued,
        });
    }

    /// The message's variant name, as a static string (trace labels).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Wire::Resolve { .. } => "Resolve",
            Wire::ResolveFresh { .. } => "ResolveFresh",
            Wire::Resolved { .. } => "Resolved",
            Wire::Register { .. } => "Register",
            Wire::RegisterAck { .. } => "RegisterAck",
            Wire::Update { .. } => "Update",
            Wire::Deregister { .. } => "Deregister",
            Wire::Locate { .. } => "Locate",
            Wire::Located { .. } => "Located",
            Wire::NotFound { .. } => "NotFound",
            Wire::NotResponsible { .. } => "NotResponsible",
            Wire::SplitRequest { .. } => "SplitRequest",
            Wire::MergeRequest { .. } => "MergeRequest",
            Wire::RehashDenied { .. } => "RehashDenied",
            Wire::IAgentReady { .. } => "IAgentReady",
            Wire::IAgentMoved { .. } => "IAgentMoved",
            Wire::InstallHashFn { .. } => "InstallHashFn",
            Wire::Handoff { .. } => "Handoff",
            Wire::EpochRequest => "EpochRequest",
            Wire::EpochGrant { .. } => "EpochGrant",
            Wire::RecordSync { .. } => "RecordSync",
            Wire::RecordSyncAck { .. } => "RecordSyncAck",
            Wire::ReplicaPull { .. } => "ReplicaPull",
            Wire::ReplicaSet { .. } => "ReplicaSet",
            Wire::SolicitReregister => "SolicitReregister",
            Wire::FetchHashFn { .. } => "FetchHashFn",
            Wire::HashFnCopy { .. } => "HashFnCopy",
            Wire::DeliverVia { .. } => "DeliverVia",
            Wire::MailDrop { .. } => "MailDrop",
            Wire::ChainLocate { .. } => "ChainLocate",
            Wire::LeavePointer { .. } => "LeavePointer",
        }
    }

    /// The end-to-end correlation id this message carries, if any.
    #[must_use]
    pub fn corr(&self) -> Option<CorrId> {
        match self {
            Wire::Resolve { corr, .. }
            | Wire::ResolveFresh { corr, .. }
            | Wire::Resolved { corr, .. }
            | Wire::Locate { corr, .. }
            | Wire::Located { corr, .. }
            | Wire::NotFound { corr, .. }
            | Wire::NotResponsible { corr, .. }
            | Wire::ChainLocate { corr, .. } => *corr,
            _ => None,
        }
    }
}

/// Sends `msg` to agent `to` at `node`, recording a `MessageSend` trace
/// event stamped with that destination node. The event is built inside
/// the sink's closure, so a disabled sink costs one branch and no
/// allocation.
pub(crate) fn send_traced(ctx: &mut AgentCtx<'_>, to: AgentId, node: NodeId, msg: &Wire) {
    let me = ctx.self_id().raw();
    ctx.trace().emit(ctx.now(), || TraceEvent::MessageSend {
        kind: msg.kind(),
        corr: msg.corr(),
        from: me,
        to: to.raw(),
        node,
    });
    ctx.send(to, node, msg.payload());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_of_spreads_sequential_ids() {
        let ones = (0..1000u64)
            .filter(|&i| key_of(AgentId::new(i)).bit(0))
            .count();
        assert!((400..=600).contains(&ones));
    }

    #[test]
    fn initial_hash_function_resolves_everything_to_the_first_iagent() {
        let hf = HashFunction::initial(AgentId::new(3), NodeId::new(1));
        hf.validate().unwrap();
        for raw in [0u64, 7, 1 << 40] {
            let (ia, node) = hf.resolve(AgentId::new(raw));
            assert_eq!(ia, AgentId::new(3));
            assert_eq!(node, NodeId::new(1));
        }
        assert!(hf.is_responsible(AgentId::new(3), AgentId::new(77)));
        assert!(!hf.is_responsible(AgentId::new(4), AgentId::new(77)));
    }

    #[test]
    fn wire_round_trips_through_payload() {
        let messages = vec![
            Wire::Resolve {
                target: AgentId::new(1),
                token: Some(9),
                corr: Some(CorrId::new(1, 9)),
            },
            Wire::Locate {
                target: AgentId::new(2),
                token: 4,
                reply_node: NodeId::new(1),
                freshness: Freshness::BoundedMs(750),
                corr: None,
            },
            Wire::InstallHashFn {
                hf: HashFunction::initial(AgentId::new(0), NodeId::new(0)),
            },
            Wire::Handoff {
                records: vec![(AgentId::new(5), NodeId::new(2))],
            },
            Wire::SplitRequest {
                rate: 61.5,
                loads: vec![(AgentId::new(5), 10)],
            },
            Wire::Located {
                target: AgentId::new(7),
                node: NodeId::new(3),
                stale: true,
                age_ms: 1250,
                token: 12,
                corr: None,
            },
            Wire::RehashDenied {
                reason: DenyReason::Busy,
            },
            Wire::RehashDenied {
                reason: DenyReason::ReadOnly,
            },
            Wire::IAgentReady { lease: 42 },
            Wire::EpochRequest,
            Wire::EpochGrant {
                epoch: 3,
                buddy: Some((AgentId::new(9), NodeId::new(2))),
            },
            Wire::RecordSync {
                epoch: 3,
                seq: 17,
                records: vec![(AgentId::new(5), NodeId::new(2))],
                rate: 4.25,
                reply_node: NodeId::new(1),
            },
            Wire::RecordSyncAck { epoch: 3, seq: 17 },
            Wire::ReplicaPull {
                epoch: 4,
                reply_node: NodeId::new(1),
            },
            Wire::ReplicaSet {
                epoch: 3,
                seq: 17,
                records: vec![(AgentId::new(5), NodeId::new(2))],
                rate: 4.25,
                age_ms: 800,
            },
            Wire::SolicitReregister,
        ];
        for msg in messages {
            let p = msg.payload();
            assert_eq!(Wire::from_payload(&p), Some(msg));
        }
    }

    #[test]
    fn buddy_is_the_sibling_leaf_and_symmetric_after_one_split() {
        use agentrack_hashtree::{Side, SplitKind};
        let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
        assert_eq!(hf.buddy_of(AgentId::new(0)), None, "single leaf: no buddy");
        let candidates = hf.tree.split_candidates(IAgentId::new(0)).unwrap();
        let simple = candidates
            .iter()
            .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
            .unwrap();
        hf.tree
            .apply_split(simple, IAgentId::new(1), Side::Right)
            .unwrap();
        hf.locations.insert(IAgentId::new(1), NodeId::new(1));
        hf.recompile();
        assert_eq!(
            hf.buddy_of(AgentId::new(0)),
            Some((AgentId::new(1), NodeId::new(1)))
        );
        assert_eq!(
            hf.buddy_of(AgentId::new(1)),
            Some((AgentId::new(0), NodeId::new(0)))
        );
        assert_eq!(hf.buddy_of(AgentId::new(7)), None, "not a leaf");
    }

    #[test]
    fn non_protocol_payloads_decode_to_none() {
        let p = Payload::encode(&"just an application string");
        assert_eq!(Wire::from_payload(&p), None);
    }
}
