//! The wire protocol of the location schemes.
//!
//! All schemes (hashed, centralized, home-registry, forwarding) share one
//! message enum so behaviours can cheaply test "is this one of mine" by
//! attempting to decode a [`Wire`] value. The hash-function artifact the
//! messages carry lives in [`crate::hashfn`].

use agentrack_platform::{AgentCtx, AgentId, NodeId, Payload};
use agentrack_sim::{CorrId, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::hashfn::{HashFunction, RehashOp};
use crate::view::ViewImage;

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
    ///
    /// The whole copy: sent only where it is smaller than the receiver's
    /// view — a tree whose runs outnumber its leaves more than four to one,
    /// or one too deep to compile, whose view has no runs. Every other
    /// install is a [`Wire::InstallView`].
    InstallHashFn {
        /// The new primary copy.
        hf: HashFunction,
    },
    /// [`Wire::InstallHashFn`] as the receiver's view of the new version:
    /// its runs and the receiver's own leaf facts, not the tree.
    InstallView {
        /// The receiver's view of the new primary copy.
        image: ViewImage,
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
        /// The version of the whole copy the requester holds. The HAgent
        /// answers a version its op log still covers with a
        /// [`Wire::HashFnDelta`], anything else with a [`Wire::HashFnCopy`].
        /// 0 (versions start at 1) means "no whole copy held": IAgents,
        /// which keep only a tracker view, and an LHAgent whose delta did
        /// not apply send it to get a whole copy.
        have_version: u64,
        /// Node the requester wants the copy sent to.
        reply_node: NodeId,
    },
    /// The primary copy, in response to a fetch or an eager push.
    HashFnCopy {
        /// The primary copy.
        hf: HashFunction,
    },
    /// The ops that take a copy at `from_version` to the primary's
    /// version, `from_version + ops.len()`, in response to a fetch whose
    /// `have_version` the HAgent's op log covers. No ops confirms that
    /// the requester's copy is current.
    HashFnDelta {
        /// The version the first op applies to.
        from_version: u64,
        /// One op per version, oldest first.
        ops: Vec<RehashOp>,
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
    /// Encodes the message as a platform payload, in the in-process form
    /// (a copy of the message itself). A handler sends
    /// [`AgentCtx::encode`] of the message instead, which takes the form
    /// its runtime carries.
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
            Wire::InstallView { .. } => "InstallView",
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
            Wire::HashFnDelta { .. } => "HashFnDelta",
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
    ctx.send(to, node, ctx.encode(msg));
}

#[cfg(test)]
mod tests {
    use super::*;

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
            Wire::InstallView {
                image: {
                    let hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
                    crate::TrackerView::new(&hf, None)
                        .image_for(&hf, AgentId::new(0))
                        .unwrap()
                },
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
    fn non_protocol_payloads_decode_to_none() {
        let p = Payload::encode(&"just an application string");
        assert_eq!(Wire::from_payload(&p), None);
    }
}
