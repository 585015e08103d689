//! The forwarding-pointers baseline: a Voyager-style scheme.
//!
//! Voyager (paper §6) locates agents by following forwarding pointers:
//! "these nodes will forward the request until the agent is reached". We
//! model one forwarder agent per node. An agent arriving at a node tells
//! the local forwarder "I am here" and deposits a pointer at the node it
//! left; a locate starts at the target's birth node (known from its name)
//! and walks the pointer chain hop by hop.
//!
//! The chain from the birth node grows with the number of moves the target
//! has made since it was last "short-cut", which is what makes this scheme
//! degrade with mobility rate — the contrast the extended baseline panel
//! (experiment E7) shows against the hash-based mechanism.

use std::collections::HashMap;
use std::sync::Arc;

use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, Spawner, TimerId};
use agentrack_sim::CorrId;

use crate::config::LocationConfig;
use crate::home::NameTable;
use crate::retry::{LocateCore, RetryPolicy};
use crate::scheme::{
    ClientEvent, ClientFactory, DirectoryClient, LocationScheme, SharedSchemeStats,
};
use crate::wire::{send_traced, Freshness, Wire};

/// Longest pointer chain a locate will follow before giving up the
/// attempt (the client retries from the birth node).
const MAX_CHAIN_HOPS: u32 = 64;

/// What a forwarder knows about an agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pointer {
    /// The agent is resident at this node.
    Here,
    /// The agent left this node for the given one.
    MovedTo(NodeId),
}

/// Behaviour of a per-node forwarder.
#[derive(Debug)]
pub struct ForwarderBehavior {
    /// Forwarder directory (index = node), for chain forwarding.
    forwarders: Arc<Vec<AgentId>>,
    pointers: HashMap<AgentId, Pointer>,
    shared: SharedSchemeStats,
}

impl ForwarderBehavior {
    /// Creates an empty forwarder knowing its peers.
    #[must_use]
    pub fn new(forwarders: Arc<Vec<AgentId>>, shared: SharedSchemeStats) -> Self {
        ForwarderBehavior {
            forwarders,
            pointers: HashMap::new(),
            shared,
        }
    }
}

impl Agent for ForwarderBehavior {
    fn on_restart(&mut self, _ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        if lost_soft_state {
            // Forwarding keeps no authoritative copy anywhere: a pointer
            // lost here is lost for good. Agents that re-announce from
            // this node reappear, but chains that *passed through* this
            // forwarder are severed permanently — the scheme's known
            // fault-tolerance gap.
            self.pointers.clear();
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let Some(msg) = Wire::from_payload(payload) else {
            return;
        };
        // Only the chain walk is part of a locate's traced path.
        if matches!(msg, Wire::ChainLocate { .. }) {
            msg.trace_recv(ctx);
        }
        match msg {
            // "I am here": an agent arrived at this node.
            Wire::Register { agent, node } | Wire::Update { agent, node } => {
                debug_assert_eq!(node, ctx.node());
                self.pointers.insert(agent, Pointer::Here);
                ctx.send(from, node, ctx.encode(&Wire::RegisterAck { agent }));
            }
            Wire::LeavePointer { agent, to } => {
                self.pointers.insert(agent, Pointer::MovedTo(to));
            }
            Wire::Deregister { agent, .. } => {
                self.pointers.remove(&agent);
            }
            Wire::ChainLocate {
                target,
                token,
                reply_to,
                reply_node,
                hops,
                corr,
            } => match self.pointers.get(&target) {
                Some(Pointer::Here) => {
                    let answer = Wire::Located {
                        target,
                        node: ctx.node(),
                        stale: false,
                        age_ms: 0,
                        token,
                        corr,
                    };
                    send_traced(ctx, reply_to, reply_node, &answer);
                }
                Some(&Pointer::MovedTo(next)) if hops < MAX_CHAIN_HOPS => {
                    self.shared.update(|s| s.chain_hops += 1);
                    let onward = Wire::ChainLocate {
                        target,
                        token,
                        reply_to,
                        reply_node,
                        hops: hops + 1,
                        corr,
                    };
                    send_traced(ctx, self.forwarders[next.index()], next, &onward);
                }
                _ => {
                    let answer = Wire::NotFound {
                        target,
                        token,
                        corr,
                    };
                    send_traced(ctx, reply_to, reply_node, &answer);
                }
            },
            _ => {}
        }
    }
}

/// The forwarding-pointers location scheme: one forwarder per node.
#[derive(Debug)]
pub struct ForwardingScheme {
    config: LocationConfig,
    shared: SharedSchemeStats,
    names: NameTable,
    /// The half every client shares, built at bootstrap.
    clients: Option<Arc<PerScheme>>,
}

impl ForwardingScheme {
    /// Creates the scheme.
    #[must_use]
    pub fn new(config: LocationConfig) -> Self {
        ForwardingScheme {
            config,
            shared: SharedSchemeStats::new(),
            names: Arc::default(),
            clients: None,
        }
    }
}

impl LocationScheme for ForwardingScheme {
    fn name(&self) -> &'static str {
        "forwarding"
    }

    fn bootstrap(&mut self, platform: &mut dyn Spawner) {
        assert!(self.clients.is_none(), "bootstrap called twice");
        // Forwarders need each other's ids: pre-name them (sequential id
        // assignment), then spawn.
        let base = platform.next_agent_id();
        let node_count = platform.node_count();
        let ids: Vec<AgentId> = (0..node_count)
            .map(|i| AgentId::new(base + u64::from(i)))
            .collect();
        let shared_ids = Arc::new(ids.clone());
        for (i, &expected) in ids.iter().enumerate() {
            let spawned = platform.spawn_agent(
                Box::new(ForwarderBehavior::new(
                    Arc::clone(&shared_ids),
                    self.shared.clone(),
                )),
                NodeId::new(i as u32),
            );
            assert_eq!(spawned, expected, "agent id assignment drifted");
        }
        self.shared.set_trackers(node_count as u64);
        self.clients = Some(Arc::new(PerScheme {
            retry: RetryPolicy::new(&self.config),
            shared: self.shared.clone(),
            forwarders: shared_ids,
            names: Arc::clone(&self.names),
        }));
    }

    fn client_factory(&self) -> ClientFactory {
        let scheme = self
            .clients
            .clone()
            .expect("client_factory before bootstrap");
        Arc::new(move || Box::new(ForwardingClient::new(Arc::clone(&scheme))))
    }

    fn shared(&self) -> &SharedSchemeStats {
        &self.shared
    }
}

/// The half of every forwarding client that is the same for all of them,
/// built once at bootstrap.
#[derive(Debug)]
struct PerScheme {
    retry: RetryPolicy,
    /// Scheme-wide counters and tracker rows; give-ups are charged here.
    shared: SharedSchemeStats,
    /// Forwarder at each node (index = node id).
    forwarders: Arc<Vec<AgentId>>,
    names: NameTable,
}

/// Client-side state machine of the forwarding scheme: every attempt is a
/// `ChainLocate` to the forwarder at the target's birth node.
#[derive(Debug)]
pub struct ForwardingClient {
    scheme: Arc<PerScheme>,
    birth: Option<NodeId>,
    prev_node: Option<NodeId>,
    core: LocateCore,
}

impl ForwardingClient {
    fn new(scheme: Arc<PerScheme>) -> Self {
        ForwardingClient {
            scheme,
            birth: None,
            prev_node: None,
            core: LocateCore::default(),
        }
    }

    fn forwarder_at(&self, node: NodeId) -> (AgentId, NodeId) {
        (self.scheme.forwarders[node.index()], node)
    }

    fn announce_here(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        let here = ctx.node();
        let (fw, node) = self.forwarder_at(here);
        let msg = if self.core.registered() {
            Wire::Update {
                agent: me,
                node: here,
            }
        } else {
            Wire::Register {
                agent: me,
                node: here,
            }
        };
        ctx.send(fw, node, ctx.encode(&msg));
    }

    fn send_locate(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, token: u64) {
        // An unregistered target has no birth node yet; the retry timer
        // tries again later.
        let birth = self.scheme.names.read().get(&target).copied();
        let forwarder = birth.map(|birth| self.forwarder_at(birth));
        if let Some((fw, node)) = forwarder {
            let me = ctx.self_id();
            let msg = Wire::ChainLocate {
                target,
                token,
                reply_to: me,
                reply_node: ctx.node(),
                hops: 0,
                corr: Some(CorrId::new(me.raw(), token)),
            };
            send_traced(ctx, fw, node, &msg);
        }
        self.core.sent(&self.scheme.retry, ctx, token, forwarder);
    }
}

impl DirectoryClient for ForwardingClient {
    fn register(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        let here = ctx.node();
        if self.birth.is_none() {
            self.birth = Some(here);
            self.prev_node = Some(here);
            self.scheme.names.write().insert(me, here);
        }
        self.announce_here(ctx);
    }

    fn moved(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.core.registered() {
            self.register(ctx);
            return;
        }
        let me = ctx.self_id();
        let here = ctx.node();
        // Deposit the pointer at the node we left, then announce here.
        if let Some(prev) = self.prev_node.replace(here) {
            if prev != here {
                let (fw, node) = self.forwarder_at(prev);
                ctx.send(
                    fw,
                    node,
                    ctx.encode(&Wire::LeavePointer {
                        agent: me,
                        to: here,
                    }),
                );
            }
        }
        self.announce_here(ctx);
    }

    fn deregister(&mut self, ctx: &mut AgentCtx<'_>) {
        // Drop the "Here" pointer at the current node and the birth entry;
        // stale MovedTo pointers along the old trail expire into NotFound.
        let me = ctx.self_id();
        let here = ctx.node();
        let (fw, node) = self.forwarder_at(here);
        ctx.send(
            fw,
            node,
            ctx.encode(&Wire::Deregister { agent: me, ttl: 0 }),
        );
        if let Some(birth) = self.birth {
            if birth != here {
                let (fw, node) = self.forwarder_at(birth);
                ctx.send(
                    fw,
                    node,
                    ctx.encode(&Wire::Deregister { agent: me, ttl: 0 }),
                );
            }
        }
        self.scheme.names.write().remove(&me);
    }

    fn locate_with(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        token: u64,
        freshness: Freshness,
    ) {
        // A chain walk always ends at the node the target is resident on,
        // so every answer is authoritative (age 0) and any bound holds.
        self.core.start(token, target, freshness);
        self.send_locate(ctx, target, token);
    }

    fn on_message(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        _from: AgentId,
        payload: &Payload,
    ) -> ClientEvent {
        let Some(msg) = Wire::recv_traced(ctx, payload) else {
            return ClientEvent::NotMine;
        };
        self.core
            .on_answer(&self.scheme.retry, &self.scheme.shared, ctx, msg)
            .then_resend(|token, target| self.send_locate(ctx, target, token))
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        _to: AgentId,
        _node: NodeId,
        payload: &Payload,
    ) -> ClientEvent {
        match Wire::from_payload(payload) {
            Some(Wire::Update { .. } | Wire::Register { .. }) => {
                self.announce_here(ctx);
                ClientEvent::Consumed
            }
            Some(_) => ClientEvent::Consumed,
            None => ClientEvent::NotMine,
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) -> ClientEvent {
        self.core
            .on_timer(&self.scheme.retry, &self.scheme.shared, ctx, timer)
            .then_resend(|token, target| self.send_locate(ctx, target, token))
    }
}
