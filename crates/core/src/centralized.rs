//! The centralized baseline: the comparison scheme of the paper's
//! evaluation.
//!
//! "In the centralized scheme, there is a single central agent that is
//! responsible for maintaining the current location of all mobile agents
//! in the system. This central agent performs the same functions as the
//! IAgents in our system." (paper §5.)
//!
//! Every register, update and locate in the whole system funnels through
//! one agent — one FIFO service station — which is why its location time
//! grows with both the agent population and the mobility rate.

use std::collections::HashMap;
use std::sync::Arc;

use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, Spawner, TimerId};
use agentrack_sim::CorrId;

use crate::config::LocationConfig;
use crate::mailbox::{Mailbox, MAIL_TTL};
use crate::retry::{LocateCore, RetryPolicy};
use crate::scheme::{
    ClientEvent, ClientFactory, DirectoryClient, LocationScheme, SharedSchemeStats,
};
use crate::wire::{send_traced, Freshness, Wire};

/// Behaviour of the single central tracker.
#[derive(Debug, Default)]
pub struct CentralBehavior {
    records: HashMap<AgentId, NodeId>,
    mailbox: Mailbox,
    shared: SharedSchemeStats,
    requests_seen: u64,
}

impl CentralBehavior {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        CentralBehavior {
            records: HashMap::new(),
            mailbox: Mailbox::new(MAIL_TTL),
            shared: SharedSchemeStats::new(),
            requests_seen: 0,
        }
    }

    /// Reports mail losses and per-tracker metrics into the scheme's
    /// shared statistics instead of a detached default.
    #[must_use]
    pub fn with_shared(mut self, shared: SharedSchemeStats) -> Self {
        self.shared = shared;
        self
    }

    /// Wipes the tracker's soft state after a crash that lost it: every
    /// record and all buffered mail (accounted as lost). Records repair
    /// themselves as agents keep sending movement updates.
    pub(crate) fn drop_soft_state(&mut self, ctx: &mut AgentCtx<'_>) {
        self.mailbox.wipe(ctx, &self.shared);
        self.records.clear();
    }

    /// Mail can flow the moment a record (re)appears for `agent`.
    fn flush_mail_for(&mut self, ctx: &mut AgentCtx<'_>, agent: AgentId) {
        if let Some(&node) = self.records.get(&agent) {
            self.mailbox.flush_for(ctx, &self.shared, agent, node);
        }
    }
}

impl Agent for CentralBehavior {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.set_timer(agentrack_sim::SimDuration::from_millis(500));
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        if lost_soft_state {
            self.drop_soft_state(ctx);
        }
        // The crash killed the expiry timer chain; re-arm it.
        ctx.set_timer(agentrack_sim::SimDuration::from_millis(500));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: agentrack_platform::TimerId) {
        let me = ctx.self_id().raw();
        self.mailbox.expire_lost(ctx, &self.shared);
        let requests = self.requests_seen;
        let records_held = self.records.len();
        let mailbox_occupancy = self.mailbox.len();
        self.shared.update_tracker(me, |t| {
            t.requests = requests;
            t.records_held = records_held;
            t.observe_mailbox(mailbox_occupancy);
        });
        ctx.set_timer(agentrack_sim::SimDuration::from_millis(500));
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        _node: NodeId,
        payload: &Payload,
    ) {
        // A MailDrop bounced off a recipient that just moved: hold it for
        // the next update (the delivery guarantee).
        if let Some(Wire::MailDrop { from, data }) = Wire::from_payload(payload) {
            self.records.remove(&to);
            self.mailbox.buffer(ctx, &self.shared, to, from, data);
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let Some(msg) = Wire::recv_traced(ctx, payload) else {
            return;
        };
        self.requests_seen += 1;
        match msg {
            Wire::Register { agent, node } => {
                self.records.insert(agent, node);
                ctx.send(from, node, ctx.encode(&Wire::RegisterAck { agent }));
                self.flush_mail_for(ctx, agent);
            }
            Wire::Update { agent, node } => {
                self.records.insert(agent, node);
                self.flush_mail_for(ctx, agent);
            }
            Wire::DeliverVia {
                target,
                from: origin,
                data,
                ..
            } => match self.records.get(&target) {
                Some(&node) => ctx.send(
                    target,
                    node,
                    ctx.encode_owned(Wire::MailDrop { from: origin, data }),
                ),
                None => self.mailbox.buffer(ctx, &self.shared, target, origin, data),
            },
            Wire::Deregister { agent, .. } => {
                self.records.remove(&agent);
            }
            Wire::Locate {
                target,
                token,
                reply_node,
                corr,
                ..
            } => {
                // The central record is authoritative, so every answer is
                // age 0 and satisfies any freshness bound.
                let answer = match self.records.get(&target) {
                    Some(&node) => Wire::Located {
                        target,
                        node,
                        stale: false,
                        age_ms: 0,
                        token,
                        corr,
                    },
                    None => Wire::NotFound {
                        target,
                        token,
                        corr,
                    },
                };
                send_traced(ctx, from, reply_node, &answer);
            }
            _ => {}
        }
    }
}

/// The centralized location scheme: one tracker on one node.
#[derive(Debug)]
pub struct CentralizedScheme {
    config: LocationConfig,
    shared: SharedSchemeStats,
    central: Option<(AgentId, NodeId)>,
    /// The half every client shares, built at bootstrap.
    clients: Option<Arc<PerScheme>>,
}

impl CentralizedScheme {
    /// Creates the scheme; the tracker is placed on node 0 at bootstrap.
    #[must_use]
    pub fn new(config: LocationConfig) -> Self {
        CentralizedScheme {
            config,
            shared: SharedSchemeStats::new(),
            central: None,
            clients: None,
        }
    }

    /// The central tracker's identity, after bootstrap.
    #[must_use]
    pub fn central(&self) -> Option<(AgentId, NodeId)> {
        self.central
    }
}

impl LocationScheme for CentralizedScheme {
    fn name(&self) -> &'static str {
        "centralized"
    }

    fn bootstrap(&mut self, platform: &mut dyn Spawner) {
        assert!(self.central.is_none(), "bootstrap called twice");
        let node = NodeId::new(0);
        let id = platform.spawn_agent(
            Box::new(CentralBehavior::new().with_shared(self.shared.clone())),
            node,
        );
        self.central = Some((id, node));
        self.shared.set_trackers(1);
        self.clients = Some(Arc::new(PerScheme {
            retry: RetryPolicy::new(&self.config),
            shared: self.shared.clone(),
            central: (id, node),
        }));
    }

    fn client_factory(&self) -> ClientFactory {
        let scheme = self
            .clients
            .clone()
            .expect("client_factory before bootstrap");
        Arc::new(move || Box::new(CentralizedClient::new(Arc::clone(&scheme))))
    }

    fn shared(&self) -> &SharedSchemeStats {
        &self.shared
    }
}

/// The half of every centralized client that is the same for all of
/// them, built once at bootstrap.
#[derive(Debug)]
struct PerScheme {
    retry: RetryPolicy,
    /// Scheme-wide counters and tracker rows; give-ups are charged here.
    shared: SharedSchemeStats,
    central: (AgentId, NodeId),
}

/// Client-side state machine of the centralized scheme: every attempt is a
/// `Locate` to the one central tracker.
#[derive(Debug)]
pub struct CentralizedClient {
    scheme: Arc<PerScheme>,
    core: LocateCore,
}

impl CentralizedClient {
    fn new(scheme: Arc<PerScheme>) -> Self {
        CentralizedClient {
            scheme,
            core: LocateCore::default(),
        }
    }

    fn send_central(&self, ctx: &mut AgentCtx<'_>, msg: &Wire) {
        let (central, node) = self.scheme.central;
        ctx.send(central, node, ctx.encode(msg));
    }

    fn send_locate(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, token: u64) {
        let msg = Wire::Locate {
            target,
            token,
            reply_node: ctx.node(),
            corr: Some(CorrId::new(ctx.self_id().raw(), token)),
            freshness: self.core.freshness(token),
        };
        let (central, node) = self.scheme.central;
        send_traced(ctx, central, node, &msg);
        self.core
            .sent(&self.scheme.retry, ctx, token, Some(self.scheme.central));
    }
}

impl DirectoryClient for CentralizedClient {
    fn register(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        let here = ctx.node();
        self.send_central(
            ctx,
            &Wire::Register {
                agent: me,
                node: here,
            },
        );
    }

    fn moved(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        let here = ctx.node();
        if self.core.registered() {
            self.send_central(
                ctx,
                &Wire::Update {
                    agent: me,
                    node: here,
                },
            );
        } else {
            self.register(ctx);
        }
    }

    fn deregister(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        self.send_central(ctx, &Wire::Deregister { agent: me, ttl: 0 });
    }

    fn locate_with(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        token: u64,
        freshness: Freshness,
    ) {
        self.core.start(token, target, freshness);
        self.send_locate(ctx, target, token);
    }

    fn on_message(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        _from: AgentId,
        payload: &Payload,
    ) -> ClientEvent {
        match Wire::recv_traced(ctx, payload) {
            Some(Wire::MailDrop { from, data }) => ClientEvent::Mail { from, data },
            Some(msg) => self
                .core
                .on_answer(&self.scheme.retry, &self.scheme.shared, ctx, msg)
                .then_resend(|token, target| self.send_locate(ctx, target, token)),
            None => ClientEvent::NotMine,
        }
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        _to: AgentId,
        _node: NodeId,
        payload: &Payload,
    ) -> ClientEvent {
        // The central tracker is static; bounces only occur under injected
        // faults. Locates recover through their retry timers; updates are
        // resent immediately.
        match Wire::from_payload(payload) {
            Some(Wire::Update { .. } | Wire::Register { .. }) => {
                self.moved(ctx);
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

    fn send_via(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, data: Vec<u8>) -> bool {
        let me = ctx.self_id();
        self.send_central(
            ctx,
            &Wire::DeliverVia {
                target,
                from: me,
                data,
                ttl: 1,
            },
        );
        true
    }
}
