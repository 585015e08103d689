//! The paper's mechanism assembled: scheme bootstrap and the client-side
//! state machine.
//!
//! Client flows (paper §2.3):
//!
//! * **Registration** — on creation, an agent asks the LHAgent *at its own
//!   node* which IAgent is responsible for it, then registers with that
//!   IAgent and caches it.
//! * **Movement** — after each move the agent informs its cached IAgent;
//!   a `NotResponsible` answer (or a bounce off a retired IAgent) makes it
//!   re-resolve freshly through the local LHAgent and resend.
//! * **Locating** — resolve the target through the local LHAgent, then
//!   query the returned IAgent; `NotResponsible` / `NotFound` / bounces
//!   trigger a fresh resolve and a retry, up to the configured budget.

use std::sync::Arc;

use agentrack_platform::{AgentCtx, AgentId, NodeId, Payload, Spawner, TimerId};
use agentrack_sim::{CorrId, SimDuration};

use crate::config::LocationConfig;
use crate::hagent::{HAgentBehavior, StandbyHAgentBehavior};
use crate::hashfn::HashFunction;
use crate::iagent::IAgentBehavior;
use crate::lhagent::LHAgentBehavior;
use crate::mailbox::MAIL_MAX_HOPS;
use crate::retry::{LocateCore, Outcome, RetryPolicy};
use crate::scheme::{
    ClientEvent, ClientFactory, DirectoryClient, LocationScheme, SharedSchemeStats,
};
use crate::wire::{send_traced, Freshness, Wire};

/// Backoff before retrying a request that bounced or was denied because
/// its receiver is busy: a client's locate that bounced off a migrating
/// IAgent, and an IAgent's rehash request denied `Busy`. Both conflicts
/// clear soon, and an immediate retry would burn the budget inside them.
pub(crate) const BOUNCE_RETRY_DELAY: SimDuration = SimDuration::from_millis(50);

/// The hash-based location scheme: one HAgent, one initial IAgent, one
/// LHAgent per node.
///
/// # Examples
///
/// ```
/// use agentrack_core::{HashedScheme, LocationConfig, LocationScheme};
/// use agentrack_platform::{PlatformConfig, SimPlatform};
/// use agentrack_sim::{DurationDist, SimDuration, Topology};
///
/// let topo = Topology::lan(4, DurationDist::Constant(SimDuration::from_micros(300)));
/// let mut platform = SimPlatform::new(topo, PlatformConfig::default());
/// let mut scheme = HashedScheme::new(LocationConfig::default());
/// scheme.bootstrap(&mut platform);
/// // The scheme's agents run periodic self-checks, so drive the platform
/// // by time, not to idleness.
/// platform.run_for(SimDuration::from_millis(100));
/// let client = scheme.make_client();
/// # let _ = client;
/// ```
#[derive(Debug)]
pub struct HashedScheme {
    config: LocationConfig,
    shared: SharedSchemeStats,
    lhagents: Arc<Vec<AgentId>>,
    /// The half every client shares, built at bootstrap.
    clients: Option<Arc<PerScheme>>,
    standby: bool,
    hagent: Option<(AgentId, NodeId)>,
}

impl HashedScheme {
    /// Creates the scheme with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`LocationConfig::validate`]).
    #[must_use]
    pub fn new(config: LocationConfig) -> Self {
        config.validate().expect("invalid location configuration");
        HashedScheme {
            config,
            shared: SharedSchemeStats::new(),
            lhagents: Arc::new(Vec::new()),
            clients: None,
            standby: false,
            hagent: None,
        }
    }

    /// Deploys a hot-standby HAgent replica at bootstrap (the paper's §7
    /// fault-tolerance direction): the primary pushes every version to it,
    /// and LHAgents fail over to it when the primary is unreachable.
    ///
    /// The standby is placed on node 1; on a single-node topology it
    /// necessarily shares the primary's node and only protects against the
    /// primary *agent* failing, not the node.
    #[must_use]
    pub fn with_standby(mut self) -> Self {
        self.standby = true;
        self
    }

    /// The primary HAgent's identity, after bootstrap (for fault
    /// injection in tests).
    #[must_use]
    pub fn hagent(&self) -> Option<(AgentId, NodeId)> {
        self.hagent
    }

    /// The per-node LHAgent directory (index = node), available after
    /// bootstrap.
    #[must_use]
    pub fn lhagents(&self) -> Arc<Vec<AgentId>> {
        Arc::clone(&self.lhagents)
    }
}

impl LocationScheme for HashedScheme {
    fn name(&self) -> &'static str {
        "hashed"
    }

    fn bootstrap(&mut self, platform: &mut dyn Spawner) {
        assert!(self.clients.is_none(), "bootstrap called twice");
        let node_count = platform.node_count();
        let home = NodeId::new(0);

        // Agent ids are assigned sequentially, so the whole cast can be
        // named before anything is spawned — which lets every behaviour be
        // constructed with full knowledge of the others.
        let base = platform.next_agent_id();
        let iagent0 = AgentId::new(base);
        let hagent = AgentId::new(base + 1);
        let standby_offset = u64::from(self.standby);
        let standby = self
            .standby
            .then(|| (AgentId::new(base + 2), NodeId::new(1 % node_count)));
        let lhagents: Vec<AgentId> = (0..node_count)
            .map(|i| AgentId::new(base + 2 + standby_offset + u64::from(i)))
            .collect();

        let hf = HashFunction::initial(iagent0, home);

        let spawned = platform.spawn_agent(
            Box::new(
                IAgentBehavior::initial(
                    self.config.clone(),
                    hagent,
                    home,
                    hf.clone(),
                    self.shared.clone(),
                )
                .with_standby(standby),
            ),
            home,
        );
        assert_eq!(spawned, iagent0, "agent id assignment drifted");

        let lh_directory: Vec<(AgentId, NodeId)> = lhagents
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, NodeId::new(i as u32)))
            .collect();
        let mut hagent_behavior = HAgentBehavior::new(
            self.config.clone(),
            hf.clone(),
            lh_directory,
            node_count,
            self.shared.clone(),
        );
        if let Some((standby_id, standby_node)) = standby {
            hagent_behavior = hagent_behavior.with_standby(standby_id, standby_node);
        }
        let spawned = platform.spawn_agent(Box::new(hagent_behavior), home);
        assert_eq!(spawned, hagent, "agent id assignment drifted");

        if let Some((standby_id, standby_node)) = standby {
            let spawned = platform.spawn_agent(
                Box::new(StandbyHAgentBehavior::new(hf.clone(), self.shared.clone())),
                standby_node,
            );
            assert_eq!(spawned, standby_id, "agent id assignment drifted");
        }

        for (i, &expected) in lhagents.iter().enumerate() {
            let mut lh = LHAgentBehavior::new(hf.clone(), hagent, home, self.shared.clone())
                .with_audit(self.config.version_audit);
            if let Some((standby_id, standby_node)) = standby {
                lh = lh.with_standby(standby_id, standby_node);
            }
            let spawned = platform.spawn_agent(Box::new(lh), NodeId::new(i as u32));
            assert_eq!(spawned, expected, "agent id assignment drifted");
        }

        self.hagent = Some((hagent, home));
        self.lhagents = Arc::new(lhagents);
        self.clients = Some(Arc::new(PerScheme {
            retry: RetryPolicy::new(&self.config),
            lhagents: Arc::clone(&self.lhagents),
            shared: self.shared.clone(),
        }));
    }

    fn client_factory(&self) -> ClientFactory {
        let scheme = self
            .clients
            .clone()
            .expect("client_factory before bootstrap");
        Arc::new(move || Box::new(HashedClient::new(Arc::clone(&scheme))))
    }

    fn make_client(&self) -> Box<dyn DirectoryClient> {
        let scheme = self.clients.as_ref().expect("make_client before bootstrap");
        Box::new(HashedClient::new(Arc::clone(scheme)))
    }

    fn shared(&self) -> &SharedSchemeStats {
        &self.shared
    }
}

/// The half of every hashed client that is the same for all of them,
/// built once at bootstrap.
#[derive(Debug)]
struct PerScheme {
    retry: RetryPolicy,
    /// LHAgent at each node (index = node id).
    lhagents: Arc<Vec<AgentId>>,
    /// Scheme-wide counters (hedges, bound violations) and tracker rows
    /// (give-ups) shared with the behaviours.
    shared: SharedSchemeStats,
}

/// Client-side state machine of the hashed scheme (one per mobile agent):
/// every attempt is a resolve through the LHAgent at the client's own node,
/// whose answer names the IAgent the `Locate` then goes to.
///
/// It holds its owner's own state only; the LHAgent directory and the
/// retry policy are the scheme's, shared by every client.
#[derive(Debug)]
pub struct HashedClient {
    scheme: Arc<PerScheme>,
    /// Cached responsible IAgent for the *owning* agent.
    my_iagent: Option<(AgentId, NodeId)>,
    /// Watchdog for the registration handshake: any leg of
    /// resolve → register → ack can be lost to the network, and an
    /// unregistered agent is unlocatable, so the handshake restarts until
    /// the ack lands.
    register_watchdog: Option<TimerId>,
    core: LocateCore,
}

const _: () = assert!(std::mem::size_of::<HashedClient>() <= 80);

impl HashedClient {
    fn new(scheme: Arc<PerScheme>) -> Self {
        HashedClient {
            scheme,
            my_iagent: None,
            register_watchdog: None,
            core: LocateCore::default(),
        }
    }

    fn send_local_resolve(&self, ctx: &mut AgentCtx<'_>, msg: &Wire) {
        let lh = self.scheme.lhagents[ctx.node().index()];
        send_traced(ctx, lh, ctx.node(), msg);
    }

    /// Sends one attempt of the locate identified by `token`: a resolve
    /// from the local copy the first time, a fresh one on retries.
    fn resolve_for_locate(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        token: u64,
        fresh: bool,
    ) {
        let corr = Some(CorrId::new(ctx.self_id().raw(), token));
        let msg = if fresh {
            Wire::ResolveFresh {
                target,
                token: Some(token),
                corr,
            }
        } else {
            Wire::Resolve {
                target,
                token: Some(token),
                corr,
            }
        };
        self.send_local_resolve(ctx, &msg);
        // The tracker is noted when the resolve names it.
        self.core.sent(&self.scheme.retry, ctx, token, None);
    }

    /// Sends the retry a negative answer or a timeout called for, if any.
    fn retry(&mut self, ctx: &mut AgentCtx<'_>, outcome: Outcome) -> ClientEvent {
        outcome.then_resend(|token, target| self.resolve_for_locate(ctx, target, token, true))
    }

    /// A negative answer (`NotFound` / `NotResponsible`) to the locate
    /// `token` arrived from `from`.
    fn on_negative(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, token: u64) -> ClientEvent {
        match self.core.noted_tracker(token) {
            // It still proves its sender's node reachable.
            Some((tracker, node)) if tracker == from.raw() => {
                self.core.reachability().on_success(node);
            }
            // A negative from anyone but the op's noted tracker is a
            // hedged buddy (or a stale straggler) saying "I don't know" —
            // not authoritative, so it must not burn the primary attempt's
            // retry budget.
            Some(_) => return ClientEvent::Consumed,
            None => {}
        }
        let outcome = self
            .core
            .on_negative(&self.scheme.retry, &self.scheme.shared, ctx, token);
        // A final negative proves the tracker reachable once more.
        if let (ClientEvent::Failed { .. }, Some((_, node))) = (&outcome.event, outcome.tracker) {
            self.core.reachability().on_success(node);
        }
        self.retry(ctx, outcome)
    }

    fn send_own_update(&self, ctx: &mut AgentCtx<'_>) {
        if let Some((iagent, node)) = self.my_iagent {
            let me = ctx.self_id();
            let here = ctx.node();
            ctx.send(
                iagent,
                node,
                ctx.encode(&Wire::Update {
                    agent: me,
                    node: here,
                }),
            );
        }
    }

    fn refresh_own_iagent(&self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        self.send_local_resolve(
            ctx,
            &Wire::ResolveFresh {
                target: me,
                token: None,
                corr: None,
            },
        );
    }
}

impl DirectoryClient for HashedClient {
    fn register(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        self.send_local_resolve(
            ctx,
            &Wire::Resolve {
                target: me,
                token: None,
                corr: None,
            },
        );
        self.register_watchdog = Some(ctx.set_timer(self.scheme.retry.timeout()));
    }

    fn moved(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.core.registered() {
            self.send_own_update(ctx);
        } else {
            // Moved before registration completed: restart it from the new
            // node's LHAgent.
            self.register(ctx);
        }
    }

    fn deregister(&mut self, ctx: &mut AgentCtx<'_>) {
        // Routed via the local LHAgent, not the cached tracker: the dying
        // agent disposes itself right after this send and can never see a
        // bounce, so aiming at a tracker that has since merged away would
        // leak the record forever. The LHAgent survives to retry.
        let me = ctx.self_id();
        self.send_local_resolve(
            ctx,
            &Wire::Deregister {
                agent: me,
                ttl: MAIL_MAX_HOPS,
            },
        );
    }

    fn locate_with(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        token: u64,
        freshness: Freshness,
    ) {
        self.core.start(token, target, freshness);
        self.resolve_for_locate(ctx, target, token, false);
    }

    fn on_message(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        from: AgentId,
        payload: &Payload,
    ) -> ClientEvent {
        let Some(msg) = Wire::recv_traced(ctx, payload) else {
            return ClientEvent::NotMine;
        };
        match msg {
            // Phase-1 answer for one of our locates.
            Wire::Resolved {
                iagent,
                node,
                buddy,
                token: Some(token),
                corr,
                ..
            } => {
                if let Some(target) = self.core.target(token) {
                    self.core.note_tracker(token, iagent, node);
                    let freshness = self.core.freshness(token);
                    let locate = Wire::Locate {
                        target,
                        token,
                        reply_node: ctx.node(),
                        freshness,
                        corr: corr.or_else(|| Some(CorrId::new(ctx.self_id().raw(), token))),
                    };
                    send_traced(ctx, iagent, node, &locate);
                    // Hedge: a bounded read toward a destination that has
                    // been timing out goes to the tracker's buddy replica
                    // in parallel, so the answer can come from this side
                    // of a severed link.
                    if matches!(freshness, Freshness::BoundedMs(_))
                        && self.core.reachability().should_hedge(node)
                    {
                        if let Some((b, b_node)) = buddy.filter(|&(b, _)| b != iagent) {
                            self.scheme.shared.update(|s| s.hedged_locates += 1);
                            send_traced(ctx, b, b_node, &locate);
                        }
                    }
                }
                ClientEvent::Consumed
            }
            // Phase-1 answer about ourselves (registration or own-update
            // refresh).
            Wire::Resolved {
                target,
                iagent,
                node,
                token: None,
                ..
            } => {
                if target != ctx.self_id() {
                    return ClientEvent::Consumed;
                }
                self.my_iagent = Some((iagent, node));
                if self.core.registered() {
                    self.send_own_update(ctx);
                } else {
                    let me = ctx.self_id();
                    let here = ctx.node();
                    ctx.send(
                        iagent,
                        node,
                        ctx.encode(&Wire::Register {
                            agent: me,
                            node: here,
                        }),
                    );
                }
                ClientEvent::Consumed
            }
            Wire::RegisterAck { agent } if agent == ctx.self_id() => {
                self.register_watchdog = None;
                self.core.on_register_ack()
            }
            Wire::Located { age_ms, .. } => {
                let outcome =
                    self.core
                        .on_answer(&self.scheme.retry, &self.scheme.shared, ctx, msg);
                // An answer from the tracker itself is a reachability
                // signal for its node (a hedged buddy answering for it is
                // not).
                if let Some((_, node)) = outcome.tracker.filter(|&(t, _)| t == from.raw()) {
                    self.core.reachability().on_success(node);
                }
                // Audit the freshness contract: no answer may exceed the
                // bound its locate declared. The invariant checker
                // requires this count to stay 0.
                if outcome.declared.is_some_and(|f| !f.admits(age_ms)) {
                    self.scheme.shared.update(|s| s.bound_violations += 1);
                }
                outcome.event
            }
            Wire::SolicitReregister => {
                // A recovering tracker resurrected our record from a
                // replica and wants it reconfirmed from where we really
                // are.
                if self.core.registered() {
                    if self.my_iagent.is_some() {
                        self.send_own_update(ctx);
                    } else {
                        self.refresh_own_iagent(ctx);
                    }
                } else {
                    self.register(ctx);
                }
                ClientEvent::Consumed
            }
            Wire::MailDrop { from, data } => ClientEvent::Mail { from, data },
            Wire::NotFound { token, .. }
            | Wire::NotResponsible {
                token: Some(token), ..
            } => self.on_negative(ctx, from, token),
            Wire::NotResponsible {
                about, token: None, ..
            } => {
                // Our own registration/update hit a stale IAgent.
                if about == ctx.self_id() {
                    self.refresh_own_iagent(ctx);
                }
                ClientEvent::Consumed
            }
            _ => ClientEvent::NotMine,
        }
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        _to: AgentId,
        _node: NodeId,
        payload: &Payload,
    ) -> ClientEvent {
        let Some(msg) = Wire::from_payload(payload) else {
            return ClientEvent::NotMine;
        };
        match msg {
            // Our cached IAgent retired (merge) between updates.
            Wire::Update { .. } | Wire::Register { .. } => {
                self.refresh_own_iagent(ctx);
                ClientEvent::Consumed
            }
            // The IAgent we queried is gone or mid-migration; retry after a
            // short backoff (an immediate retry would burn the budget
            // inside the outage window).
            Wire::Locate { token, .. } => {
                self.core.arm_after(ctx, BOUNCE_RETRY_DELAY, token);
                ClientEvent::Consumed
            }
            Wire::Resolve { .. } | Wire::ResolveFresh { .. } => {
                // LHAgents are static; only injected faults get here. The
                // retry timer recovers the operation.
                ClientEvent::Consumed
            }
            _ => ClientEvent::NotMine,
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) -> ClientEvent {
        if self.register_watchdog == Some(timer) {
            self.register_watchdog = None;
            if !self.core.registered() {
                // Some leg of the handshake was lost: start over.
                self.register(ctx);
            }
            return ClientEvent::Consumed;
        }
        let outcome = self
            .core
            .on_timer(&self.scheme.retry, &self.scheme.shared, ctx, timer);
        // A live timer firing means the attempt got no answer: one
        // unreachability signal against the tracker it was sent to.
        if let Some((_, node)) = outcome.tracker {
            self.core.reachability().on_timeout(node);
        }
        self.retry(ctx, outcome)
    }

    fn send_via(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, data: Vec<u8>) -> bool {
        let me = ctx.self_id();
        self.send_local_resolve(
            ctx,
            &Wire::DeliverVia {
                target,
                from: me,
                data,
                ttl: MAIL_MAX_HOPS,
            },
        );
        true
    }
}
