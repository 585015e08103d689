//! The home-registry baseline: an Ajanta-style HLR scheme.
//!
//! Ajanta's location mechanism (paper §6) keeps, at each domain's registry,
//! "the precise current location for the agents which were created in its
//! domain", and agent *names* encode the creating registry. We model that
//! as one registry agent per node; every mobile agent reports each move to
//! the registry of its **home** (creation) node, and locates go to the
//! target's home registry.
//!
//! The home node is derivable from the target's name in Ajanta; here the
//! scheme keeps a shared in-process name table standing in for that
//! name-embedded information (reading it costs nothing, exactly like
//! parsing a name). This is also the limitation the paper calls out: the
//! scheme only works when names carry registry information.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, Spawner, TimerId};
use agentrack_sim::CorrId;

use crate::centralized::CentralBehavior;
use crate::config::LocationConfig;
use crate::retry::{LocateCore, RetryPolicy};
use crate::scheme::{
    ClientEvent, ClientFactory, DirectoryClient, LocationScheme, SharedSchemeStats,
};
use crate::wire::{send_traced, Freshness, Wire};

/// Behaviour of a per-node home registry.
///
/// A registry tracks exactly the agents whose home is its node; the
/// request handling is the same as the central tracker's, so it delegates.
#[derive(Debug, Default)]
pub struct HomeRegistryBehavior {
    inner: CentralBehavior,
}

impl HomeRegistryBehavior {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reports mail losses and per-tracker metrics into the scheme's
    /// shared statistics.
    #[must_use]
    pub fn with_shared(self, shared: SharedSchemeStats) -> Self {
        HomeRegistryBehavior {
            inner: self.inner.with_shared(shared),
        }
    }
}

impl Agent for HomeRegistryBehavior {
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        self.inner.on_message(ctx, from, payload);
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        // No timer to re-arm: the registry deliberately runs timerless
        // (no mailbox expiry, no gauge refresh — see the module docs).
        if lost_soft_state {
            self.inner.drop_soft_state(ctx);
        }
    }
}

/// Names standing in for the origin information Ajanta's and Voyager's
/// agent names embed: agent → the node it was created on (its home
/// registry's node, or its birth forwarder's).
pub(crate) type NameTable = Arc<RwLock<HashMap<AgentId, NodeId>>>;

/// The home-registry location scheme: one registry per node.
#[derive(Debug)]
pub struct HomeRegistryScheme {
    config: LocationConfig,
    shared: SharedSchemeStats,
    names: NameTable,
    /// The half every client shares, built at bootstrap.
    clients: Option<Arc<PerScheme>>,
}

impl HomeRegistryScheme {
    /// Creates the scheme.
    #[must_use]
    pub fn new(config: LocationConfig) -> Self {
        HomeRegistryScheme {
            config,
            shared: SharedSchemeStats::new(),
            names: Arc::default(),
            clients: None,
        }
    }
}

impl LocationScheme for HomeRegistryScheme {
    fn name(&self) -> &'static str {
        "home-registry"
    }

    fn bootstrap(&mut self, platform: &mut dyn Spawner) {
        assert!(self.clients.is_none(), "bootstrap called twice");
        let registries: Vec<AgentId> = (0..platform.node_count())
            .map(|node| {
                platform.spawn_agent(
                    Box::new(HomeRegistryBehavior::new().with_shared(self.shared.clone())),
                    NodeId::new(node),
                )
            })
            .collect();
        self.shared.set_trackers(registries.len() as u64);
        self.clients = Some(Arc::new(PerScheme {
            retry: RetryPolicy::new(&self.config),
            shared: self.shared.clone(),
            registries,
            names: Arc::clone(&self.names),
        }));
    }

    fn client_factory(&self) -> ClientFactory {
        let scheme = self
            .clients
            .clone()
            .expect("client_factory before bootstrap");
        Arc::new(move || Box::new(HomeRegistryClient::new(Arc::clone(&scheme))))
    }

    fn shared(&self) -> &SharedSchemeStats {
        &self.shared
    }
}

/// The half of every home-registry client that is the same for all of
/// them, built once at bootstrap.
#[derive(Debug)]
struct PerScheme {
    retry: RetryPolicy,
    /// Scheme-wide counters and tracker rows; give-ups are charged here.
    shared: SharedSchemeStats,
    /// Registry at each node (index = node id).
    registries: Vec<AgentId>,
    names: NameTable,
}

/// Client-side state machine of the home-registry scheme: every attempt is
/// a `Locate` to the registry of the target's home node.
#[derive(Debug)]
pub struct HomeRegistryClient {
    scheme: Arc<PerScheme>,
    home: Option<NodeId>,
    core: LocateCore,
}

impl HomeRegistryClient {
    fn new(scheme: Arc<PerScheme>) -> Self {
        HomeRegistryClient {
            scheme,
            home: None,
            core: LocateCore::default(),
        }
    }

    fn registry_at(&self, node: NodeId) -> (AgentId, NodeId) {
        (self.scheme.registries[node.index()], node)
    }

    fn send_home(&self, ctx: &mut AgentCtx<'_>, msg: &Wire) {
        let home = self.home.expect("home set at registration");
        let (registry, node) = self.registry_at(home);
        ctx.send(registry, node, ctx.encode(msg));
    }

    fn send_locate(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, token: u64) {
        // The target's home comes from its name (zero-cost lookup). An
        // unregistered target has no name to parse yet; the retry timer
        // tries again later.
        let home = self.scheme.names.read().get(&target).copied();
        let registry = home.map(|home| self.registry_at(home));
        if let Some((registry, node)) = registry {
            let msg = Wire::Locate {
                target,
                token,
                reply_node: ctx.node(),
                corr: Some(CorrId::new(ctx.self_id().raw(), token)),
                freshness: self.core.freshness(token),
            };
            send_traced(ctx, registry, node, &msg);
        }
        self.core.sent(&self.scheme.retry, ctx, token, registry);
    }
}

impl DirectoryClient for HomeRegistryClient {
    fn register(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        let here = ctx.node();
        if self.home.is_none() {
            self.home = Some(here);
            self.scheme.names.write().insert(me, here);
        }
        self.send_home(
            ctx,
            &Wire::Register {
                agent: me,
                node: here,
            },
        );
    }

    fn moved(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.core.registered() {
            self.register(ctx);
            return;
        }
        let me = ctx.self_id();
        let here = ctx.node();
        self.send_home(
            ctx,
            &Wire::Update {
                agent: me,
                node: here,
            },
        );
    }

    fn deregister(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.home.is_some() {
            let me = ctx.self_id();
            self.send_home(ctx, &Wire::Deregister { agent: me, ttl: 0 });
            self.scheme.names.write().remove(&me);
        }
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
        // Registries are static; only injected faults bounce. Updates are
        // resent; locates recover via their timers.
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
}
