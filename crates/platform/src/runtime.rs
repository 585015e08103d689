//! The deterministic platform runtime: agents, messaging, migration and
//! timers over the simulated network.
//!
//! Everything observable happens through events on the virtual clock:
//!
//! * a **message** costs a network latency (sampled from the topology) to
//!   reach the addressee's node, then queues at the addressee's single-server
//!   [`ServiceStation`] for its handler service time — so a hot agent
//!   (a central tracker, say) accumulates queueing delay exactly the way the
//!   paper's centralized scheme does;
//! * a **migration** costs the platform's fixed overhead plus a network hop
//!   plus the serialized state transfer;
//! * a message addressed to a node where the agent is *not* (it moved, is
//!   in transit, was disposed, or never existed) bounces back to the sender
//!   as a delivery failure — locating agents before talking to them is the
//!   whole point of the location mechanism.

use std::collections::HashMap;
use std::fmt;

use agentrack_sim::{
    Delivery, FaultEvent, FaultKind, FaultPlan, NodeId, Scheduler, ServiceStation, SimDuration,
    SimRng, SimTime, Topology, TraceEvent, TraceSink,
};

use crate::agent::{Action, Agent, AgentCtx};
use crate::config::PlatformConfig;
use crate::id::{AgentId, TimerId};
use crate::payload::{Payload, PayloadForm};

/// Where an agent is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentState {
    /// Created but `on_create` has not yet run.
    Creating,
    /// Resident and processing events at its node.
    Active,
    /// Mid-migration to the given node.
    InTransit {
        /// Destination node.
        to: NodeId,
    },
}

struct AgentSlot {
    behavior: Option<Box<dyn Agent>>,
    node: NodeId,
    state: AgentState,
    station: ServiceStation,
    /// Minimum live timer id, raised on node restart so timer chains
    /// armed before the crash stay dead (restarted behaviours re-arm
    /// their own).
    timer_floor: TimerId,
}

/// What arrived at a node for an agent.
#[derive(Debug)]
enum Incoming {
    /// A message from another agent.
    Message { from: AgentId, payload: Payload },
    /// A bounce: a message this agent sent could not be delivered.
    Failure {
        to: AgentId,
        node: NodeId,
        payload: Payload,
    },
}

#[derive(Debug)]
enum Event {
    /// Agent instantiation completed; run `on_create`.
    Created { agent: AgentId },
    /// A transmission reached `node`; queue it at the addressee's station.
    Deliver {
        to: AgentId,
        node: NodeId,
        incoming: Incoming,
    },
    /// The station finished serving the item; run the handler.
    Process {
        to: AgentId,
        node: NodeId,
        incoming: Incoming,
        /// Time the item waited in the station's queue before service —
        /// measured at admission, surfaced to the handler's [`AgentCtx`]
        /// so traced receives can attribute queue residency.
        queued: SimDuration,
    },
    /// A migration completed; run `on_arrival`.
    Arrive { agent: AgentId },
    /// A timer fired.
    TimerFired { agent: AgentId, timer: TimerId },
    /// A scheduled fault takes effect (index into the stored plan).
    FaultStart { index: usize },
    /// A timed fault effect (partition, spike, burst, blackhole) expires.
    FaultStop { token: u64 },
    /// A crashed node's scheduled restart is due.
    NodeRestartDue { node: NodeId },
}

/// Bookkeeping for a crashed node: what to tell its agents on restart,
/// and lifecycle events (creations, arrivals) parked until then.
struct DownNode {
    lose_soft_state: bool,
    parked: Vec<Event>,
}

/// Passive snapshot of platform activity, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlatformStats {
    /// Messages submitted by agents.
    pub messages_sent: u64,
    /// Messages whose source and destination nodes differ (the rest never
    /// left their node — the locality extension's target metric).
    pub messages_remote: u64,
    /// Messages that reached their addressee's handler.
    pub messages_delivered: u64,
    /// Messages that bounced (addressee absent).
    pub messages_failed: u64,
    /// Messages dropped by network loss injection.
    pub messages_lost: u64,
    /// Messages duplicated by network fault injection.
    pub messages_duplicated: u64,
    /// Failure notices that could not even be bounced (sender gone too).
    pub failures_dropped: u64,
    /// Migrations started.
    pub migrations: u64,
    /// Agents created (including spawns).
    pub agents_created: u64,
    /// Agents disposed.
    pub agents_disposed: u64,
    /// Messages dropped by injected faults: addressed to a crashed node,
    /// across a partition, or into a blackhole.
    pub messages_blocked: u64,
    /// Handler invocations of any kind.
    pub handler_invocations: u64,
    /// Actions ignored because they were invalid in context (for example a
    /// second `dispatch` in one handler).
    pub ignored_actions: u64,
}

/// A message-level trace event, passed to the tracer installed with
/// [`SimPlatform::set_tracer`].
///
/// This is the raw transport view (every payload, delivered or bounced).
/// The *protocol*-level view — structured events with correlation ids —
/// is [`agentrack_sim::TraceSink`], installed with
/// [`SimPlatform::set_trace_sink`].
#[derive(Debug)]
pub struct MsgTrace<'a> {
    /// When it happened.
    pub now: SimTime,
    /// Sending agent.
    pub from: AgentId,
    /// Addressed agent.
    pub to: AgentId,
    /// Node the message was addressed to.
    pub node: NodeId,
    /// The payload.
    pub payload: &'a Payload,
    /// `true` if the handler ran; `false` if the message bounced.
    pub delivered: bool,
}

/// A boxed message tracer, installed with [`SimPlatform::set_tracer`].
pub type MsgTracer = Box<dyn FnMut(MsgTrace<'_>)>;

/// The deterministic mobile-agent platform.
///
/// # Examples
///
/// ```
/// use agentrack_platform::{Agent, AgentCtx, AgentId, Payload, PlatformConfig, SimPlatform};
/// use agentrack_sim::{DurationDist, NodeId, SimDuration, Topology};
///
/// struct Echo;
/// impl Agent for Echo {
///     fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
///         let here = ctx.node();
///         ctx.send(from, here, payload.clone()); // assume sender is local
///     }
/// }
///
/// let topo = Topology::lan(2, DurationDist::Constant(SimDuration::from_micros(200)));
/// let mut platform = SimPlatform::new(topo, PlatformConfig::default());
/// let echo = platform.spawn(Box::new(Echo), NodeId::new(0));
/// platform.run_until_idle();
/// assert!(platform.is_active(echo));
/// ```
pub struct SimPlatform {
    config: PlatformConfig,
    topology: Topology,
    sched: Scheduler<Event>,
    rng: SimRng,
    /// Transport randomness (latency samples, loss/duplication rolls,
    /// handler service times), kept on its own stream so fault and
    /// network decisions never perturb the agent-visible `rng` — a run
    /// with faults enabled sees the same workload arrival sequence as
    /// one without.
    net_rng: SimRng,
    /// Live agents, indexed by raw id. The runtime hands ids out in
    /// sequence from 0, so the table is dense; a disposed or killed
    /// agent leaves `None` behind, and an id it never assigned is out of
    /// range.
    agents: Vec<Option<AgentSlot>>,
    /// Number of `Some` entries in `agents`.
    live: usize,
    /// Action buffer every handler invocation reuses.
    actions: Vec<Action>,
    next_agent_id: u64,
    next_timer_id: u64,
    stats: PlatformStats,
    tracer: Option<MsgTracer>,
    trace: TraceSink,
    fault_plan: Vec<FaultEvent>,
    down: HashMap<NodeId, DownNode>,
    /// Active partitions: token → node-to-group map. A message is
    /// blocked when both endpoints are mapped to *different* groups.
    partitions: Vec<(u64, HashMap<NodeId, usize>)>,
    latency_spikes: Vec<(u64, f64)>,
    loss_bursts: Vec<(u64, f64)>,
    blackholes: Vec<(u64, (NodeId, NodeId))>,
    /// Severed inter-region WAN links: token → unordered region pair.
    region_severs: Vec<(u64, (u32, u32))>,
    next_fault_token: u64,
}

impl SimPlatform {
    /// Creates a platform over the given topology.
    #[must_use]
    pub fn new(topology: Topology, config: PlatformConfig) -> Self {
        let rng = SimRng::seed_from(config.rng_seed);
        let net_rng = SimRng::seed_from(config.rng_seed ^ 0x9e37_79b9_7f4a_7c15);
        SimPlatform {
            config,
            topology,
            sched: Scheduler::new(),
            rng,
            net_rng,
            agents: Vec::new(),
            live: 0,
            actions: Vec::new(),
            next_agent_id: 0,
            next_timer_id: 0,
            stats: PlatformStats::default(),
            tracer: None,
            trace: TraceSink::disabled(),
            fault_plan: Vec::new(),
            down: HashMap::new(),
            partitions: Vec::new(),
            latency_spikes: Vec::new(),
            loss_bursts: Vec::new(),
            blackholes: Vec::new(),
            region_severs: Vec::new(),
            next_fault_token: 0,
        }
    }

    /// Installs a fault plan: each event is scheduled at its absolute
    /// virtual time and applied by the runtime when the clock reaches
    /// it. May be called once per run, before or during execution;
    /// events in the past are applied at the next step.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] against this
    /// platform's topology.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        plan.validate(self.topology.node_count())
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        // Region-range checks need the topology's region map, which the
        // plan itself cannot see.
        for (i, event) in plan.events().iter().enumerate() {
            if let FaultKind::RegionSever { a, b, .. } = event.kind {
                let regions = self.topology.region_count();
                assert!(
                    self.topology.region_topo().is_some(),
                    "invalid fault plan: event {i} severs regions but the topology has none"
                );
                assert!(
                    a < regions && b < regions,
                    "invalid fault plan: event {i} severs region {} outside the \
                     {regions}-region topology",
                    a.max(b)
                );
            }
        }
        for event in plan.events() {
            let index = self.fault_plan.len();
            self.fault_plan.push(event.clone());
            self.sched
                .schedule(event.at.max(self.sched.now()), Event::FaultStart { index });
        }
    }

    /// `true` while `node` is crashed by the fault plan.
    #[must_use]
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.down.contains_key(&node)
    }

    /// `true` if the agent exists (has not been disposed or killed),
    /// whatever its lifecycle state. Crashed-node residents count as
    /// live: they resume on restart.
    #[must_use]
    pub fn is_live(&self, id: AgentId) -> bool {
        self.slot(id).is_some()
    }

    /// Installs a message tracer, called for every delivered or bounced
    /// message. Diagnostic tool; `None` by default.
    pub fn set_tracer(&mut self, tracer: MsgTracer) {
        self.tracer = Some(tracer);
    }

    /// Installs a structured-event trace sink, visible to every agent
    /// handler through [`AgentCtx::trace`]. Disabled by default.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The installed structured-event trace sink (disabled unless
    /// [`SimPlatform::set_trace_sink`] was called).
    #[must_use]
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// The network topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cost-model configuration.
    #[must_use]
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Activity counters so far.
    #[must_use]
    pub fn stats(&self) -> PlatformStats {
        self.stats
    }

    /// The node an agent currently occupies (destination node while in
    /// transit), or `None` if it does not exist or was disposed.
    #[must_use]
    pub fn agent_node(&self, id: AgentId) -> Option<NodeId> {
        self.slot(id).map(|slot| match slot.state {
            AgentState::InTransit { to } => to,
            _ => slot.node,
        })
    }

    /// `true` if the agent exists and is active at a node.
    #[must_use]
    pub fn is_active(&self, id: AgentId) -> bool {
        self.slot(id)
            .is_some_and(|slot| slot.state == AgentState::Active)
    }

    /// Number of live (not disposed) agents.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.live
    }

    /// The id the next created agent will receive. Ids are assigned
    /// sequentially, so bootstrap code can name a whole cast of agents
    /// before spawning any of them (and assert the assignment held).
    #[must_use]
    pub fn next_agent_id(&self) -> u64 {
        self.next_agent_id
    }

    /// Creates an agent from outside the simulation (bootstrap); its
    /// `on_create` runs after the platform's creation overhead.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the topology.
    pub fn spawn(&mut self, behavior: Box<dyn Agent>, node: NodeId) -> AgentId {
        self.spawn_after(behavior, node, SimDuration::ZERO)
    }

    /// Like [`SimPlatform::spawn`], but the agent comes to life `delay`
    /// after now (plus the creation overhead). Lets a scenario stagger a
    /// population instead of materialising it in one instant.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the topology.
    pub fn spawn_after(
        &mut self,
        behavior: Box<dyn Agent>,
        node: NodeId,
        delay: SimDuration,
    ) -> AgentId {
        assert!(self.topology.contains(node), "spawn at unknown node");
        let id = AgentId::new(self.next_agent_id);
        self.next_agent_id += 1;
        self.insert_creating(id, node, behavior, delay);
        id
    }

    /// Crashes an agent: removes it instantly, *without* running
    /// `on_dispose` (fault injection — a real crash says no goodbyes).
    /// Returns `true` if the agent existed.
    pub fn kill(&mut self, id: AgentId) -> bool {
        self.remove(id).is_some()
    }

    /// Processes the next event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((_, event)) => {
                self.handle(event);
                true
            }
            None => false,
        }
    }

    /// Runs every event up to and including time `t`, then advances the
    /// clock to `t` — even when no event fired, so repeated bounded runs
    /// make progress across quiet stretches.
    pub fn run_until(&mut self, t: SimTime) {
        self.run_until_or(t, || false);
    }

    /// Like [`run_until`](Self::run_until), but stops right after the
    /// event that makes `done` true, leaving the clock at that event.
    pub fn run_until_or(&mut self, t: SimTime, mut done: impl FnMut() -> bool) {
        while !done() {
            if self.sched.peek_time().is_none_or(|pt| pt > t) {
                self.sched.advance_to(t);
                return;
            }
            self.step();
        }
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Runs until no events remain; returns the number processed.
    ///
    /// # Panics
    ///
    /// Panics if more than [`PlatformConfig::max_events`] events fire —
    /// the signature of a livelocked protocol.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut processed = 0u64;
        while self.step() {
            processed += 1;
            assert!(
                processed <= self.config.max_events,
                "simulation exceeded {} events; livelock?",
                self.config.max_events
            );
        }
        processed
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, event: Event) {
        match event {
            Event::Created { agent } => {
                if let Some(node) = self.slot(agent).map(|slot| slot.node) {
                    // Birth node crashed mid-creation: park until restart.
                    if let Some(down) = self.down.get_mut(&node) {
                        down.parked.push(Event::Created { agent });
                        return;
                    }
                }
                if let Some(slot) = self.slot_mut(agent) {
                    slot.state = AgentState::Active;
                    self.invoke(agent, |a, ctx| a.on_create(ctx));
                }
            }
            Event::Deliver { to, node, incoming } => {
                if self.down.contains_key(&node) {
                    // The node crashed while the message was in flight or
                    // queued: it is gone, with no failure bounce — senders
                    // must recover via their own timeouts.
                    self.stats.messages_blocked += 1;
                    return;
                }
                // A message racing the addressee's own creation defers
                // until `on_create` has run (the live runtime's channel
                // FIFO gives the same outcome for free).
                if self
                    .slot(to)
                    .is_some_and(|s| s.state == AgentState::Creating && s.node == node)
                {
                    self.sched.schedule_after(
                        SimDuration::from_millis(1),
                        Event::Deliver { to, node, incoming },
                    );
                    return;
                }
                if self.is_present(to, node) {
                    let (done, queued) = {
                        let service = self.net_rng.sample(&self.config.handler_service_time);
                        let now = self.sched.now();
                        let slot = self.slot_mut(to).expect("checked present");
                        let done = slot.station.admit(now, service);
                        (done, done.saturating_since(now + service))
                    };
                    let delay = done.saturating_since(self.sched.now());
                    self.sched.schedule_after(
                        delay,
                        Event::Process {
                            to,
                            node,
                            incoming,
                            queued,
                        },
                    );
                } else {
                    self.bounce(to, node, incoming);
                }
            }
            Event::Process {
                to,
                node,
                incoming,
                queued,
            } => {
                if self.down.contains_key(&node) {
                    self.stats.messages_blocked += 1;
                    return;
                }
                if self.is_present(to, node) {
                    match incoming {
                        Incoming::Message { from, payload } => {
                            self.stats.messages_delivered += 1;
                            if let Some(tracer) = &mut self.tracer {
                                tracer(MsgTrace {
                                    now: self.sched.now(),
                                    from,
                                    to,
                                    node,
                                    payload: &payload,
                                    delivered: true,
                                });
                            }
                            self.invoke_queued(to, queued, |a, ctx| {
                                a.on_message(ctx, from, &payload);
                            });
                        }
                        Incoming::Failure {
                            to: f_to,
                            node: f_node,
                            payload,
                        } => {
                            self.invoke_queued(to, queued, |a, ctx| {
                                a.on_delivery_failed(ctx, f_to, f_node, &payload);
                            });
                        }
                    }
                } else {
                    // The agent moved away between queueing and service.
                    self.bounce(to, node, incoming);
                }
            }
            Event::Arrive { agent } => {
                if let Some(AgentState::InTransit { to }) = self.slot(agent).map(|slot| slot.state)
                {
                    // Destination crashed while the agent was in transit:
                    // the arrival waits out the downtime.
                    if let Some(down) = self.down.get_mut(&to) {
                        down.parked.push(Event::Arrive { agent });
                        return;
                    }
                }
                if let Some(slot) = self.slot_mut(agent) {
                    if let AgentState::InTransit { to } = slot.state {
                        slot.node = to;
                        slot.state = AgentState::Active;
                        self.invoke(agent, |a, ctx| a.on_arrival(ctx));
                    }
                }
            }
            Event::TimerFired { agent, timer } => {
                match self.slot(agent) {
                    Some(slot) if timer < slot.timer_floor => {
                        // Armed before a crash; the restart re-arms.
                    }
                    Some(slot) if self.down.contains_key(&slot.node) => {
                        // Timers die with their node.
                    }
                    Some(slot) if slot.state == AgentState::Active => {
                        self.invoke(agent, |a, ctx| a.on_timer(ctx, timer));
                    }
                    Some(_) => {
                        // Creating or in transit: retry shortly after.
                        self.sched.schedule_after(
                            SimDuration::from_millis(1),
                            Event::TimerFired { agent, timer },
                        );
                    }
                    None => {} // disposed: drop silently
                }
            }
            Event::FaultStart { index } => self.fault_start(index),
            Event::FaultStop { token } => self.fault_stop(token),
            Event::NodeRestartDue { node } => self.restart_node(node),
        }
    }

    // ------------------------------------------------------------------
    // Fault application
    // ------------------------------------------------------------------

    fn fault_start(&mut self, index: usize) {
        let kind = self.fault_plan[index].kind.clone();
        let now = self.sched.now();
        match kind {
            FaultKind::Partition { groups, heal_at } => {
                let mut membership = HashMap::new();
                for (g, group) in groups.iter().enumerate() {
                    for &n in group {
                        membership.insert(n, g);
                    }
                }
                let token = self.issue_fault_token(heal_at);
                let count = groups.len();
                self.partitions.push((token, membership));
                self.trace
                    .emit(now, || TraceEvent::PartitionStarted { groups: count });
            }
            FaultKind::NodeCrash {
                node,
                lose_soft_state,
                restart_at,
            } => {
                self.crash_node(node, lose_soft_state);
                if let Some(at) = restart_at {
                    self.sched
                        .schedule(at.max(now), Event::NodeRestartDue { node });
                }
            }
            FaultKind::NodeRestart { node } => self.restart_node(node),
            FaultKind::LatencySpike { factor, until } => {
                let token = self.issue_fault_token(until);
                self.latency_spikes.push((token, factor));
                self.trace.emit(now, || TraceEvent::FaultApplied {
                    kind: "latency-spike",
                });
            }
            FaultKind::LossBurst { loss, until } => {
                let token = self.issue_fault_token(until);
                self.loss_bursts.push((token, loss));
                self.trace
                    .emit(now, || TraceEvent::FaultApplied { kind: "loss-burst" });
            }
            FaultKind::Blackhole { from, to, until } => {
                let token = self.issue_fault_token(until);
                self.blackholes.push((token, (from, to)));
                self.trace
                    .emit(now, || TraceEvent::FaultApplied { kind: "blackhole" });
            }
            FaultKind::RegionSever { a, b, heal_at } => {
                let token = self.issue_fault_token(heal_at);
                self.region_severs.push((token, (a, b)));
                self.trace.emit(now, || TraceEvent::FaultApplied {
                    kind: "region-sever",
                });
            }
        }
    }

    /// Allocates a token for a timed fault effect and schedules its
    /// expiry.
    fn issue_fault_token(&mut self, until: SimTime) -> u64 {
        let token = self.next_fault_token;
        self.next_fault_token += 1;
        self.sched
            .schedule(until.max(self.sched.now()), Event::FaultStop { token });
        token
    }

    fn fault_stop(&mut self, token: u64) {
        let now = self.sched.now();
        if let Some(pos) = self.partitions.iter().position(|(t, _)| *t == token) {
            self.partitions.remove(pos);
            self.trace.emit(now, || TraceEvent::PartitionHealed);
        } else if let Some(pos) = self.latency_spikes.iter().position(|(t, _)| *t == token) {
            self.latency_spikes.remove(pos);
            self.trace.emit(now, || TraceEvent::FaultCleared {
                kind: "latency-spike",
            });
        } else if let Some(pos) = self.loss_bursts.iter().position(|(t, _)| *t == token) {
            self.loss_bursts.remove(pos);
            self.trace
                .emit(now, || TraceEvent::FaultCleared { kind: "loss-burst" });
        } else if let Some(pos) = self.blackholes.iter().position(|(t, _)| *t == token) {
            self.blackholes.remove(pos);
            self.trace
                .emit(now, || TraceEvent::FaultCleared { kind: "blackhole" });
        } else if let Some(pos) = self.region_severs.iter().position(|(t, _)| *t == token) {
            self.region_severs.remove(pos);
            self.trace.emit(now, || TraceEvent::FaultCleared {
                kind: "region-sever",
            });
        }
    }

    /// Crashes a node: its agents stop processing, queued and in-flight
    /// traffic to it is dropped as it arrives, and its timers die. A
    /// no-op if the node is already down.
    fn crash_node(&mut self, node: NodeId, lose_soft_state: bool) {
        if self.down.contains_key(&node) {
            return;
        }
        self.down.insert(
            node,
            DownNode {
                lose_soft_state,
                parked: Vec::new(),
            },
        );
        self.trace
            .emit(self.sched.now(), || TraceEvent::NodeCrashed {
                node,
                lost_soft_state: lose_soft_state,
            });
    }

    /// Restarts a crashed node: residents get `on_restart` (told whether
    /// soft state was lost), parked creations and arrivals resume, and
    /// pre-crash timers stay dead. A no-op if the node is up.
    fn restart_node(&mut self, node: NodeId) {
        let Some(down) = self.down.remove(&node) else {
            return;
        };
        self.trace
            .emit(self.sched.now(), || TraceEvent::NodeRestarted { node });
        let floor = TimerId::new(self.next_timer_id);
        // Ascending ids, as the table is indexed by them.
        let residents: Vec<AgentId> = self
            .agents
            .iter_mut()
            .enumerate()
            .filter_map(|(raw, slot)| {
                let slot = slot
                    .as_mut()
                    .filter(|s| s.node == node && s.state == AgentState::Active)?;
                slot.timer_floor = floor;
                Some(AgentId::new(raw as u64))
            })
            .collect();
        for id in residents {
            self.invoke(id, |a, ctx| a.on_restart(ctx, down.lose_soft_state));
        }
        for event in down.parked {
            self.sched
                .schedule_after(SimDuration::from_millis(1), event);
        }
    }

    /// `true` when injected faults sever the directed link — the
    /// destination node is down, a partition separates the endpoints, or
    /// a blackhole covers the direction.
    fn link_blocked(&self, from: NodeId, to: NodeId) -> bool {
        if self.down.contains_key(&to) {
            return true;
        }
        for (_, membership) in &self.partitions {
            if let (Some(a), Some(b)) = (membership.get(&from), membership.get(&to)) {
                if a != b {
                    return true;
                }
            }
        }
        if !self.region_severs.is_empty() {
            let (ra, rb) = (self.topology.region_of(from), self.topology.region_of(to));
            if self
                .region_severs
                .iter()
                .any(|(_, (a, b))| (ra, rb) == (*a, *b) || (ra, rb) == (*b, *a))
            {
                return true;
            }
        }
        self.blackholes.iter().any(|(_, link)| *link == (from, to))
    }

    /// Combined extra loss probability from active loss bursts.
    fn burst_loss(&self) -> f64 {
        let mut keep = 1.0;
        for (_, loss) in &self.loss_bursts {
            keep *= 1.0 - loss;
        }
        1.0 - keep
    }

    /// Product of active latency-spike factors (1.0 when none).
    fn latency_factor(&self) -> f64 {
        self.latency_spikes.iter().map(|(_, f)| f).product()
    }

    fn is_present(&self, id: AgentId, node: NodeId) -> bool {
        self.slot(id)
            .is_some_and(|slot| slot.state == AgentState::Active && slot.node == node)
    }

    /// The live agent `id`, or `None` if it was disposed, killed or never
    /// assigned.
    fn slot(&self, id: AgentId) -> Option<&AgentSlot> {
        let index = usize::try_from(id.raw()).ok()?;
        self.agents.get(index)?.as_ref()
    }

    fn slot_mut(&mut self, id: AgentId) -> Option<&mut AgentSlot> {
        let index = usize::try_from(id.raw()).ok()?;
        self.agents.get_mut(index)?.as_mut()
    }

    /// Takes agent `id` out of the table.
    fn remove(&mut self, id: AgentId) -> Option<AgentSlot> {
        let index = usize::try_from(id.raw()).ok()?;
        let slot = self.agents.get_mut(index)?.take()?;
        self.live -= 1;
        Some(slot)
    }

    /// Sends a delivery-failure notice back to the originator of a failed
    /// message (failure notices themselves are never bounced).
    fn bounce(&mut self, to: AgentId, node: NodeId, incoming: Incoming) {
        self.stats.messages_failed += 1;
        let Incoming::Message { from, payload } = incoming else {
            self.stats.failures_dropped += 1;
            return;
        };
        if let Some(tracer) = &mut self.tracer {
            tracer(MsgTrace {
                now: self.sched.now(),
                from,
                to,
                node,
                payload: &payload,
                delivered: false,
            });
        }
        // Find the sender wherever it currently is; if it is gone or in
        // transit the notice is dropped (it would bounce forever).
        let Some(sender) = self.slot(from) else {
            self.stats.failures_dropped += 1;
            return;
        };
        if sender.state != AgentState::Active {
            self.stats.failures_dropped += 1;
            return;
        }
        let sender_node = sender.node;
        if self.link_blocked(node, sender_node) {
            // The bounce path itself is severed; the notice is lost.
            self.stats.failures_dropped += 1;
            return;
        }
        let spike = if node == sender_node {
            1.0
        } else {
            self.latency_factor()
        };
        let latency = self
            .topology
            .latency(node, sender_node, &mut self.net_rng)
            .mul_f64(spike);
        self.sched.schedule_after(
            latency,
            Event::Deliver {
                to: from,
                node: sender_node,
                incoming: Incoming::Failure { to, node, payload },
            },
        );
    }

    /// Runs one handler, then applies the effects it requested.
    fn invoke<F>(&mut self, id: AgentId, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut AgentCtx<'_>),
    {
        self.invoke_queued(id, SimDuration::ZERO, f);
    }

    /// Like [`SimPlatform::invoke`], but records how long the triggering
    /// item waited at the agent's service station, for the handler to
    /// read via [`AgentCtx::queued`].
    fn invoke_queued<F>(&mut self, id: AgentId, queued: SimDuration, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut AgentCtx<'_>),
    {
        let Some(slot) = self.slot_mut(id) else {
            return;
        };
        let mut behavior = slot.behavior.take().expect("re-entrant handler invocation");
        let node = slot.node;
        // Applying actions never runs another handler that could want the
        // buffer (a dispose's farewell gets its own), so it is free here.
        let mut actions = std::mem::take(&mut self.actions);
        {
            let mut ctx = AgentCtx {
                now: self.sched.now(),
                self_id: id,
                node,
                rng: &mut self.rng,
                actions: &mut actions,
                next_agent_id: &mut self.next_agent_id,
                next_timer_id: &mut self.next_timer_id,
                trace: &self.trace,
                queued,
                form: PayloadForm::Message,
            };
            f(behavior.as_mut(), &mut ctx);
        }
        self.stats.handler_invocations += 1;
        if let Some(slot) = self.slot_mut(id) {
            slot.behavior = Some(behavior);
        }
        self.apply_actions(id, node, &mut actions);
        self.actions = actions;
    }

    /// Applies a handler's requested effects in order.
    ///
    /// Structural actions follow a first-wins rule, identical on both
    /// runtimes: once the agent has dispatched, a later `dispose` in the
    /// same handler is ignored (the behaviour already departed); once it
    /// has disposed, every later action is ignored (the agent no longer
    /// exists). `on_dispose` runs exactly once, and only its *sends*
    /// (farewells) take effect — structural requests from a destructor
    /// would otherwise recurse.
    /// Drains `actions`, leaving the buffer empty for the next handler.
    fn apply_actions(&mut self, id: AgentId, origin: NodeId, actions: &mut Vec<Action>) {
        let mut dispatched = false;
        for action in actions.drain(..) {
            match action {
                Action::Send { to, node, payload } => {
                    self.transmit(id, origin, to, node, payload);
                }
                Action::Dispatch { to } => {
                    self.start_migration(id, origin, to);
                    dispatched = true;
                }
                Action::SetTimer { timer, delay } => {
                    self.sched
                        .schedule_after(delay, Event::TimerFired { agent: id, timer });
                }
                Action::Create {
                    id: new_id,
                    node,
                    behavior,
                } => {
                    if self.topology.contains(node) {
                        let hop = if node == origin {
                            SimDuration::ZERO
                        } else {
                            self.topology.latency(origin, node, &mut self.net_rng)
                        };
                        self.insert_creating(new_id, node, behavior, hop);
                    } else {
                        self.stats.ignored_actions += 1;
                    }
                }
                Action::Dispose => {
                    if dispatched {
                        // The behaviour already left for another node.
                        self.stats.ignored_actions += 1;
                        continue;
                    }
                    let Some(mut slot) = self.remove(id) else {
                        continue;
                    };
                    if let Some(mut behavior) = slot.behavior.take() {
                        let mut farewell = Vec::new();
                        {
                            let mut ctx = AgentCtx {
                                now: self.sched.now(),
                                self_id: id,
                                node: origin,
                                rng: &mut self.rng,
                                actions: &mut farewell,
                                next_agent_id: &mut self.next_agent_id,
                                next_timer_id: &mut self.next_timer_id,
                                trace: &self.trace,
                                queued: SimDuration::ZERO,
                                form: PayloadForm::Message,
                            };
                            behavior.on_dispose(&mut ctx);
                        }
                        self.stats.handler_invocations += 1;
                        for action in farewell {
                            if let Action::Send { to, node, payload } = action {
                                self.transmit(id, origin, to, node, payload);
                            } else {
                                self.stats.ignored_actions += 1;
                            }
                        }
                    }
                    self.stats.agents_disposed += 1;
                    // The agent is gone; ignore whatever the handler
                    // requested after disposing.
                    break;
                }
            }
        }
    }

    fn transmit(
        &mut self,
        from: AgentId,
        origin: NodeId,
        to: AgentId,
        node: NodeId,
        payload: Payload,
    ) {
        if !self.topology.contains(node) {
            self.stats.ignored_actions += 1;
            return;
        }
        self.stats.messages_sent += 1;
        let remote = origin != node;
        if remote {
            self.stats.messages_remote += 1;
        }
        if self.link_blocked(origin, node) {
            // Crashed destination, partition, or blackhole: the message
            // vanishes without a bounce — exactly what makes timeouts
            // and failover fire.
            self.stats.messages_blocked += 1;
            return;
        }
        if remote {
            let burst = self.burst_loss();
            if burst > 0.0 && self.net_rng.chance(burst) {
                self.stats.messages_lost += 1;
                return;
            }
        }
        let spike = if remote { self.latency_factor() } else { 1.0 };
        match self.topology.transmit(origin, node, &mut self.net_rng) {
            Delivery::Deliver(latency) => {
                self.sched.schedule_after(
                    latency.mul_f64(spike),
                    Event::Deliver {
                        to,
                        node,
                        incoming: Incoming::Message { from, payload },
                    },
                );
            }
            Delivery::Duplicate(first, second) => {
                self.stats.messages_duplicated += 1;
                for latency in [first, second] {
                    self.sched.schedule_after(
                        latency.mul_f64(spike),
                        Event::Deliver {
                            to,
                            node,
                            incoming: Incoming::Message {
                                from,
                                payload: payload.clone(),
                            },
                        },
                    );
                }
            }
            Delivery::Lost => {
                self.stats.messages_lost += 1;
            }
        }
    }

    fn start_migration(&mut self, id: AgentId, origin: NodeId, to: NodeId) {
        if !self.topology.contains(to) {
            self.stats.ignored_actions += 1;
            return;
        }
        let Some(slot) = self.slot(id) else {
            return;
        };
        if slot.state != AgentState::Active {
            self.stats.ignored_actions += 1;
            return;
        }
        let state_size = slot.behavior.as_ref().map_or(512, |b| b.state_size());
        let network = if to == origin {
            SimDuration::ZERO
        } else {
            self.topology
                .latency(origin, to, &mut self.net_rng)
                .mul_f64(self.latency_factor())
        };
        let total =
            self.config.migration_overhead + network + self.config.transfer_time(state_size);
        if let Some(slot) = self.slot_mut(id) {
            slot.state = AgentState::InTransit { to };
        }
        self.stats.migrations += 1;
        self.sched
            .schedule_after(total, Event::Arrive { agent: id });
    }

    fn insert_creating(
        &mut self,
        id: AgentId,
        node: NodeId,
        behavior: Box<dyn Agent>,
        extra_delay: SimDuration,
    ) {
        debug_assert!(id.raw() < self.next_agent_id, "ids come from the runtime");
        let index = usize::try_from(id.raw()).expect("agent ids fit the address space");
        if index >= self.agents.len() {
            self.agents.resize_with(index + 1, || None);
        }
        let slot = AgentSlot {
            behavior: Some(behavior),
            node,
            state: AgentState::Creating,
            station: ServiceStation::new(),
            timer_floor: TimerId::new(0),
        };
        debug_assert!(self.agents[index].is_none(), "ids are never reused");
        self.agents[index] = Some(slot);
        self.live += 1;
        self.stats.agents_created += 1;
        self.sched.schedule_after(
            self.config.creation_overhead + extra_delay,
            Event::Created { agent: id },
        );
    }
}

impl fmt::Debug for SimPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimPlatform")
            .field("now", &self.now())
            .field("agents", &self.live)
            .field("stats", &self.stats)
            .finish()
    }
}
