//! The agent programming model: lifecycle callbacks and the execution
//! context.
//!
//! The [`Agent`] trait mirrors the event-driven callbacks of the Aglets
//! platform the paper implemented on (`onCreation`, `onArrival`,
//! `handleMessage`, `onDisposing`). Handlers receive an [`AgentCtx`] through
//! which all effects — sending messages, migrating, setting timers,
//! creating or disposing agents — are *requested*; the runtime applies them
//! after the handler returns, which is also what gives every effect its
//! proper cost on the virtual clock.

use std::fmt;

use agentrack_sim::{NodeId, SimDuration, SimRng, SimTime, TraceSink};

use serde::Serialize;

use crate::id::{AgentId, TimerId};
use crate::payload::{Payload, PayloadForm};

/// Behaviour of a platform agent.
///
/// All callbacks default to "do nothing" so behaviours implement only what
/// they react to.
///
/// Behaviours must be [`Send`]: the live runtime moves them between node
/// threads when agents migrate. (The deterministic runtime is
/// single-threaded but shares the same trait so one behaviour runs on
/// both.)
///
/// # Examples
///
/// ```
/// use agentrack_platform::{Agent, AgentCtx, AgentId, Payload};
///
/// /// Replies to every message with its own payload (an echo service).
/// struct Echo;
///
/// impl Agent for Echo {
///     fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
///         let node = ctx.node();
///         ctx.send(from, node, payload.clone());
///     }
/// }
/// ```
pub trait Agent: Send {
    /// The agent has been created and is now active at its birth node.
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        let _ = ctx;
    }

    /// The agent finished migrating and is active at its new node.
    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        let _ = ctx;
    }

    /// A message from another agent arrived.
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let _ = (ctx, from, payload);
    }

    /// A message this agent sent could not be delivered: the addressee was
    /// not (or no longer) at the addressed node.
    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        let _ = (ctx, to, node, payload);
    }

    /// A timer set with [`AgentCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        let _ = (ctx, timer);
    }

    /// The agent's node came back up after a crash. `lost_soft_state`
    /// says whether in-memory state was wiped by the fault plan;
    /// behaviours holding soft state (tracker records, mailboxes) should
    /// discard it and re-register when it is `true`, and in either case
    /// re-arm any periodic timers — the crash killed them.
    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        let _ = (ctx, lost_soft_state);
    }

    /// The agent is being disposed; last chance to send farewells.
    fn on_dispose(&mut self, ctx: &mut AgentCtx<'_>) {
        let _ = ctx;
    }

    /// Serialized state size in bytes, charged against bandwidth when the
    /// agent migrates.
    fn state_size(&self) -> usize {
        512
    }
}

/// An effect requested by a handler, applied by the runtime afterwards.
pub(crate) enum Action {
    Send {
        to: AgentId,
        node: NodeId,
        payload: Payload,
    },
    Dispatch {
        to: NodeId,
    },
    SetTimer {
        timer: TimerId,
        delay: SimDuration,
    },
    Create {
        id: AgentId,
        node: NodeId,
        behavior: Box<dyn Agent>,
    },
    Dispose,
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Send { to, node, payload } => f
                .debug_struct("Send")
                .field("to", to)
                .field("node", node)
                .field("bytes", &payload.len())
                .finish(),
            Action::Dispatch { to } => f.debug_struct("Dispatch").field("to", to).finish(),
            Action::SetTimer { timer, delay } => f
                .debug_struct("SetTimer")
                .field("timer", timer)
                .field("delay", delay)
                .finish(),
            Action::Create { id, node, .. } => f
                .debug_struct("Create")
                .field("id", id)
                .field("node", node)
                .finish_non_exhaustive(),
            Action::Dispose => f.write_str("Dispose"),
        }
    }
}

/// Execution context handed to every [`Agent`] callback.
///
/// Provides identity, the virtual clock, deterministic randomness, and the
/// effect-requesting methods.
pub struct AgentCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) self_id: AgentId,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) next_agent_id: &'a mut u64,
    pub(crate) next_timer_id: &'a mut u64,
    pub(crate) trace: &'a TraceSink,
    pub(crate) queued: SimDuration,
    pub(crate) form: PayloadForm,
}

impl AgentCtx<'_> {
    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This agent's id.
    #[must_use]
    pub fn self_id(&self) -> AgentId {
        self.self_id
    }

    /// The node this agent currently executes on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Deterministic per-run randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The platform's structured-event trace sink. Disabled (and
    /// zero-cost to emit into) unless the platform installed one.
    #[must_use]
    pub fn trace(&self) -> &TraceSink {
        self.trace
    }

    /// How long the item that triggered this callback waited in the
    /// agent's service queue before handling began. Zero for callbacks
    /// that are not queued deliveries (timers, lifecycle events) and on
    /// runtimes that do not model queueing.
    #[must_use]
    pub fn queued(&self) -> SimDuration {
        self.queued
    }

    /// Encodes `value` as a payload in the form this runtime carries.
    /// The simulator keeps a copy of the message itself: its messages
    /// never leave the process, so no text is written unless something
    /// asks for it. A live node stands for its own address space, so it
    /// writes the JSON text here, in the sending handler.
    #[must_use]
    pub fn encode<T: Serialize + Clone + Send + Sync + 'static>(&self, value: &T) -> Payload {
        Payload::encode_in(value, self.form)
    }

    /// [`AgentCtx::encode`] of a value the caller hands over: the
    /// simulator stores it without a copy.
    #[must_use]
    pub fn encode_owned<T: Serialize + Send + Sync + 'static>(&self, value: T) -> Payload {
        Payload::encode_owned_in(value, self.form)
    }

    /// Sends `payload` to agent `to`, believed to reside at `node`.
    ///
    /// Addressing requires a node: knowing where an agent is *is the
    /// problem the location mechanism solves*. If the addressee is not at
    /// that node when the message arrives, the sender's
    /// [`Agent::on_delivery_failed`] fires.
    pub fn send(&mut self, to: AgentId, node: NodeId, payload: Payload) {
        self.actions.push(Action::Send { to, node, payload });
    }

    /// Migrates this agent to another node. In-flight messages addressed to
    /// the old node will fail; [`Agent::on_arrival`] fires at the
    /// destination once the state transfer completes.
    pub fn dispatch(&mut self, to: NodeId) {
        self.actions.push(Action::Dispatch { to });
    }

    /// Sets a one-shot timer; [`Agent::on_timer`] fires after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration) -> TimerId {
        let timer = TimerId::new(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.actions.push(Action::SetTimer { timer, delay });
        timer
    }

    /// Creates a new agent at `node`; its [`Agent::on_create`] fires there
    /// after the platform's creation overhead (plus a network hop if the
    /// node is remote).
    pub fn create_agent(&mut self, behavior: Box<dyn Agent>, node: NodeId) -> AgentId {
        let id = AgentId::new(*self.next_agent_id);
        *self.next_agent_id += 1;
        self.actions.push(Action::Create { id, node, behavior });
        id
    }

    /// Disposes this agent after the current handler returns.
    pub fn dispose(&mut self) {
        self.actions.push(Action::Dispose);
    }
}

impl fmt::Debug for AgentCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgentCtx")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}
