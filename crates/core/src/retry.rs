//! The client-side locate discipline, shared by every scheme's client.
//!
//! The paper's baseline "performs the same functions as the IAgents in our
//! system" (§5), and so do the clients: whichever scheme they talk to, they
//! send an attempt, arm a timer, retry on a negative answer (`NotFound`,
//! `NotResponsible`) or on a timeout, give up after a budget, charge the
//! give-up to the tracker that failed them and record the latency of the
//! locates that succeed. [`LocateCore`] is that discipline, once. A
//! scheme's client supplies only what differs:
//!
//! * **where one attempt goes** — `Resolve`/`ResolveFresh` to the local
//!   LHAgent (hashed), `Locate` to the central tracker or the target's
//!   home registry, `ChainLocate` to the target's birth forwarder — ending
//!   with [`LocateCore::sent`], which notes the tracker and arms the timer;
//! * **its own messages** — `Resolved`, `NotResponsible`,
//!   `SolicitReregister`, `LeavePointer`, the register watchdog.
//!
//! Everything else comes back as an [`Outcome`]: the event to report to the
//! owning agent, and the attempt to resend if there is one.
//!
//! The subtlety underneath is that negative answers and timeouts race: an
//! answer that already triggered a retry must not let the (now stale)
//! timeout trigger a second one, or the budget burns twice as fast as
//! intended. The core therefore stamps each armed timer with the attempt
//! number it guards and ignores timers whose attempt has already
//! progressed.

use std::collections::HashMap;

use agentrack_platform::{AgentCtx, AgentId, NodeId, TimerId};
use agentrack_sim::{CorrId, GiveUpCause, MetricsRegistry, SimDuration, SimTime, TraceEvent};

use crate::config::LocationConfig;
use crate::scheme::ClientEvent;
use crate::wire::{Freshness, Wire};

/// What the op table decided about a locate after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Retry {
    /// Send another attempt for this target (already counted).
    Again { token: u64, target: AgentId },
    /// Budget exhausted: `cause` is what ended the final attempt — a
    /// timeout (no answer at all) or an explicit negative answer — and
    /// `tracker` the tracker (raw id, node) it was sent to, when noted.
    GiveUp {
        token: u64,
        target: AgentId,
        cause: GiveUpCause,
        tracker: Option<(u64, NodeId)>,
    },
    /// Nothing to do (operation already finished, or stale timer).
    Nothing,
}

/// One in-flight locate.
#[derive(Debug, Clone)]
struct Op {
    target: AgentId,
    attempts: u32,
    started: SimTime,
    /// The tracker (raw id, node) the current attempt was sent to, if known.
    tracker: Option<(u64, NodeId)>,
    /// The freshness requirement the locate was issued with; retries
    /// re-send the same bound.
    freshness: Freshness,
}

/// What [`LocateCore`] made of an answer or a timer.
#[derive(Debug)]
pub(crate) struct Outcome {
    /// What to report to the owning agent.
    pub(crate) event: ClientEvent,
    /// `(token, target)` of the attempt the client must now send by its
    /// scheme's route; the core has already counted and traced it.
    resend: Option<(u64, AgentId)>,
    /// The tracker (raw id, node) the attempt this event answered or ended
    /// was sent to, when noted; `None` when the event touched no live
    /// locate (duplicate answer, stale timer).
    pub(crate) tracker: Option<(u64, NodeId)>,
    /// The freshness a just-completed locate had declared.
    pub(crate) declared: Option<Freshness>,
}

impl Outcome {
    fn report(event: ClientEvent) -> Self {
        Outcome {
            event,
            resend: None,
            tracker: None,
            declared: None,
        }
    }

    /// Sends the attempt the core asked for, if any, through `send(token,
    /// target)`, and yields the event for the owning agent.
    pub(crate) fn then_resend(self, send: impl FnOnce(u64, AgentId)) -> ClientEvent {
        if let Some((token, target)) = self.resend {
            send(token, target);
        }
        self.event
    }
}

/// One client's locate discipline: the table of in-flight locates, the
/// retry budget and timeout, the give-up accounting and the latency record.
#[derive(Debug)]
pub(crate) struct LocateCore {
    ops: HashMap<u64, Op>,
    /// timer → (token, attempt it guards).
    timers: HashMap<TimerId, (u64, u32)>,
    registry: MetricsRegistry,
    max_attempts: u32,
    retry_timeout: SimDuration,
    registered: bool,
}

impl LocateCore {
    /// A core with the configured retry budget and timeout, reporting
    /// latencies and give-ups into `registry`.
    pub(crate) fn new(config: &LocationConfig, registry: MetricsRegistry) -> Self {
        LocateCore {
            ops: HashMap::new(),
            timers: HashMap::new(),
            registry,
            max_attempts: config.max_locate_attempts,
            retry_timeout: config.locate_retry_timeout,
            registered: false,
        }
    }

    /// Whether the owning agent's registration has been acknowledged.
    pub(crate) fn registered(&self) -> bool {
        self.registered
    }

    /// The owning agent's `RegisterAck` arrived: `Registered` the first
    /// time, `Consumed` for the acks of later re-registrations.
    pub(crate) fn on_register_ack(&mut self) -> ClientEvent {
        if std::mem::replace(&mut self.registered, true) {
            ClientEvent::Consumed
        } else {
            ClientEvent::Registered
        }
    }

    /// Begins a locate (attempt 1) under the given freshness requirement;
    /// the client sends the attempt next.
    pub(crate) fn start(
        &mut self,
        ctx: &AgentCtx<'_>,
        token: u64,
        target: AgentId,
        freshness: Freshness,
    ) {
        self.ops.insert(
            token,
            Op {
                target,
                attempts: 1,
                started: ctx.now(),
                tracker: None,
                freshness,
            },
        );
    }

    /// The current attempt of `token` just went out: notes the tracker it
    /// was sent to (so a give-up can be charged to it; `None` leaves the
    /// previous note) and arms the retry timer.
    pub(crate) fn sent(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        token: u64,
        tracker: Option<(AgentId, NodeId)>,
    ) {
        if let Some((tracker, node)) = tracker {
            self.note_tracker(token, tracker, node);
        }
        self.arm_after(ctx, self.retry_timeout, token);
    }

    /// Notes the tracker the current attempt of `token` goes to.
    pub(crate) fn note_tracker(&mut self, token: u64, tracker: AgentId, node: NodeId) {
        if let Some(op) = self.ops.get_mut(&token) {
            op.tracker = Some((tracker.raw(), node));
        }
    }

    /// Arms a timer guarding the current attempt of `token` that fires
    /// after `delay` — the retry timeout, or a bounce backoff.
    pub(crate) fn arm_after(&mut self, ctx: &mut AgentCtx<'_>, delay: SimDuration, token: u64) {
        if let Some(op) = self.ops.get(&token) {
            self.timers
                .insert(ctx.set_timer(delay), (token, op.attempts));
        }
    }

    /// The target of an in-flight locate, if still tracked.
    pub(crate) fn target(&self, token: u64) -> Option<AgentId> {
        self.ops.get(&token).map(|op| op.target)
    }

    /// The freshness an in-flight locate declared (`Any` once it is gone);
    /// every attempt must carry this bound verbatim.
    pub(crate) fn freshness(&self, token: u64) -> Freshness {
        self.ops
            .get(&token)
            .map_or_else(Freshness::default, |op| op.freshness)
    }

    /// The tracker (raw id, node) the current attempt of `token` went to.
    pub(crate) fn noted_tracker(&self, token: u64) -> Option<(u64, NodeId)> {
        self.ops.get(&token)?.tracker
    }

    /// Consumes one attempt of `token`; a give-up carries the cause of
    /// the event that burned the final attempt.
    fn consume_attempt(&mut self, token: u64, cause: GiveUpCause) -> Retry {
        let Some(op) = self.ops.get_mut(&token) else {
            return Retry::Nothing;
        };
        op.attempts += 1;
        let target = op.target;
        if op.attempts > self.max_attempts {
            let tracker = op.tracker;
            self.ops.remove(&token);
            Retry::GiveUp {
                token,
                target,
                cause,
                tracker,
            }
        } else {
            Retry::Again { token, target }
        }
    }

    /// The answers every scheme's client treats alike: the owner's
    /// `RegisterAck`, `Located` (completes the locate and records its
    /// latency; a duplicate is swallowed) and `NotFound` (a negative
    /// answer). Anything else is `NotMine`.
    pub(crate) fn on_answer(&mut self, ctx: &mut AgentCtx<'_>, msg: Wire) -> Outcome {
        match msg {
            Wire::RegisterAck { agent } if agent == ctx.self_id() => {
                Outcome::report(self.on_register_ack())
            }
            Wire::RegisterAck { .. } => Outcome::report(ClientEvent::Consumed),
            Wire::Located {
                target,
                node,
                stale,
                age_ms,
                token,
                ..
            } => match self.ops.remove(&token) {
                Some(op) => {
                    self.registry
                        .record_locate(ctx.now().saturating_since(op.started));
                    Outcome {
                        event: ClientEvent::Located {
                            token,
                            target,
                            node,
                            stale,
                            age_ms,
                        },
                        resend: None,
                        tracker: op.tracker,
                        declared: Some(op.freshness),
                    }
                }
                None => Outcome::report(ClientEvent::Consumed),
            },
            Wire::NotFound { token, .. } => self.on_negative(ctx, token),
            _ => Outcome::report(ClientEvent::NotMine),
        }
    }

    /// A negative answer arrived for `token`: consume one attempt.
    pub(crate) fn on_negative(&mut self, ctx: &mut AgentCtx<'_>, token: u64) -> Outcome {
        let decision = self.consume_attempt(token, GiveUpCause::Negative);
        self.act(ctx, decision)
    }

    /// A timer fired: `NotMine` unless this core armed it; a timer whose
    /// attempt already progressed is stale and consumed without effect.
    pub(crate) fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) -> Outcome {
        let Some((token, attempt)) = self.timers.remove(&timer) else {
            return Outcome::report(ClientEvent::NotMine);
        };
        let decision = match self.ops.get(&token) {
            Some(op) if op.attempts == attempt => self.consume_attempt(token, GiveUpCause::Timeout),
            _ => Retry::Nothing,
        };
        self.act(ctx, decision)
    }

    /// Traces and accounts a retry decision.
    fn act(&mut self, ctx: &mut AgentCtx<'_>, decision: Retry) -> Outcome {
        let me = ctx.self_id().raw();
        match decision {
            Retry::Again { token, target } => {
                let op = &self.ops[&token];
                let attempt = op.attempts;
                ctx.trace().emit(ctx.now(), || TraceEvent::RetryAttempt {
                    corr: Some(CorrId::new(me, token)),
                    client: me,
                    target: target.raw(),
                    attempt,
                });
                Outcome {
                    event: ClientEvent::Consumed,
                    resend: Some((token, target)),
                    tracker: op.tracker,
                    declared: None,
                }
            }
            Retry::GiveUp {
                token,
                target,
                cause,
                tracker,
            } => {
                ctx.trace().emit(ctx.now(), || TraceEvent::RetryGiveUp {
                    corr: Some(CorrId::new(me, token)),
                    client: me,
                    target: target.raw(),
                    attempts: self.max_attempts,
                    cause,
                });
                // Charge the give-up to the tracker the final attempt hit,
                // split by cause (timeout = it never answered; negative =
                // it answered NotFound/NotResponsible). The remote counters
                // tally the subset whose tracker sat on another node than
                // the querier.
                if let Some((id, node)) = tracker {
                    let remote = u64::from(node != ctx.node());
                    self.registry.update_tracker(id, |t| match cause {
                        GiveUpCause::Timeout => {
                            t.giveup_timeout += 1;
                            t.giveup_timeout_remote += remote;
                        }
                        GiveUpCause::Negative => {
                            t.giveup_negative += 1;
                            t.giveup_negative_remote += remote;
                        }
                    });
                }
                Outcome {
                    event: ClientEvent::Failed { token, target },
                    resend: None,
                    tracker,
                    declared: None,
                }
            }
            Retry::Nothing => Outcome::report(ClientEvent::Consumed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(max_locate_attempts: u32) -> LocateCore {
        let config = LocationConfig {
            max_locate_attempts,
            ..LocationConfig::default()
        };
        LocateCore::new(&config, MetricsRegistry::new())
    }

    fn start(core: &mut LocateCore, token: u64, target: AgentId, freshness: Freshness) {
        let op = Op {
            target,
            attempts: 1,
            started: SimTime::ZERO,
            tracker: None,
            freshness,
        };
        core.ops.insert(token, op);
    }

    #[test]
    fn negative_answers_consume_the_budget() {
        let mut t = core(3);
        start(&mut t, 1, AgentId::new(9), Freshness::BoundedMs(500));
        t.note_tracker(1, AgentId::new(42), NodeId::new(3));
        let again = Retry::Again {
            token: 1,
            target: AgentId::new(9),
        };
        assert_eq!(t.consume_attempt(1, GiveUpCause::Negative), again);
        assert_eq!(t.consume_attempt(1, GiveUpCause::Negative), again);
        assert_eq!(t.freshness(1), Freshness::BoundedMs(500));
        assert_eq!(
            t.consume_attempt(1, GiveUpCause::Negative),
            Retry::GiveUp {
                token: 1,
                target: AgentId::new(9),
                cause: GiveUpCause::Negative,
                tracker: Some((42, NodeId::new(3))),
            }
        );
        assert_eq!(t.consume_attempt(1, GiveUpCause::Negative), Retry::Nothing);
        assert!(t.ops.is_empty());
    }

    #[test]
    fn a_finished_locate_is_forgotten_and_registration_reports_once() {
        let mut t = core(3);
        start(&mut t, 7, AgentId::new(1), Freshness::Fresh);
        assert_eq!(t.target(7), Some(AgentId::new(1)));
        assert_eq!(t.noted_tracker(7), None);
        t.ops.remove(&7);
        assert_eq!(t.target(7), None);
        assert_eq!(t.freshness(7), Freshness::Any);
        assert_eq!(t.consume_attempt(7, GiveUpCause::Negative), Retry::Nothing);

        assert!(!t.registered());
        assert_eq!(t.on_register_ack(), ClientEvent::Registered);
        assert_eq!(t.on_register_ack(), ClientEvent::Consumed);
        assert!(t.registered());
    }

    // Everything that needs an `AgentCtx` — tracing, give-up charging, the
    // timer/negative race — runs against all four schemes on a
    // `SimPlatform` in `tests/locate_core.rs`.
}
