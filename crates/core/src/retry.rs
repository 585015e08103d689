//! The client-side locate discipline, shared by every scheme's client.
//!
//! The paper's baseline "performs the same functions as the IAgents in our
//! system" (§5), and so do the clients: whichever scheme they talk to, they
//! send an attempt, arm a timer, retry on a negative answer (`NotFound`,
//! `NotResponsible`) or on a timeout, give up after a budget, charge the
//! give-up to the tracker that failed them. [`LocateCore`] is that
//! discipline, once. A scheme's client supplies only what differs:
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
//! The discipline comes in two halves, like the clients that use it. The
//! scheme's half, [`RetryPolicy`] (budget and timeout), is built once at
//! bootstrap and shared by every client, beside the scheme's
//! [`SharedSchemeStats`] that give-ups are charged to. The agent's own
//! half, [`LocateCore`], holds the registration flag and a box of
//! in-flight tables that the first locate creates, so the many agents
//! that are only ever located, never locating, carry no tables at all.
//!
//! The subtlety underneath is that negative answers and timeouts race: an
//! answer that already triggered a retry must not let the (now stale)
//! timeout trigger a second one, or the budget burns twice as fast as
//! intended. The core therefore stamps each armed timer with the attempt
//! number it guards and ignores timers whose attempt has already
//! progressed.

use std::collections::HashMap;

use agentrack_platform::{AgentCtx, AgentId, NodeId, TimerId};
use agentrack_sim::{CorrId, GiveUpCause, SimDuration, TraceEvent};

use crate::config::LocationConfig;
use crate::geo::ReachabilityMap;
use crate::scheme::{ClientEvent, SharedSchemeStats};
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

/// The per-scheme half of the locate discipline: the retry budget and
/// timeout. Built once when the scheme bootstraps; every client of the
/// scheme reads the same one.
#[derive(Debug)]
pub(crate) struct RetryPolicy {
    max_attempts: u32,
    timeout: SimDuration,
}

impl RetryPolicy {
    /// The configured retry budget and timeout.
    pub(crate) fn new(config: &LocationConfig) -> Self {
        RetryPolicy {
            max_attempts: config.max_locate_attempts,
            timeout: config.locate_retry_timeout,
        }
    }

    /// How long an attempt may go unanswered before it is retried.
    pub(crate) fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

/// What a client holds once it has located something: the in-flight
/// locates, the timers guarding them, and the per-destination
/// reachability their outcomes feed. Boxed, so an agent that never
/// locates pays one null pointer for it.
#[derive(Debug, Default)]
struct InFlight {
    ops: HashMap<u64, Op>,
    /// timer → (token, attempt it guards).
    timers: HashMap<TimerId, (u64, u32)>,
    /// Fed and read by the hashed client, which hedges bounded locates
    /// toward degraded destinations; the other clients leave it empty.
    reachability: ReachabilityMap,
}

/// One client's own half of the locate discipline: whether its owner is
/// registered, and the in-flight tables, created by the first locate.
/// Every method that retries, times out or reports takes the scheme's
/// [`RetryPolicy`], and the scheme's stats handle where a locate may give
/// up.
#[derive(Debug, Default)]
pub(crate) struct LocateCore {
    in_flight: Option<Box<InFlight>>,
    registered: bool,
}

const _: () = assert!(std::mem::size_of::<LocateCore>() <= 24);

impl LocateCore {
    fn op(&self, token: u64) -> Option<&Op> {
        self.in_flight.as_ref()?.ops.get(&token)
    }

    fn op_mut(&mut self, token: u64) -> Option<&mut Op> {
        self.in_flight.as_mut()?.ops.get_mut(&token)
    }

    /// The per-destination reachability of the client's locates; creates
    /// the in-flight tables if no locate has yet.
    pub(crate) fn reachability(&mut self) -> &mut ReachabilityMap {
        &mut self.in_flight.get_or_insert_with(Box::default).reachability
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
    pub(crate) fn start(&mut self, token: u64, target: AgentId, freshness: Freshness) {
        let in_flight = self.in_flight.get_or_insert_with(Box::default);
        in_flight.ops.insert(
            token,
            Op {
                target,
                attempts: 1,
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
        policy: &RetryPolicy,
        ctx: &mut AgentCtx<'_>,
        token: u64,
        tracker: Option<(AgentId, NodeId)>,
    ) {
        if let Some((tracker, node)) = tracker {
            self.note_tracker(token, tracker, node);
        }
        self.arm_after(ctx, policy.timeout, token);
    }

    /// Notes the tracker the current attempt of `token` goes to.
    pub(crate) fn note_tracker(&mut self, token: u64, tracker: AgentId, node: NodeId) {
        if let Some(op) = self.op_mut(token) {
            op.tracker = Some((tracker.raw(), node));
        }
    }

    /// Arms a timer guarding the current attempt of `token` that fires
    /// after `delay` — the retry timeout, or a bounce backoff.
    pub(crate) fn arm_after(&mut self, ctx: &mut AgentCtx<'_>, delay: SimDuration, token: u64) {
        let Some(in_flight) = self.in_flight.as_mut() else {
            return;
        };
        if let Some(op) = in_flight.ops.get(&token) {
            in_flight
                .timers
                .insert(ctx.set_timer(delay), (token, op.attempts));
        }
    }

    /// The target of an in-flight locate, if still tracked.
    pub(crate) fn target(&self, token: u64) -> Option<AgentId> {
        self.op(token).map(|op| op.target)
    }

    /// The freshness an in-flight locate declared (`Any` once it is gone);
    /// every attempt must carry this bound verbatim.
    pub(crate) fn freshness(&self, token: u64) -> Freshness {
        self.op(token)
            .map_or_else(Freshness::default, |op| op.freshness)
    }

    /// The tracker (raw id, node) the current attempt of `token` went to.
    pub(crate) fn noted_tracker(&self, token: u64) -> Option<(u64, NodeId)> {
        self.op(token)?.tracker
    }

    /// Consumes one attempt of `token`; a give-up carries the cause of
    /// the event that burned the final attempt.
    fn consume_attempt(&mut self, max_attempts: u32, token: u64, cause: GiveUpCause) -> Retry {
        let Some(in_flight) = self.in_flight.as_mut() else {
            return Retry::Nothing;
        };
        let Some(op) = in_flight.ops.get_mut(&token) else {
            return Retry::Nothing;
        };
        op.attempts += 1;
        let target = op.target;
        if op.attempts > max_attempts {
            let tracker = op.tracker;
            in_flight.ops.remove(&token);
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
    /// `RegisterAck`, `Located` (completes the locate; a duplicate is
    /// swallowed) and `NotFound` (a negative answer). Anything else is
    /// `NotMine`.
    pub(crate) fn on_answer(
        &mut self,
        policy: &RetryPolicy,
        stats: &SharedSchemeStats,
        ctx: &mut AgentCtx<'_>,
        msg: Wire,
    ) -> Outcome {
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
            } => match self.in_flight.as_mut().and_then(|f| f.ops.remove(&token)) {
                Some(op) => Outcome {
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
                },
                None => Outcome::report(ClientEvent::Consumed),
            },
            Wire::NotFound { token, .. } => self.on_negative(policy, stats, ctx, token),
            _ => Outcome::report(ClientEvent::NotMine),
        }
    }

    /// A negative answer arrived for `token`: consume one attempt.
    pub(crate) fn on_negative(
        &mut self,
        policy: &RetryPolicy,
        stats: &SharedSchemeStats,
        ctx: &mut AgentCtx<'_>,
        token: u64,
    ) -> Outcome {
        let decision = self.consume_attempt(policy.max_attempts, token, GiveUpCause::Negative);
        self.act(policy, stats, ctx, decision)
    }

    /// A timer fired: `NotMine` unless this core armed it; a timer whose
    /// attempt already progressed is stale and consumed without effect.
    pub(crate) fn on_timer(
        &mut self,
        policy: &RetryPolicy,
        stats: &SharedSchemeStats,
        ctx: &mut AgentCtx<'_>,
        timer: TimerId,
    ) -> Outcome {
        let Some((token, attempt)) = self
            .in_flight
            .as_mut()
            .and_then(|f| f.timers.remove(&timer))
        else {
            return Outcome::report(ClientEvent::NotMine);
        };
        let decision = match self.op(token) {
            Some(op) if op.attempts == attempt => {
                self.consume_attempt(policy.max_attempts, token, GiveUpCause::Timeout)
            }
            _ => Retry::Nothing,
        };
        self.act(policy, stats, ctx, decision)
    }

    /// Traces and accounts a retry decision.
    fn act(
        &self,
        policy: &RetryPolicy,
        stats: &SharedSchemeStats,
        ctx: &mut AgentCtx<'_>,
        decision: Retry,
    ) -> Outcome {
        let me = ctx.self_id().raw();
        match decision {
            Retry::Again { token, target } => {
                let op = self.op(token).expect("a retried locate is in flight");
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
                    attempts: policy.max_attempts,
                    cause,
                });
                // Charge the give-up to the tracker the final attempt hit,
                // split by cause (timeout = it never answered; negative =
                // it answered NotFound/NotResponsible). The remote counters
                // tally the subset whose tracker sat on another node than
                // the querier.
                if let Some((id, node)) = tracker {
                    let remote = u64::from(node != ctx.node());
                    stats.update_tracker(id, |t| match cause {
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

    fn policy(max_locate_attempts: u32) -> RetryPolicy {
        let config = LocationConfig {
            max_locate_attempts,
            ..LocationConfig::default()
        };
        RetryPolicy::new(&config)
    }

    fn start(core: &mut LocateCore, token: u64, target: AgentId, freshness: Freshness) {
        let op = Op {
            target,
            attempts: 1,
            tracker: None,
            freshness,
        };
        let in_flight = core.in_flight.get_or_insert_with(Box::default);
        in_flight.ops.insert(token, op);
    }

    #[test]
    fn negative_answers_consume_the_budget() {
        let max = policy(3).max_attempts;
        let mut t = LocateCore::default();
        start(&mut t, 1, AgentId::new(9), Freshness::BoundedMs(500));
        t.note_tracker(1, AgentId::new(42), NodeId::new(3));
        let again = Retry::Again {
            token: 1,
            target: AgentId::new(9),
        };
        assert_eq!(t.consume_attempt(max, 1, GiveUpCause::Negative), again);
        assert_eq!(t.consume_attempt(max, 1, GiveUpCause::Negative), again);
        assert_eq!(t.freshness(1), Freshness::BoundedMs(500));
        assert_eq!(
            t.consume_attempt(max, 1, GiveUpCause::Negative),
            Retry::GiveUp {
                token: 1,
                target: AgentId::new(9),
                cause: GiveUpCause::Negative,
                tracker: Some((42, NodeId::new(3))),
            }
        );
        assert_eq!(
            t.consume_attempt(max, 1, GiveUpCause::Negative),
            Retry::Nothing
        );
        assert!(t.in_flight.as_ref().is_some_and(|f| f.ops.is_empty()));
    }

    #[test]
    fn a_finished_locate_is_forgotten_and_registration_reports_once() {
        let mut t = LocateCore::default();
        start(&mut t, 7, AgentId::new(1), Freshness::Fresh);
        assert_eq!(t.target(7), Some(AgentId::new(1)));
        assert_eq!(t.noted_tracker(7), None);
        t.in_flight.as_mut().unwrap().ops.remove(&7);
        assert_eq!(t.target(7), None);
        assert_eq!(t.freshness(7), Freshness::Any);
        assert_eq!(
            t.consume_attempt(3, 7, GiveUpCause::Negative),
            Retry::Nothing
        );

        assert!(!t.registered());
        assert_eq!(t.on_register_ack(), ClientEvent::Registered);
        assert_eq!(t.on_register_ack(), ClientEvent::Consumed);
        assert!(t.registered());
    }

    #[test]
    fn a_client_that_never_locates_holds_no_tables() {
        let mut t = LocateCore::default();
        assert_eq!(t.on_register_ack(), ClientEvent::Registered);
        t.note_tracker(1, AgentId::new(42), NodeId::new(3));
        assert_eq!(t.target(1), None);
        assert_eq!(
            t.consume_attempt(3, 1, GiveUpCause::Timeout),
            Retry::Nothing
        );
        assert!(t.in_flight.is_none(), "only a locate creates the tables");
    }

    // Everything that needs an `AgentCtx` — tracing, give-up charging, the
    // timer/negative race — runs against all four schemes on a
    // `SimPlatform` in `tests/locate_core.rs`.
}
